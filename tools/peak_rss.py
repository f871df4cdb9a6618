"""Peak resident memory of each command on the benchmark workloads.

    python3 tools/peak_rss.py WORKDIR [WORKLOAD ...]

Builds each workload of ``bench/workloads.py`` (default: all of them) with
seed 1 into a fresh ``WORKDIR/<workload>``, as ``tools/output_hashes.py``
does, then runs ``wmera preprocess`` (empty cache) and ``wmera pipeline``
(warm cache) through ``bench/run.py``'s ``_invoke``: each is a child process
with one BLAS thread and the ``src/`` next to this script. Prints
``workload  command  MB`` per command, the child's peak RSS from
``os.wait4`` in MB of 10**6 bytes, as ``bench/run.py`` reports ``peak_rss_mb``.
"""

from __future__ import annotations

import shutil
import sys

# output_hashes puts src/ and bench/ on the path
from output_hashes import SEED, WORKLOADS, parse_args
from run import _invoke


def main(argv=None) -> int:
    workdir, names = parse_args(argv, __doc__)
    for name in names:
        directory = workdir / name
        shutil.rmtree(directory, ignore_errors=True)
        config = WORKLOADS[name].build(SEED, directory).config
        for command in ("preprocess", "pipeline"):
            log = directory / f"{command}.log"
            _, code, mb = _invoke(command, config, log)
            if code:
                sys.exit(f"{name}: {command} exited {code}\n"
                         f"{log.read_text(errors='replace')}")
            print(f"{name}  {command}  {mb:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
