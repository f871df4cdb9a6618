"""Peak resident memory of each command on the benchmark workloads.

    python3 tools/peak_rss.py WORKDIR [WORKLOAD ...]

Builds each workload of ``bench/workloads.py`` (default: all of them) with
seed 1 into a fresh ``WORKDIR/<workload>``, as ``tools/output_hashes.py``
does, then runs ``wmera preprocess`` (empty cache) and ``wmera pipeline``
(warm cache) twice, each time after deleting the workload's ``out/``. Each
command is a child process with one BLAS thread and the ``src/`` next to
this script. After a header line it prints ``workload  command  run.py  own``
per command, both in MB of 10**6 bytes:

- ``run.py`` is the child's peak RSS from ``os.wait4`` when this process
  spawns it through ``bench/run.py``'s ``_invoke``, which is what
  ``bench/run.py`` reports as ``peak_rss_mb``. Linux records the spawning
  process's own peak into the child's at ``exec``, so this column never
  reads below the peak of this process, which has built the workload.
- ``own`` is the same child's peak when a minimal launcher spawns it: a
  ``python3 -c`` that imports only ``os``, ``subprocess`` and ``sys``, far
  below any command's own peak.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

# output_hashes puts src/ and bench/ on the path
from output_hashes import SEED, WORKLOADS, parse_args
from run import SRC, _invoke

COMMANDS = ("preprocess", "pipeline")

# argv: log path, then the command; prints the command's exit code and ru_maxrss (KiB)
LAUNCHER = ("import os, subprocess, sys\n"
            "with open(sys.argv[1], 'wb') as log:\n"
            "    proc = subprocess.Popen(sys.argv[2:], stdout=log, stderr=subprocess.STDOUT)\n"
            "    _, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def run_py_peak(command: str, config, log) -> tuple[int, float]:
    """Exit code and peak RSS in MB, spawned from this process as ``bench/run.py`` does."""
    _, code, mb = _invoke(command, config, log)
    return code, mb


def own_peak(command: str, config, log) -> tuple[int, float]:
    """Exit code and peak RSS in MB, spawned from ``LAUNCHER`` with the
    argv and environment of ``_invoke``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WMERA_CACHE_DIR", None)
    argv = [sys.executable, "-m", "wmera.cli", command, "--config", str(config),
            "--threads", "1"]
    out = subprocess.run([sys.executable, "-c", LAUNCHER, str(log), *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, kib = map(int, out.split())
    return code, kib * 1024 / 1e6


def main(argv=None) -> int:
    workdir, names = parse_args(argv, __doc__)
    print("workload  command  run.py  own")
    for name in names:
        directory = workdir / name
        shutil.rmtree(directory, ignore_errors=True)
        config = WORKLOADS[name].build(SEED, directory).config
        peaks = {}
        for reading, peak in (("run.py", run_py_peak), ("own", own_peak)):
            shutil.rmtree(directory / "out", ignore_errors=True)
            for command in COMMANDS:
                log = directory / f"{command}-{reading}.log"
                code, peaks[command, reading] = peak(command, config, log)
                if code:
                    sys.exit(f"{name}: {command} exited {code}\n"
                             f"{log.read_text(errors='replace')}")
        for command in COMMANDS:
            print(f"{name}  {command}  {peaks[command, 'run.py']:.2f}  "
                  f"{peaks[command, 'own']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
