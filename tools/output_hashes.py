"""SHA-256 of every file the pipeline writes on the benchmark workloads.

    python3 tools/output_hashes.py WORKDIR [WORKLOAD ...]

Builds each workload of ``bench/workloads.py`` (default: all of them) with
seed 1 into a fresh ``WORKDIR/<workload>``, replacing what an earlier run
left there, and runs in this process, with the ``src/`` next to this script,
``wmera preprocess`` and ``wmera pipeline``, then the step commands on the
finest trained scale f: ``finegrain --scale f+1``, ``train --scale f --init``
with the warm start that wrote, and ``eval --scale f``. It prints
``sha256  path`` for every file under each workload's ``out/`` (models, warm
start, metrics, summary, evaluation report, config snapshot, cache manifests
and scale files), sorted, paths relative to ``WORKDIR``.

To check that a change keeps every output byte-identical, run the script
from both checkouts into the same ``WORKDIR`` and diff the two listings:
``config.snapshot`` records absolute paths, so the directories must match.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs the program
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import wmera.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def output_hashes(workdir: Path, name: str) -> list[str]:
    """Build workload ``name`` under ``workdir``, run it, and list its outputs."""
    directory = workdir / name
    shutil.rmtree(directory, ignore_errors=True)
    inputs = WORKLOADS[name].build(SEED, directory)
    f = min(inputs.trained_scales)
    init = directory / "out" / f"model_scale{f}.init.mps"
    for command in (["preprocess"], ["pipeline"], ["finegrain", "--scale", f + 1],
                    ["train", "--scale", f, "--init", init], ["eval", "--scale", f]):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main([*map(str, command), "--config", str(inputs.config),
                             "--threads", "1"])
        if code:
            sys.exit(f"{name}: {command[0]} exited {code}\n{log.getvalue()}")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(workdir)}"
            for path in sorted((directory / "out").rglob("*")) if path.is_file()]


def parse_args(argv, doc: str) -> tuple[Path, list[str]]:
    """``WORKDIR [WORKLOAD ...]``: the resolved work directory and the
    workloads named (default: all of them)."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    return args.workdir.resolve(), args.workloads or list(WORKLOADS)


def main(argv=None) -> int:
    workdir, names = parse_args(argv, __doc__)
    os.environ.pop(cli.CACHE_ENV_VAR, None)  # the caches go under out/
    for name in names:
        print("\n".join(output_hashes(workdir, name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
