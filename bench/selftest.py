"""Show that each output check of ``checks.py`` fails on corrupted outputs.

    python3 bench/selftest.py [--workload clf-multiscale] [--seed 1]

Builds the workload's inputs, runs ``wmera pipeline`` once, requires every
check to pass, then for each corruption copies the output directory, damages
one model file or one cache sample in the copy, and requires the named check
to fail. Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import argparse
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

from run import SRC, WORK, in_process
from checks import read_cores, read_model, run_checks
from workloads import WORKLOADS


def _write_cores(f, cores) -> None:
    f.write(struct.pack("<I", len(cores)))
    for c in cores:
        f.write(struct.pack("<I", c.ndim))
        f.write(struct.pack(f"<{c.ndim}Q", *c.shape))
        f.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def _scale_model(out: Path, scale: int, factor: float) -> None:
    """Multiply the first core of model_scale{scale}.mps by ``factor``."""
    path = out / f"model_scale{scale}.mps"
    cores = read_model(path)
    cores[0] = cores[0] * factor
    header = path.read_bytes()[:len(b"WMERA-MPS") + 4]
    with open(path, "wb") as f:
        f.write(header)
        _write_cores(f, cores)


def _scale_sample(out: Path, split: str, scale: int, factor: float) -> None:
    """Multiply one core of sample 0 of a cached scale by ``factor``."""
    path = out / "cache" / split / f"scale_{scale:03d}.bin"
    buf = path.read_bytes()
    cores, end = read_cores(buf, 0)
    cores[0] = cores[0] * factor
    with open(path, "wb") as f:
        _write_cores(f, cores)
        f.write(buf[end:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="clf-multiscale", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import wmera.cli as cli

    work = WORK / f"selftest-{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = WORKLOADS[args.workload].build(args.seed, work / "inputs")
        _, code = in_process(cli, "pipeline", inputs.config)
        if code != 0:
            print(f"wmera pipeline exited {code}")
            return 1
        out = inputs.config.parent / "out"
        finest, next_finest = inputs.trained_scales[-1], inputs.trained_scales[-2]
        corruptions = [
            (None, "nothing", lambda o: None),
            ("encoding", "test sample 0 at scale 1 scaled by 1.001",
             lambda o: _scale_sample(o, "test", 1, 1.001)),
            ("reported", f"model_scale{finest} scaled by 1.01",
             lambda o: _scale_model(o, finest, 1.01)),
            ("finegrain", f"train sample 0 at scale {next_finest} scaled by 1.001",
             lambda o: _scale_sample(o, "train", next_finest, 1.001)),
            ("threshold", f"model_scale{finest} negated",
             lambda o: _scale_model(o, finest, -1.0)),
        ]
        caught = 0
        for target, label, corrupt in corruptions:
            copy = work / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            corrupt(copy)
            checks, _ = run_checks(inputs, copy)
            failing = [c.name for c in checks if not c.ok]
            ok = failing == [] if target is None else target in failing
            caught += ok
            print(f"{label}: failing checks {failing or 'none'} -> "
                  f"{'as expected' if ok else 'UNEXPECTED'}")
        return 0 if caught == len(corruptions) else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
