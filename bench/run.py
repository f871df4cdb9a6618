"""End-to-end and per-layer benchmark of ``wmera preprocess`` and ``wmera pipeline``.

    python3 bench/run.py --workload clf-multiscale --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is taken from ``src/`` next
to this directory. The run generates the workload's input files from the
seed, then repeats whole rounds for about ``--seconds`` (at least
``MIN_ROUNDS``; a round starts only while it is expected to end in time):
each round deletes the output directory, times
``wmera preprocess`` on the empty cache and ``wmera pipeline`` on the warm
one. Reported times are medians over the rounds. After the last round the
outputs are checked with ``checks.py``; checking is not timed.

``--trace 0`` runs each command as its own process, the way a user does, and
reports the end-to-end metrics. ``--trace 1`` runs the commands in this
process through ``wmera.cli.main``, alternating an untraced and a traced
round, and reports per-layer self times and counts (see ``spans.py``), plus
the tracing overhead against the untraced in-process round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (program invocations), ``failed`` and ``metrics``.
No workload is expected to fail, so a failed invocation ends the run with a
non-zero exit and no result line.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for the program and for this process, so the program
# uses the one CPU its --threads 1 asks for; its matrices are tiny.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"
MIN_ROUNDS = 5

sys.path.insert(0, str(HERE))
from checks import run_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
                    "cache_mb": "MB", "test_cost": "1"}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _output_digest(out: Path) -> str:
    """Hash of the models, metrics, summary and snapshot the pipeline wrote."""
    h = hashlib.sha256()
    for path in sorted(out.glob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _report_checks(checks) -> bool:
    for c in checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    return all(c.ok for c in checks)


def _invoke(command: str, config: Path, log: Path) -> tuple[float, int, float]:
    """Run one wmera command as a child process: wall s, exit code, peak RSS MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WMERA_CACHE_DIR", None)
    argv = [sys.executable, "-m", "wmera.cli", command, "--config", str(config),
            "--threads", "1"]
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def _more_rounds(done: int, minimum: int, start: float, seconds: float) -> bool:
    """Whole rounds only: start another while it is expected to end in time."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def timed_run(inputs, work: Path, seconds: float) -> dict:
    out = inputs.config.parent / "out"
    setup, pipeline, rss, digests = [], [], [], set()
    start = time.perf_counter()
    while _more_rounds(len(setup), MIN_ROUNDS, start, seconds):
        shutil.rmtree(out, ignore_errors=True)
        walls, peaks = [], []
        for command in ("preprocess", "pipeline"):
            log = work / f"{command}-{len(setup)}.log"
            wall, code, peak = _invoke(command, inputs.config, log)
            if code != 0:
                # No workload is expected to fail: a failure ends the run.
                sys.stderr.write(log.read_text(errors="replace")[-2000:])
                raise SystemExit(f"wmera {command} exited {code}")
            walls.append(wall)
            peaks.append(peak)
        setup.append(walls[0])
        pipeline.append(walls[1])
        rss.append(max(peaks))
        digests.add(_output_digest(out))

    checks, test_cost = run_checks(inputs, out)
    correct = _report_checks(checks)
    if len(digests) != 1:
        print(f"check determinism: FAILED ({len(digests)} distinct outputs over "
              f"{len(setup)} rounds)")
        correct = False
    print(f"rounds {len(setup)}: setup_s {[round(t, 3) for t in setup]}, "
          f"pipeline_s {[round(t, 3) for t in pipeline]}")
    cache = out / "cache"
    values = {"setup_s": statistics.median(setup),
              "pipeline_s": statistics.median(pipeline),
              "peak_rss_mb": statistics.median(rss),
              "cache_mb": _dir_bytes(cache) / 1e6,
              "test_cost": test_cost}
    return {"correct": correct, "attempted": 2 * len(setup), "failed": 0,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()}}


# Per-layer metrics: self-time spans reported in seconds, then counts.
LAYER_SPANS = ["ingest.read", "ingest.window", "ingest.encode", "cli.config",
               "cli.fingerprint", "cli.load_raw", "cli.write", "coarsegrain.dataset",
               "coarsegrain.adjacent", "coarsegrain.wrap", "coarsegrain.isometry",
               "tensor.svd", "cache.save", "cache.load", "trainer.train",
               "trainer.sweep", "trainer.env", "trainer.window", "trainer.solve",
               "trainer.split", "trainer.eval", "finegrain.weights"]
LAYER_COUNTS = ["mps.states_built", "trainer.bond_updates", "trainer.resplits",
                "kernel.tensordot_calls", "kernel.svd_calls", "kernel.qr_calls"]
PHASES = ("setup", "pipeline")


def in_process(cli, command: str, config: Path) -> tuple[float, int]:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([command, "--config", str(config), "--threads", "1"])
        return time.perf_counter() - start, code


def traced_run(inputs, seconds: float, trace_file: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import wmera.cli as cli
    from spans import Tracer, instrument

    out = inputs.config.parent / "out"
    untraced = {p: [] for p in PHASES}
    traced = {p: [] for p in PHASES}
    layers: list[dict] = []
    count_sets: list[dict] = []
    first_tracer = None
    start = time.perf_counter()
    while _more_rounds(len(layers), 1, start, seconds):
        for tracing in (False, True):
            shutil.rmtree(out, ignore_errors=True)
            tracer = Tracer()
            for phase, command in zip(PHASES, ("preprocess", "pipeline")):
                if tracing:
                    instrument(tracer)
                    try:
                        with tracer.span(f"phase.{phase}"):
                            wall, code = in_process(cli, command, inputs.config)
                    finally:
                        tracer.restore()
                else:
                    wall, code = in_process(cli, command, inputs.config)
                if code != 0:
                    raise SystemExit(f"wmera {command} exited {code}")
                (traced if tracing else untraced)[phase].append(wall)
        layers.append(dict(tracer.self_time))
        bonds = tracer.values
        counts = dict(tracer.counts)
        counts["trainer.resplits"] = counts.get("trainer.splits", 0) - counts.get(
            "trainer.bond_updates", 0)
        counts["coarsegrain.max_bond"] = bonds["coarsegrain.max_bond"]
        counts["coarsegrain.mean_bond"] = bonds["bond_sum"] / max(bonds["bond_count"], 1)
        counts["finegrain.truncated_weight"] = bonds["finegrain.truncated_weight"]
        count_sets.append(counts)
        first_tracer = first_tracer or tracer

    checks, _ = run_checks(inputs, out)
    correct = _report_checks(checks)
    if any(c != count_sets[0] for c in count_sets[1:]):
        print("check counts: FAILED (counts differ between traced rounds)")
        correct = False
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    first_tracer.write(trace_file)

    def med(name: str) -> float:
        return statistics.median(layer.get(name, 0.0) for layer in layers)

    metrics = {f"{name}_s": (med(name), "s") for name in LAYER_SPANS}
    counts = count_sets[0]
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["coarsegrain.max_bond"] = (int(counts["coarsegrain.max_bond"]), "count")
    metrics["coarsegrain.mean_bond"] = (counts["coarsegrain.mean_bond"], "count")
    metrics["finegrain.truncated_weight"] = (counts["finegrain.truncated_weight"], "1")
    uncovered = overhead = 0.0
    for phase in PHASES:
        phase_uncovered = med(f"phase.{phase}")
        phase_traced = statistics.median(traced[phase])
        phase_untraced = statistics.median(untraced[phase])
        metrics[f"trace.{phase}.untraced_s"] = (phase_untraced, "s")
        metrics[f"trace.{phase}.overhead_s"] = (phase_traced - phase_untraced, "s")
        metrics[f"trace.{phase}.uncovered_s"] = (phase_uncovered, "s")
        metrics[f"trace.{phase}.coverage"] = (1.0 - phase_uncovered / phase_traced, "1")
        uncovered += phase_uncovered
        overhead += phase_traced - phase_untraced
    metrics["trace.uncovered_s"] = (uncovered, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"traced rounds {len(layers)}: untraced {untraced}, traced {traced}")
    return {"correct": correct, "attempted": 4 * len(layers), "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so children are killed and work removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "wmera" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'wmera'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = WORKLOADS[args.workload].build(args.seed, work / "inputs")
        if args.trace:
            result = traced_run(inputs, args.seconds,
                                WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            result = timed_run(inputs, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
