"""The package's public names: every export resolves to a package attribute,
and every name the traced benchmark wraps still exists and is still called."""

import collections
import functools
import importlib.util
import sys
from pathlib import Path

import wmera
from test_cli import regression_workspace, run_cli

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """``bench/spans.py`` as a module, loaded without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = saved
    return spans


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from wmera import *", namespace)
    for name in wmera.__all__:
        assert namespace[name] is getattr(wmera, name)
    assert len(set(wmera.__all__)) == len(wmera.__all__)


def test_traced_benchmark_targets_resolve():
    """``bench/spans.py`` patches program functions by name; a rename must
    fail here rather than crash ``bench/run.py --trace 1``. Nothing is patched."""
    spans = load_spans()
    targets = [(f"wmera.{module}", attr) for module, attr, _, _ in spans.SPANS]
    targets += [(module, attr) for module, attr, _ in spans.COUNTS]
    for module, attr in targets:
        owner, leaf = spans._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{module}.{attr} is not a function"


def test_traced_benchmark_records_the_data_path(tmp_path, capsys):
    """A patched name that still resolves but is no longer called through the
    patched namespace records nothing. Run the traced layers around an
    in-process preprocess (cache built) and pipeline (cache loaded), counting
    the calls that reach each patched target: every target this run reaches
    must be called, the data-path spans recorded, and the bond statistics
    must see the coarse-grained samples."""
    spans = load_spans()
    cfg_path = regression_workspace(tmp_path)
    tracer = spans.Tracer()
    calls = collections.Counter()

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    spans.instrument(tracer)
    try:
        for module, attr, _, _ in spans.SPANS:  # patched through the tracer: restored with it
            owner, leaf = spans._resolve(f"wmera.{module}", attr)
            tracer.patch(owner, leaf, counted(getattr(owner, leaf), f"{module}.{attr}"))
        for command in ("preprocess", "pipeline"):
            assert run_cli(command, "--config", cfg_path) == 0
    finally:
        tracer.restore()
    # A regression workspace reads one CSV series and pads nothing; train
    # keeps one environment across its sweeps, which it fills from the right.
    unreached = {"cli.read_wav", "cli.pad_to_pow2", "trainer.Environment.refresh_left"}
    for module, attr, _, _ in spans.SPANS:
        target = f"{module}.{attr}"
        if target not in unreached:
            assert calls[target] > 0, target
    for name in ("trainer.bond_updates", "trainer.splits"):
        assert tracer.counts[name] > 0, name
    recorded = {name for _, _, name, _, _ in tracer.spans}
    for name in ("ingest.encode", "coarsegrain.dataset", "cache.save", "cache.load"):
        assert name in recorded, name
    assert tracer.values["bond_count"] > 0
