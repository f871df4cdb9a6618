"""The package's public names: every export resolves to a package attribute,
and every name the traced benchmark wraps still exists."""

import importlib.util
import sys
from pathlib import Path

import wmera

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from wmera import *", namespace)
    for name in wmera.__all__:
        assert namespace[name] is getattr(wmera, name)
    assert len(set(wmera.__all__)) == len(wmera.__all__)


def test_traced_benchmark_targets_resolve():
    """``bench/spans.py`` patches program functions by name; a rename must
    fail here rather than crash ``bench/run.py --trace 1``. The module is
    loaded without writing bytecode next to it, and nothing is patched."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = saved
    targets = [(f"wmera.{module}", attr) for module, attr, _, _ in spans.SPANS]
    targets += [(module, attr) for module, attr, _ in spans.COUNTS]
    for module, attr in targets:
        owner, leaf = spans._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{module}.{attr} is not a function"
