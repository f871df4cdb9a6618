"""Span and count recording around the program's layers, from outside.

No file of the program changes: ``instrument`` replaces functions in the
``wmera`` module namespaces with wrappers that record a span (id, parent,
name, start, end) per call, and counts calls into the NumPy kernels. Spans
stay in memory and are written out when the run ends.

A function is patched at the namespace it is called from, so one function
can belong to different layers at different call sites (``split_bond`` is a
weight split when ``trainer`` calls it and part of a gate when
``coarsegrain`` does). An opaque span opens no child spans: the periodic
wrap gate owns its recompression sweep, and fine-graining owns the gates it
reuses from coarse-graining, so their time is not counted as data
coarse-graining. Counts are still taken inside opaque spans.

A layer's self time is its span time less the time of its child spans. The
phase root span's self time is the phase time no layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name, opaque); "Environment.x" patches a method.
SPANS = [
    ("cli", "resolve_config", "cli.config", False),
    ("cli", "compute_fingerprint", "cli.fingerprint", False),
    ("cli", "load_raw_datasets", "cli.load_raw", False),
    ("cli", "write_snapshot", "cli.write", False),
    ("cli", "save_mps", "cli.write", False),
    ("cli", "read_wav", "ingest.read", False),
    ("cli", "read_series_csv", "ingest.read", False),
    ("cli", "pad_to_pow2", "ingest.window", False),
    ("cli", "haar_preprocess", "ingest.window", False),
    ("cli", "make_windows", "ingest.window", False),
    ("cli", "fit_scaler", "ingest.encode", False),
    ("cli", "_encode_rows", "ingest.encode", False),
    ("cli", "coarse_grain_dataset", "coarsegrain.dataset", False),
    ("cli", "save_cache", "cache.save", False),
    ("cli", "read_cache_manifest", "cache.load", False),
    ("cli", "load_cache", "cache.load", False),
    ("cli", "train", "trainer.train", False),
    ("cli", "evaluate", "trainer.eval", False),
    ("cli", "fine_grain_weights", "finegrain.weights", True),
    ("coarsegrain", "_apply_gate_adjacent", "coarsegrain.adjacent", False),
    ("coarsegrain", "_apply_gate_straddling", "coarsegrain.wrap", True),
    ("coarsegrain", "apply_isometries", "coarsegrain.isometry", False),
    ("mps", "svd_split", "tensor.svd", False),
    ("trainer", "sweep", "trainer.sweep", False),
    ("trainer", "_cg_normal", "trainer.solve", False),
    ("trainer", "_window_cost", "trainer.solve", False),
    ("trainer", "canonicalize", "trainer.split", True),
    ("trainer", "merge_bond", "trainer.split", True),
    ("trainer", "split_bond", "trainer.split", True),
    ("trainer", "Environment.__init__", "trainer.env", False),
    ("trainer", "Environment.refresh_right", "trainer.env", False),
    ("trainer", "Environment.refresh_left", "trainer.env", False),
    ("trainer", "Environment.advance_left", "trainer.env", False),
    ("trainer", "Environment.advance_right", "trainer.env", False),
    ("trainer", "Environment.window_matrix", "trainer.window", False),
]

# Call counts: (module, attribute, count name). A bond update runs exactly
# one CG solve; it splits a second time when truncation raised its cost.
COUNTS = [
    ("numpy", "tensordot", "kernel.tensordot_calls"),
    ("numpy.linalg", "svd", "kernel.svd_calls"),
    ("numpy.linalg", "qr", "kernel.qr_calls"),
    ("wmera.mps", "MPS.__init__", "mps.states_built"),
    ("wmera.trainer", "_cg_normal", "trainer.bond_updates"),
    ("wmera.trainer", "split_bond", "trainer.splits"),
]


class Tracer:
    """In-memory span recorder with per-name self time and counters."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [id, name, start, child time, opaque]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, opaque: bool) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, time.perf_counter(), 0.0, opaque, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        self.self_time[frame[1]] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((frame[0], frame[5], frame[1], frame[2], end))

    @contextmanager
    def span(self, name: str):
        frame = self._open(name, False)
        try:
            yield
        finally:
            self._close(frame)

    def wrap_span(self, fn, name: str, opaque: bool, observe=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][4]:
                return fn(*args, **kwargs)
            frame = self._open(name, opaque)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def wrap_count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end in sorted(self.spans):
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _observe_cache(tracer: Tracer, cache) -> None:
    """Interior bond dimensions of every coarse-grained sample."""
    bonds = [c.shape[2] for sd in cache.scales[1:] for x in sd.samples for c in x.cores[:-1]]
    if bonds:
        values = tracer.values
        values["coarsegrain.max_bond"] = max(values["coarsegrain.max_bond"], max(bonds))
        values["bond_sum"] += sum(bonds)
        values["bond_count"] += len(bonds)


def _observe_finegrain(tracer: Tracer, result) -> None:
    tracer.values["finegrain.truncated_weight"] += result[1]


OBSERVE = {"coarse_grain_dataset": _observe_cache,
           "fine_grain_weights": _observe_finegrain}


def instrument(tracer: Tracer) -> None:
    """Patch every span and count site; ``tracer.restore()`` undoes it."""
    for module, attr, name in COUNTS:
        owner, leaf = _resolve(module, attr)
        tracer.patch(owner, leaf, tracer.wrap_count(getattr(owner, leaf), name))
    for module, attr, name, opaque in SPANS:
        owner, leaf = _resolve(f"wmera.{module}", attr)
        fn = getattr(owner, leaf)
        tracer.patch(owner, leaf, tracer.wrap_span(fn, name, opaque, OBSERVE.get(leaf)))

