"""Command-line front end: preprocess, train, finegrain, eval, pipeline.

Configuration is a plain key = value file; the --threads, --seed, and
--output flags override it. Every command writes a resolved-config snapshot
next to its artifacts, and metrics are JSON lines with one object per sweep.
Cache location can be redirected with the WMERA_CACHE_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .coarsegrain import (
    ScaleCache,
    coarse_grain_dataset,
    load_cache,
    read_cache_manifest,
    save_cache,
)
from .errors import (ArgumentError, DataError, DimensionError, FormatError, StateError,
                     WmeraError)
from .finegrain import fine_grain_weights
from .ingest import (
    RawSample,
    apply_scaler,
    encode_samples,
    fit_scaler,
    haar_preprocess,
    make_windows,
    pad_to_pow2,
    read_series_csv,
    read_wav,
)
from .mps import MPS, MPSStack, load_mps, save_mps
from .trainer import TrainConfig, evaluate, train
from .util import canonical_json, sha256_file, sha256_hex
from .wavelet import build_daub4_layer

CACHE_ENV_VAR = "WMERA_CACHE_DIR"


def _train_key(name: str) -> str:
    """Configuration key of a TrainConfig field; the ridge term is 'lambda'."""
    return "lambda" if name == "lam" else name


# configuration key -> (TrainConfig field, value type)
_TRAIN_KEYS = {_train_key(f.name): (f.name, type(f.default)) for f in fields(TrainConfig)}

_PIPELINE_KEYS = {
    "manifest": str,
    "output": str,
    "pad_to": int,
    "n_h2": int,
    "n_d4_layers": int,
    "fine_grain_to": int,
    "delta_data": float,
    "chi_data": int,
    "threads": int,
}


@dataclass
class PipelineConfig:
    """Everything a run needs, resolved from file plus flags."""

    manifest_path: Path
    output: Path
    task: str
    manifest: dict
    pad_to: int | None = None
    n_h2: int = 0
    n_d4_layers: int = 1
    fine_grain_to: int | None = None
    delta_data: float = 1e-12
    chi_data: int = 16
    threads: int = 1
    train_base: TrainConfig = field(default_factory=TrainConfig)
    train_overrides: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        if self.fine_grain_to is None:
            self.fine_grain_to = 0  # descend through every scale by default
        if self.n_h2 < 0 or self.n_d4_layers < 0:
            raise ArgumentError("n_h2 and n_d4_layers must be >= 0")
        if not 0 <= self.fine_grain_to <= self.n_d4_layers:
            raise ArgumentError(f"fine_grain_to must lie in [0, {self.n_d4_layers}]")
        if self.threads < 1:
            raise ArgumentError("threads must be >= 1")
        if self.delta_data < 0 or self.chi_data < 1:
            raise ArgumentError("delta_data must be >= 0 and chi_data >= 1")
        if self.pad_to is not None and (self.pad_to < 4 or self.pad_to & (self.pad_to - 1)):
            raise ArgumentError(f"pad_to must be a power of two >= 4, got {self.pad_to}")

    def train_config(self, scale: int) -> TrainConfig:
        if scale in self.train_overrides:
            return replace(self.train_base, **self.train_overrides[scale])
        return self.train_base

    @property
    def cache_root(self) -> Path:
        env = os.environ.get(CACHE_ENV_VAR)
        return Path(env) if env else self.output / "cache"


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ArgumentError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _convert(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ArgumentError(f"config key {key!r}: cannot parse {value!r} "
                            f"as {kind.__name__}") from None


def resolve_config(args) -> PipelineConfig:
    raw = parse_kv_file(args.config)
    base_dir = Path(args.config).resolve().parent

    plain: dict[str, object] = {}
    train_kwargs: dict[str, object] = {}
    overrides: dict[int, dict] = {}
    for key, value in raw.items():
        name, _, scale_part = key.partition("@")
        if scale_part:
            if name not in _TRAIN_KEYS:
                raise ArgumentError(f"unknown per-scale configuration key {key!r}")
            target = overrides.setdefault(_convert(key, scale_part, int), {})
        elif name in _TRAIN_KEYS:
            target = train_kwargs
        elif name in _PIPELINE_KEYS:
            plain[name] = _convert(key, value, _PIPELINE_KEYS[name])
            continue
        else:
            raise ArgumentError(f"unknown configuration key {name!r}")
        field_name, kind = _TRAIN_KEYS[name]
        target[field_name] = _convert(key, value, kind)

    if getattr(args, "seed", None) is not None:
        train_kwargs["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        plain["threads"] = args.threads
    if getattr(args, "output", None) is not None:
        plain["output"] = args.output
    if "manifest" not in plain:
        raise ArgumentError("configuration must set 'manifest'")
    if "output" not in plain:
        raise ArgumentError("configuration must set 'output' (or pass --output)")

    manifest_path = (base_dir / str(plain.pop("manifest"))).resolve()
    output = Path(str(plain.pop("output")))
    if not output.is_absolute():
        output = (base_dir / output).resolve()
    manifest = _load_manifest(manifest_path)
    return PipelineConfig(
        manifest_path=manifest_path,
        output=output,
        task=manifest["task"],
        manifest=manifest,
        train_base=TrainConfig(**train_kwargs),
        train_overrides=overrides,
        **plain,
    )


def _load_manifest(path: Path) -> dict:
    if not path.is_file():
        raise ArgumentError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    task = manifest.get("task")
    if task == "classification":
        samples = manifest.get("samples")
        if not isinstance(samples, list) or not samples:
            raise FormatError(f"{path}: classification manifest needs a 'samples' list")
        for i, entry in enumerate(samples):
            if not isinstance(entry, dict) or "path" not in entry or "label" not in entry:
                raise FormatError(f"{path}: sample {i} needs 'path' and 'label'")
            if not isinstance(entry["path"], str):
                raise FormatError(f"{path}: sample {i} path must be a string")
            if isinstance(entry["label"], bool) or entry["label"] not in (-1, 1):
                raise DataError(f"{path}: sample {i} label must be +1 or -1")
            if entry.get("split", "train") not in ("train", "test"):
                raise FormatError(f"{path}: sample {i} split must be 'train' or 'test'")
    elif task == "regression":
        for key in ("series", "p", "fit_range"):
            if key not in manifest:
                raise FormatError(f"{path}: regression manifest needs {key!r}")
        if not isinstance(manifest["series"], str):
            raise FormatError(f"{path}: series must be a file name")
        if not isinstance(manifest.get("column", ""), (str, type(None))):
            raise FormatError(f"{path}: column must be a column name")
        # exact type tests: JSON integers load as int, true/false as bool
        if type(manifest["p"]) is not int:
            raise FormatError(f"{path}: p must be an integer")
        fit_range = manifest["fit_range"]
        if not (isinstance(fit_range, list) and len(fit_range) == 2
                and all(type(v) is int for v in fit_range)):
            raise FormatError(f"{path}: fit_range must be a list of two integers")
        lo, hi = fit_range
        if not 0 <= lo < hi:
            raise FormatError(f"{path}: fit_range must satisfy 0 <= lo < hi")
    else:
        raise FormatError(f"{path}: task must be 'classification' or 'regression'")
    return manifest


def _read_series_file(path: Path) -> np.ndarray:
    if path.suffix.lower() == ".wav":
        return read_wav(path)
    if path.suffix.lower() == ".csv":
        return read_series_csv(path)
    raise FormatError(f"{path}: unsupported sample format {path.suffix!r}")


def _referenced_files(cfg: PipelineConfig) -> list[Path]:
    base = cfg.manifest_path.parent
    if cfg.task == "classification":
        return [base / entry["path"] for entry in cfg.manifest["samples"]]
    return [base / cfg.manifest["series"]]


def load_raw_datasets(cfg: PipelineConfig) -> tuple[list[RawSample], list[RawSample]]:
    """Ingest, pad, and Haar-reduce the manifest's data into train/test lists."""
    train_rows: list[RawSample] = []
    test_rows: list[RawSample] = []
    base = cfg.manifest_path.parent
    if cfg.task == "classification":
        for entry in cfg.manifest["samples"]:
            path = base / entry["path"]
            values = _read_series_file(path)
            if cfg.pad_to is not None:
                values = pad_to_pow2(values, cfg.pad_to)
            values = haar_preprocess(values, cfg.n_h2)
            row = RawSample(values, float(entry["label"]), entry["path"])
            (test_rows if entry.get("split", "train") == "test" else train_rows).append(row)
    else:
        series = read_series_csv(base / cfg.manifest["series"],
                                 column=cfg.manifest.get("column"))
        p = cfg.manifest["p"]
        lo, hi = cfg.manifest["fit_range"]
        windows = make_windows(series, p, source_id=Path(cfg.manifest["series"]).stem)
        for start, row in enumerate(windows):
            values = haar_preprocess(row.values, cfg.n_h2)
            row = RawSample(values, row.label, row.source_id)
            # training windows sit entirely inside the fit range; every other
            # start index is held out
            (train_rows if lo <= start and start + p <= hi else test_rows).append(row)
    if not train_rows:
        raise DataError("no training samples after applying the manifest split")
    return train_rows, test_rows


def compute_fingerprint(cfg: PipelineConfig) -> str:
    payload = {
        "version": __version__,
        "manifest_sha256": sha256_file(cfg.manifest_path),
        "files": [sha256_file(p) for p in _referenced_files(cfg)],
        "pad_to": cfg.pad_to,
        "n_h2": cfg.n_h2,
        "n_d4_layers": cfg.n_d4_layers,
        "delta_data": cfg.delta_data,
        "chi_data": cfg.chi_data,
    }
    return sha256_hex(canonical_json(payload).encode())


def _encode_rows(rows: list[RawSample], scaler) -> tuple[MPSStack, np.ndarray]:
    """Scale and encode every row at once into one stack, with the labels."""
    if len({r.values.size for r in rows}) > 1:
        raise DimensionError("samples at one scale must share a length")
    values = apply_scaler(scaler, np.stack([r.values for r in rows]))
    return encode_samples(values), np.array([r.label for r in rows])


def load_built_caches(cfg: PipelineConfig,
                      fingerprint: str) -> tuple[ScaleCache, ScaleCache | None]:
    """The train and test caches built for ``fingerprint``.

    The one rule for whether a cache can be used: each split's manifest, read
    once, is sound and built for ``fingerprint``, and the test split is absent
    only when the train manifest counts it as empty. Train and eval report the
    StateError, FormatError or DataError it raises; preprocess and pipeline
    rebuild on it.
    """
    def load(split: str) -> ScaleCache:
        directory = cfg.cache_root / split
        try:
            manifest = read_cache_manifest(directory)
        except StateError:  # absent, or an unfinished build
            raise StateError(f"no preprocessing cache at {directory}; "
                             "run 'wmera preprocess' first") from None
        if manifest.get("fingerprint") != fingerprint:
            raise StateError(f"the cache at {directory} was built from other data or "
                             "settings; run 'wmera preprocess' again")
        return load_cache(directory, manifest)

    train = load("train")
    # a missing count (an older build) cannot tell a dropped test split from a lost one
    return train, load("test") if train.test_samples != 0 else None


def ensure_cache(cfg: PipelineConfig, log=print) -> tuple[ScaleCache, ScaleCache | None]:
    """Load the preprocessing cache, rebuilding it whenever train and eval
    would refuse it."""
    fingerprint = compute_fingerprint(cfg)
    root = cfg.cache_root
    try:
        caches = load_built_caches(cfg, fingerprint)
    except (StateError, FormatError, DataError):
        pass
    else:
        log(f"cache up to date at {root}")
        return caches

    log(f"building cache at {root}")
    train_rows, test_rows = load_raw_datasets(cfg)
    scaler = fit_scaler(train_rows)
    caches = {"train": None, "test": None}
    for split, rows in (("train", train_rows), ("test", test_rows)):
        if rows:
            stack, labels = _encode_rows(rows, scaler)
            caches[split] = coarse_grain_dataset(stack, labels, cfg.n_d4_layers,
                                                 cfg.delta_data, cfg.chi_data,
                                                 fingerprint=fingerprint)
            if split == "train":
                caches[split].test_samples = len(test_rows)
            save_cache(caches[split], root / split)
        elif (root / split).exists():
            shutil.rmtree(root / split)  # a split the manifest no longer has
    return caches["train"], caches["test"]


def write_snapshot(cfg: PipelineConfig, extra: dict | None = None) -> None:
    """Resolved configuration, one sorted key = value per line."""
    cfg.output.mkdir(parents=True, exist_ok=True)
    entries = {
        "manifest": str(cfg.manifest_path),
        "output": str(cfg.output),
        "task": cfg.task,
        "pad_to": cfg.pad_to,
        "n_h2": cfg.n_h2,
        "n_d4_layers": cfg.n_d4_layers,
        "fine_grain_to": cfg.fine_grain_to,
        "delta_data": cfg.delta_data,
        "chi_data": cfg.chi_data,
        "threads": cfg.threads,
        "version": __version__,
    }
    for name, value in asdict(cfg.train_base).items():
        entries[_train_key(name)] = value
    for scale, kwargs in sorted(cfg.train_overrides.items()):
        for name, value in kwargs.items():
            entries[f"{_train_key(name)}@{scale}"] = value
    if extra:
        entries.update(extra)
    lines = [f"{k} = {entries[k]}" for k in sorted(entries)]
    (cfg.output / "config.snapshot").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _metric_lines(scale: int, stats_list) -> str:
    """One JSON line per sweep; deterministic fields only, no wall times."""
    return "".join(json.dumps({
        "scale": scale,
        "sweep": st.sweep_index,
        "cost": st.cost,
        "max_bond": st.max_bond,
        "train_metric": st.train_metric,
        "truncated_weight": st.truncated_weight,
        "rollbacks": st.rollbacks,
        "cg_iters": st.cg_iters,
    }, sort_keys=True) + "\n" for st in stats_list)


def _replace_scale_metrics(path: Path, scale: int, stats_list) -> None:
    """Swap the records of ``scale`` in ``path`` for new ones and keep every
    other scale's; the file is replaced whole, so a crash leaves the old one."""
    kept = ""
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                old = json.loads(line)["scale"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}: unreadable metrics record ({exc})") from exc
            if old != scale:
                kept += line + "\n"
    partial = path.with_name(path.name + ".partial")
    partial.write_text(kept + _metric_lines(scale, stats_list), encoding="utf-8")
    os.replace(partial, path)


def _model_path(cfg: PipelineConfig, scale: int, init: bool = False) -> Path:
    suffix = ".init.mps" if init else ".mps"
    return cfg.output / f"model_scale{scale}{suffix}"


def _fine_grain(cfg: PipelineConfig, w: MPS, scale: int) -> tuple[MPS, float]:
    """Project weights one scale finer, onto ``scale``, truncating with that
    scale's training settings; returns the weights and the truncated weight."""
    tc = cfg.train_config(scale)
    return fine_grain_weights(w, build_daub4_layer(2 * len(w)), tc.delta_weights, tc.chi_max)


def cmd_preprocess(cfg: PipelineConfig, args) -> int:
    write_snapshot(cfg)
    train_cache, test_cache = ensure_cache(cfg)
    widths = [sd.n_sites for sd in train_cache.scales]
    print(f"train: {train_cache.scales[0].n_samples} samples, scale widths {widths}")
    if test_cache is not None:
        print(f"test: {test_cache.scales[0].n_samples} samples")
    return 0


def cmd_train(cfg: PipelineConfig, args) -> int:
    write_snapshot(cfg)
    train_cache, _ = load_built_caches(cfg, compute_fingerprint(cfg))
    scale = cfg.n_d4_layers if args.scale is None else args.scale
    if not 0 <= scale < train_cache.n_scales:
        raise ArgumentError(f"scale {scale} not in cache (0..{train_cache.n_scales - 1})")
    w0 = None
    if args.init is not None:
        w0 = load_mps(args.init)
    w, stats = train(train_cache.scales[scale], cfg.train_config(scale), w0=w0, task=cfg.task)
    _replace_scale_metrics(cfg.output / "metrics.jsonl", scale, stats)
    save_mps(_model_path(cfg, scale), w)
    print(f"scale {scale}: cost {stats[-1].cost:.6g}, "
          f"train_metric {stats[-1].train_metric:.6g} -> {_model_path(cfg, scale)}")
    return 0


def cmd_finegrain(cfg: PipelineConfig, args) -> int:
    write_snapshot(cfg)
    scale = cfg.n_d4_layers if args.scale is None else args.scale
    if scale < 1:
        raise ArgumentError("finegrain needs --scale >= 1")
    source = _model_path(cfg, scale)
    if not source.is_file():
        raise StateError(f"no trained model at {source}; run 'wmera train' first")
    fine, err = _fine_grain(cfg, load_mps(source), scale - 1)
    target = _model_path(cfg, scale - 1, init=True)
    save_mps(target, fine)
    print(f"scale {scale} -> {scale - 1}: truncated weight {err:.3g} -> {target}")
    return 0


def cmd_eval(cfg: PipelineConfig, args) -> int:
    write_snapshot(cfg)
    train_cache, test_cache = load_built_caches(cfg, compute_fingerprint(cfg))
    scale = cfg.n_d4_layers if args.scale is None else args.scale
    path = _model_path(cfg, scale)
    if not path.is_file():
        raise StateError(f"no trained model at {path}; run 'wmera train' first")
    w = load_mps(path)
    report = _eval_report(cfg, w, scale, train_cache, test_cache)
    out = cfg.output / f"eval_scale{scale}.json"
    out.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    return 0


def _eval_report(cfg, w, scale, train_cache, test_cache) -> dict:
    return {
        "task": cfg.task,
        "scale": scale,
        "n_sites": train_cache.scales[scale].n_sites,
        "train_metric": evaluate(w, train_cache.scales[scale], cfg.task),
        "test_metric": (evaluate(w, test_cache.scales[scale], cfg.task)
                        if test_cache is not None else None),
    }


def cmd_pipeline(cfg: PipelineConfig, args) -> int:
    write_snapshot(cfg)
    train_cache, test_cache = ensure_cache(cfg)
    summary = []
    w = None
    for scale in range(cfg.n_d4_layers, cfg.fine_grain_to - 1, -1):
        if w is not None:
            w, _ = _fine_grain(cfg, w, scale)
        w, stats = train(train_cache.scales[scale], cfg.train_config(scale), w0=w,
                         task=cfg.task)
        _replace_scale_metrics(cfg.output / "metrics.jsonl", scale, stats)
        save_mps(_model_path(cfg, scale), w)
        report = _eval_report(cfg, w, scale, train_cache, test_cache)
        report["final_cost"] = stats[-1].cost
        report["model_file"] = _model_path(cfg, scale).name
        summary.append(report)
        print(f"scale {scale}: train_metric {report['train_metric']:.6g}"
              + (f", test_metric {report['test_metric']:.6g}"
                 if report["test_metric"] is not None else ""))
    payload = {"task": cfg.task, "scales": summary}
    (cfg.output / "summary.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "finegrain": cmd_finegrain,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmera",
        description="Multi-scale tensor-network learning over wavelet-coarse-grained signals.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("preprocess", "encode and coarse-grain the manifest's data into the cache"),
        ("train", "train the weight chain at one scale"),
        ("finegrain", "project a trained model one scale finer"),
        ("eval", "evaluate a trained model on the cached splits"),
        ("pipeline", "preprocess, then train from coarsest down to fine_grain_to"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value configuration file")
        p.add_argument("--output", help="override the output directory")
        p.add_argument("--threads", type=int,
                       help="accepted and recorded in config.snapshot; no longer "
                            "changes any work (training is batched over samples)")
        p.add_argument("--seed", type=int, help="override the training seed")
        if name in ("train", "finegrain", "eval"):
            p.add_argument("--scale", type=int, help="scale index (default: coarsest)")
        if name == "train":
            p.add_argument("--init", help="warm-start model file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except WmeraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
