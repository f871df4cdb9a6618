"""Command-line front end: preprocess, train, finegrain, eval, pipeline.

Configuration is a plain key = value file; the --threads, --seed, and
--output flags override it. Every command writes a resolved-config snapshot
next to its artifacts. WMERA_CACHE_DIR redirects the cache.

A cache is used when its manifests pass :func:`_built_manifests` and every
scale file they list matches its checksum; otherwise preprocess and pipeline
rebuild it, one split at a time, and train and eval refuse it. A command
holds only the scale it works on: train and eval load train[k], then
test[k] to score it, and finegrain reads the manifests alone.

finegrain and train each run one step, :func:`_finegrain_step` or
:func:`_train_step`, and pipeline is a loop over the two, coarsest first.
The train step keeps a scale's books: model, metrics lines, summary entry.
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
    CHI_DATA,
    DELTA_DATA,
    LAYER_REVISION,
    ScaleData,
    check_cache_files,
    coarse_grain_dataset,
    fine_grain_weights,
    load_cache,
    read_cache_manifest,
    save_cache,
)
from .errors import (ArgumentError, DataError, DimensionError, FormatError, StateError,
                     WmeraError)
from .ingest import (
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
from .trainer import TrainConfig, cost, evaluate, train
from .util import (_is_int, atomic_write, canonical_json, crc32_hex, make_dir, read_file,
                   read_json)
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
    fine_grain_to: int = 0
    delta_data: float = DELTA_DATA
    chi_data: int = CHI_DATA
    threads: int = 1
    train_base: TrainConfig = field(default_factory=TrainConfig)
    train_overrides: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.n_h2 <= 63 and 0 <= self.n_d4_layers <= 63):  # counts of halvings
            raise ArgumentError("n_h2 and n_d4_layers must lie in [0, 63]")
        if not 0 <= self.fine_grain_to <= self.n_d4_layers:
            raise ArgumentError(f"fine_grain_to must lie in [0, {self.n_d4_layers}]")
        if self.threads < 1:
            raise ArgumentError("threads must be >= 1")
        if self.delta_data < 0 or not 1 <= self.chi_data < 2**63:  # a bond extent is int64
            raise ArgumentError("delta_data must be >= 0 and chi_data in [1, 2**63)")
        if self.pad_to is not None and (self.pad_to < 4 or self.pad_to & (self.pad_to - 1)):
            raise ArgumentError(f"pad_to must be a power of two >= 4, got {self.pad_to}")
        for scale in self.train_overrides:  # checked before any scale trains
            if not 0 <= scale <= self.n_d4_layers:
                raise ArgumentError(f"per-scale settings for scale {scale}, "
                                    f"outside 0..{self.n_d4_layers}")
            try:
                self.train_config(scale)
            except ArgumentError as exc:
                raise ArgumentError(f"per-scale settings for scale {scale}: {exc}") from None

    def train_config(self, scale: int) -> TrainConfig:
        if scale in self.train_overrides:
            return replace(self.train_base, **self.train_overrides[scale])
        return self.train_base

    @property
    def cache_root(self) -> Path:
        env = os.environ.get(CACHE_ENV_VAR)
        return Path(env) if env else self.output / "cache"


def parse_kv_file(path) -> dict[str, str]:
    try:
        text = read_file(path, ArgumentError, f"config file not found: {path}", text=True)
    except FormatError as exc:  # every fault of the config file exits 2
        raise ArgumentError(str(exc)) from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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
        out = kind(value)
    except ValueError:
        raise ArgumentError(f"config key {key!r}: cannot parse {value!r} "
                            f"as {kind.__name__}") from None
    if kind is float and not np.isfinite(out):
        raise ArgumentError(f"config key {key!r}: {value!r} is not a finite number")
    return out


def resolve_config(args) -> PipelineConfig:
    raw = parse_kv_file(args.config)
    base_dir = Path(args.config).resolve().parent

    plain: dict[str, object] = {}
    train_kwargs: dict[str, object] = {}
    overrides: dict[int, dict] = {}
    for key, value in raw.items():
        name, at, scale_part = key.partition("@")
        if at:  # a per-scale key, even with no scale after the "@"
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
    manifest = read_json(path, ArgumentError, f"manifest not found: {path}")
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
        if not _is_int(manifest["p"]):
            raise FormatError(f"{path}: p must be an integer")
        fit_range = manifest["fit_range"]
        if not (isinstance(fit_range, list) and len(fit_range) == 2
                and all(_is_int(v) for v in fit_range)):
            raise FormatError(f"{path}: fit_range must be a list of two integers")
        lo, hi = fit_range
        if not 0 <= lo < hi:
            raise FormatError(f"{path}: fit_range must satisfy 0 <= lo < hi")
    else:
        raise FormatError(f"{path}: task must be 'classification' or 'regression'")
    return manifest


def _referenced_files(cfg: PipelineConfig) -> list[Path]:
    base = cfg.manifest_path.parent
    if cfg.task == "classification":
        return [base / entry["path"] for entry in cfg.manifest["samples"]]
    return [base / cfg.manifest["series"]]


def load_raw_datasets(cfg: PipelineConfig) -> tuple[tuple[np.ndarray, np.ndarray],
                                                     tuple[np.ndarray, np.ndarray]]:
    """Ingest, pad, and Haar-reduce the manifest's data into one
    (samples, sites) array and one label vector per split, train then test."""
    if cfg.task == "classification":
        entries = cfg.manifest["samples"]
        clips = [read_wav(path) for path in _referenced_files(cfg)]
        if cfg.pad_to is not None:
            clips = [pad_to_pow2(clip, cfg.pad_to) for clip in clips]
        if len({clip.size for clip in clips}) > 1:
            raise DimensionError("clips must share a length to be encoded together; "
                                 "set pad_to")
        rows = np.stack(clips)
        labels = np.array([float(entry["label"]) for entry in entries])
        train = np.array([entry.get("split", "train") == "train" for entry in entries])
    else:
        series = read_series_csv(_referenced_files(cfg)[0], column=cfg.manifest.get("column"))
        p = cfg.manifest["p"]
        lo, hi = cfg.manifest["fit_range"]
        rows, labels = make_windows(series, p)
        # training windows sit entirely inside the fit range; every other
        # start index is held out
        starts = np.arange(len(labels))
        train = (lo <= starts) & (starts + p <= hi)
    if not train.any():
        raise DataError("no training samples after applying the manifest split")
    values = haar_preprocess(rows, cfg.n_h2)
    return (values[train], labels[train]), (values[~train], labels[~train])


def compute_fingerprint(cfg: PipelineConfig) -> str:
    """CRC-32 of what a cache is built from: the program and layer revisions,
    the data settings, and each input file's byte length and CRC-32, so a
    changed input goes unseen only if it keeps both."""
    def length_and_crc(data: bytes) -> list:
        return [len(data), crc32_hex(data)]

    payload = {
        "version": __version__,
        "layer_revision": LAYER_REVISION,
        "manifest": length_and_crc(read_file(cfg.manifest_path, ArgumentError)),
        "files": [length_and_crc(read_file(p, DataError)) for p in _referenced_files(cfg)],
        "pad_to": cfg.pad_to,
        "n_h2": cfg.n_h2,
        "n_d4_layers": cfg.n_d4_layers,
        "delta_data": cfg.delta_data,
        "chi_data": cfg.chi_data,
    }
    return crc32_hex(canonical_json(payload).encode())


def _encode_rows(values: np.ndarray, scaler) -> MPSStack:
    """Scale every (samples, sites) row at once and encode them into one stack."""
    return encode_samples(apply_scaler(scaler, values))


def _built_manifests(cfg: PipelineConfig, fingerprint: str) -> dict[str, dict]:
    """Each split's cache manifest, read once: the manifest half of the one
    rule for whether a cache can be used (:func:`fresh_manifests` adds the
    checksums). Each is sound (else FormatError) and built for
    ``fingerprint`` with ``n_d4_layers + 1`` scales, and the test split is
    absent only when the train manifest counts it as empty (else StateError)."""
    manifests = {}
    for split in ("train", "test"):
        # a missing count (an older build) cannot tell a dropped test split from a lost one
        if split == "test" and manifests["train"].get("test_samples") == 0:
            break
        directory = cfg.cache_root / split
        manifest = read_cache_manifest(directory)
        if (manifest.get("fingerprint") != fingerprint
                or len(manifest["scales"]) != cfg.n_d4_layers + 1):
            raise StateError(f"the cache at {directory} was built from other data or "
                             "settings; run 'wmera preprocess' again")
        manifests[split] = manifest
    return manifests


def fresh_manifests(cfg: PipelineConfig, fingerprint: str) -> dict[str, dict]:
    """The manifests :func:`_built_manifests` accepts, once every scale file
    they list matches its checksum; train and eval report the errors this
    raises, preprocess and pipeline rebuild."""
    manifests = _built_manifests(cfg, fingerprint)
    for split, manifest in manifests.items():
        check_cache_files(cfg.cache_root / split, manifest)
    return manifests


def ensure_cache(cfg: PipelineConfig) -> dict[str, dict]:
    """The manifests of a fresh preprocessing cache, rebuilding it whenever
    train and eval would refuse it. A build coarse-grains, saves and drops
    one split at a time, and makes every split's directory before it
    encodes any."""
    fingerprint = compute_fingerprint(cfg)
    root = cfg.cache_root
    try:
        manifests = fresh_manifests(cfg, fingerprint)
    except (StateError, FormatError, DataError):
        pass
    else:
        print(f"cache up to date at {root}")
        return manifests

    print(f"building cache at {root}")
    splits = dict(zip(("train", "test"), load_raw_datasets(cfg)))
    for split, (_, labels) in splits.items():
        if len(labels):
            make_dir(root / split)
        elif (root / split).exists():
            shutil.rmtree(root / split)  # a split the manifest no longer has
    scaler = fit_scaler(splits["train"][0])
    manifests = {}
    for split, (values, labels) in splits.items():
        if len(labels):
            cache = coarse_grain_dataset(_encode_rows(values, scaler), labels,
                                         cfg.n_d4_layers, cfg.delta_data, cfg.chi_data)
            manifests[split] = save_cache(cache, root / split, fingerprint,
                                          len(splits["test"][1]) if split == "train" else None)
            del cache  # dropped before the next split is encoded
    return manifests


def write_snapshot(cfg: PipelineConfig) -> None:
    """Resolved configuration, one sorted key = value per line."""
    make_dir(cfg.output)
    entries = {key: getattr(cfg, key) for key in _PIPELINE_KEYS}
    entries.update(manifest=cfg.manifest_path, task=cfg.task, version=__version__)
    for name, value in asdict(cfg.train_base).items():
        entries[_train_key(name)] = value
    for scale, kwargs in sorted(cfg.train_overrides.items()):
        for name, value in kwargs.items():
            entries[f"{_train_key(name)}@{scale}"] = value
    lines = [f"{k} = {entries[k]}" for k in sorted(entries)]
    with atomic_write(cfg.output / "config.snapshot", text=True) as f:
        f.write("\n".join(lines) + "\n")


def _scale_records(path: Path) -> list[dict]:
    """The records of output file ``path``, each of one scale: the lines of
    ``metrics.jsonl`` or the entries of ``summary.json``, none before the
    file is first written."""
    text = read_file(path, None, text=True)
    try:
        if text is None:
            records = []
        elif path.name == "summary.json":
            records = json.loads(text)["scales"]
        else:
            records = [json.loads(line) for line in text.splitlines()]
        if not all(_is_int(r["scale"]) for r in records):
            raise TypeError("a scale is not an integer")
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: unreadable {path.stem} record ({exc})") from exc
    return records


def _replace_scale(cfg: PipelineConfig, name: str, scale: int, new: list[dict]) -> None:
    """Swap the records of ``scale`` in output file ``name`` for ``new`` and
    keep every other scale's, coarsest first; the file is replaced whole, so
    a crash leaves the old one."""
    path = cfg.output / name
    records = sorted([r for r in _scale_records(path) if r["scale"] != scale] + new,
                     key=lambda r: r["scale"], reverse=True)
    with atomic_write(path, text=True) as f:
        if name == "summary.json":
            f.write(json.dumps({"task": cfg.task, "scales": records},
                               sort_keys=True, indent=1) + "\n")
        else:
            f.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _model_path(cfg: PipelineConfig, scale: int) -> Path:
    return cfg.output / f"model_scale{scale}.mps"


def _scale(cfg: PipelineConfig, args) -> int:
    """The --scale of train, finegrain and eval, the coarsest by default;
    one the cache has no scale for is an ArgumentError."""
    scale = cfg.n_d4_layers if args.scale is None else args.scale
    if not 0 <= scale <= cfg.n_d4_layers:
        raise ArgumentError(f"scale {scale} not in cache (0..{cfg.n_d4_layers})")
    return scale


def _finegrain_step(cfg: PipelineConfig, w: MPS, scale: int) -> tuple[MPS, float]:
    """Project weights trained on ``scale`` one scale finer, truncated with
    the finer scale's settings, and open the finer scale's metrics with the
    fine-grain record; its cost before is the last sweep cost of ``scale``,
    None when the metrics hold none. Returns the warm start and the
    truncated weight."""
    costs = [r.get("cost") for r in _scale_records(cfg.output / "metrics.jsonl")
             if r["scale"] == scale and "sweep" in r]
    tc = cfg.train_config(scale - 1)
    fine, err = fine_grain_weights(w, build_daub4_layer(2 * len(w)), tc.delta_weights,
                                   tc.chi_max)
    _replace_scale(cfg, "metrics.jsonl", scale - 1, [{
        "scale": scale - 1, "finegrain_from": scale, "truncated_weight": err,
        "cost_before": costs[-1] if costs else None}])
    return fine, err


def _train_step(cfg: PipelineConfig, manifests: dict[str, dict], scale: int,
                w0: MPS | None = None) -> MPS:
    """Train ``scale`` from ``w0`` (a seeded random start when None), then
    save its model, replace its metrics lines and summary entry, and print
    its line. A warm start keeps the fine-grain record that opened the
    scale's metrics, if any, and adds the train cost after fine-graining:
    with the coarse ridge term, as the cost before, so equal to it when
    nothing was truncated."""
    data = load_cache(cfg.cache_root / "train", manifests["train"], scale)
    records = [{**r, "cost_after": cost(w0, data, cfg.train_config(scale + 1).lam)}
               for r in _scale_records(cfg.output / "metrics.jsonl")
               if r["scale"] == scale and "finegrain_from" in r and w0 is not None]
    tc = cfg.train_config(scale)
    w, stats = train(data, tc, w0=w0, task=cfg.task)
    _replace_scale(cfg, "metrics.jsonl", scale,
                   records + [{"scale": scale, **asdict(st)} for st in stats])
    model = _model_path(cfg, scale)
    save_mps(model, w)
    report = _eval_report(cfg, w, scale, data, manifests)
    report.update(final_cost=stats[-1].cost, model_file=model.name)
    _replace_scale(cfg, "summary.json", scale, [report])
    scores = "".join(f", {key} {report[key]:.6g}" for key in ("train_metric", "test_metric")
                     if report[key] is not None)
    print(f"scale {scale}: cost {stats[-1].cost:.6g}{scores} -> {model}, "
          f"{len(stats)} of {tc.n_sweeps} sweeps")
    return w


def cmd_preprocess(cfg: PipelineConfig, args) -> None:
    manifests = ensure_cache(cfg)
    scales = manifests["train"]["scales"]
    print(f"train: {scales[0]['n_samples']} samples, "
          f"scale widths {[meta['n_sites'] for meta in scales]}")
    if "test" in manifests:
        print(f"test: {manifests['test']['scales'][0]['n_samples']} samples")


def cmd_train(cfg: PipelineConfig, args) -> None:
    scale = _scale(cfg, args)
    manifests = fresh_manifests(cfg, compute_fingerprint(cfg))
    _train_step(cfg, manifests, scale, None if args.init is None else load_mps(args.init))


def cmd_finegrain(cfg: PipelineConfig, args) -> None:
    scale = _scale(cfg, args)
    if scale < 1:
        raise ArgumentError("finegrain needs --scale >= 1")
    train = _built_manifests(cfg, compute_fingerprint(cfg))["train"]
    w, width = load_mps(_model_path(cfg, scale)), train["scales"][scale]["n_sites"]
    if len(w) != width:
        raise DimensionError(f"weights cover {len(w)} sites, scale {scale} has {width}")
    fine, err = _finegrain_step(cfg, w, scale)
    target = cfg.output / f"model_scale{scale - 1}.init.mps"
    save_mps(target, fine)
    print(f"scale {scale} -> {scale - 1}: truncated weight {err:.3g} -> {target}")


def cmd_eval(cfg: PipelineConfig, args) -> None:
    scale = _scale(cfg, args)
    manifests = fresh_manifests(cfg, compute_fingerprint(cfg))
    w = load_mps(_model_path(cfg, scale))
    data = load_cache(cfg.cache_root / "train", manifests["train"], scale)
    report = _eval_report(cfg, w, scale, data, manifests)
    with atomic_write(cfg.output / f"eval_scale{scale}.json", text=True) as f:
        f.write(json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(json.dumps(report, sort_keys=True))


def _eval_report(cfg, w, scale, data: ScaleData, manifests: dict[str, dict]) -> dict:
    """Metrics of ``w`` on the train scale ``data`` and on the same scale of
    the test split, if any, which is loaded here and dropped on return."""
    test = (load_cache(cfg.cache_root / "test", manifests["test"], scale)
            if "test" in manifests else None)
    return {
        "task": cfg.task,
        "scale": scale,
        "n_sites": data.n_sites,
        "train_metric": evaluate(w, data, cfg.task),
        "test_metric": evaluate(w, test, cfg.task) if test is not None else None,
    }


def cmd_pipeline(cfg: PipelineConfig, args) -> None:
    manifests = ensure_cache(cfg)
    w = None
    for scale in range(cfg.n_d4_layers, cfg.fine_grain_to - 1, -1):
        if w is not None:
            w, _ = _finegrain_step(cfg, w, scale + 1)
        w = _train_step(cfg, manifests, scale, w)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmera",
        description="Multi-scale tensor-network learning over wavelet-coarse-grained signals.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in [
        (cmd_preprocess, "encode and coarse-grain the manifest's data into the cache"),
        (cmd_train, "train the weight chain at one scale"),
        (cmd_finegrain, "project a trained model one scale finer"),
        (cmd_eval, "evaluate a trained model on the cached splits"),
        (cmd_pipeline, "preprocess, then train from coarsest down to fine_grain_to"),
    ]:
        name = command.__name__.removeprefix("cmd_")
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=command)
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
        write_snapshot(cfg)
        args.run(cfg, args)
    except WmeraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
