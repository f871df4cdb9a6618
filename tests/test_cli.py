"""Command-line front end: config resolution, caching, commands, exit codes."""

import collections
import functools
import json
import operator
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wmera.cli
import wmera.coarsegrain
import wmera.mps
from wmera.cli import CACHE_ENV_VAR, build_parser, main, parse_kv_file, resolve_config
from wmera.coarsegrain import load_cache
from wmera.errors import ArgumentError, StateError
from wmera.mps import MPS, load_mps, save_mps


def write_wav(path, values):
    """Mono PCM16 file from float values in [-1, 1]."""
    pcm = np.clip(np.asarray(values) * 32767, -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    chunks = (b"fmt " + struct.pack("<I", 16) + fmt
              + b"data" + struct.pack("<I", len(pcm)) + pcm)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


CLASS_CONFIG = """\
# toy two-class run
manifest = manifest.json
output = out
pad_to = 16
n_h2 = 1
n_d4_layers = 1
delta_data = 1e-12
chi_data = 8
n_sweeps = 3
chi_max = 4
cg_max_iters = 20
seed = 5
"""


def classification_workspace(tmp_path, n_train=12, n_test=6, length=16):
    """WAV files whose mean separates the classes, plus manifest and config."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    data.mkdir()
    samples = []
    for i in range(n_train + n_test):
        label = 1 if i % 2 == 0 else -1
        base = 0.75 if label == 1 else 0.25
        name = f"s{i:02d}.wav"
        write_wav(data / name, base + 0.01 * rng.standard_normal(length))
        samples.append({"path": f"data/{name}", "label": label,
                        "split": "train" if i < n_train else "test"})
    (tmp_path / "manifest.json").write_text(
        json.dumps({"task": "classification", "samples": samples}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLASS_CONFIG)
    return cfg


def regression_workspace(tmp_path):
    t = np.arange(48.0)
    series = np.sin(2 * np.pi * t / 12.0)
    (tmp_path / "series.csv").write_text(
        "\n".join(f"{v:.6f}" for v in series) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"task": "regression", "series": "series.csv", "p": 16,
         "fit_range": [8, 40]}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("manifest = manifest.json\noutput = out\n"
                   "n_h2 = 2\nn_d4_layers = 1\nchi_data = 8\n"
                   "n_sweeps = 3\nchi_max = 4\nseed = 7\n")
    return cfg


class TestParseKvFile:
    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n a = 1 \n\nb= two # trailing\n")
        assert parse_kv_file(p) == {"a": "1", "b": "two"}

    def test_missing_equals_names_the_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\nnonsense\n")
        with pytest.raises(ArgumentError, match="line 2"):
            parse_kv_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArgumentError, match="not found"):
            parse_kv_file(tmp_path / "absent.cfg")


class TestResolveConfig:
    def args_for(self, cfg_path, *extra):
        return build_parser().parse_args(
            ["train", "--config", str(cfg_path), *extra])

    def test_full_resolution(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg = resolve_config(self.args_for(cfg_path))
        assert cfg.task == "classification"
        assert cfg.pad_to == 16 and cfg.n_h2 == 1 and cfg.n_d4_layers == 1
        assert cfg.train_base.n_sweeps == 3
        assert cfg.train_base.chi_max == 4
        assert cfg.output == tmp_path / "out"
        assert cfg.manifest_path == tmp_path / "manifest.json"

    def test_flags_override_file(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg = resolve_config(self.args_for(
            cfg_path, "--seed", "11", "--threads", "2",
            "--output", str(tmp_path / "elsewhere")))
        assert cfg.train_base.seed == 11
        assert cfg.threads == 2
        assert cfg.output == tmp_path / "elsewhere"

    def test_lambda_spelling(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG + "lambda = 0.25\n")
        cfg = resolve_config(self.args_for(cfg_path))
        assert cfg.train_base.lam == 0.25

    def test_per_scale_override(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG + "chi_max@0 = 2\nn_sweeps@0 = 1\n")
        cfg = resolve_config(self.args_for(cfg_path))
        assert cfg.train_config(0).chi_max == 2
        assert cfg.train_config(0).n_sweeps == 1
        assert cfg.train_config(1).chi_max == 4

    def test_unknown_key_is_rejected(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG + "mystery = 3\n")
        with pytest.raises(ArgumentError, match="unknown configuration key"):
            resolve_config(self.args_for(cfg_path))

    def test_unknown_per_scale_key_is_rejected(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG + "pad_to@1 = 8\n")
        with pytest.raises(ArgumentError, match="per-scale"):
            resolve_config(self.args_for(cfg_path))

    def test_unparsable_value_is_rejected(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG.replace("chi_max = 4", "chi_max = lots"))
        with pytest.raises(ArgumentError, match="cannot parse"):
            resolve_config(self.args_for(cfg_path))

    def test_manifest_is_required(self, tmp_path):
        cfg_path = tmp_path / "bare.cfg"
        cfg_path.write_text("output = out\n")
        with pytest.raises(ArgumentError, match="manifest"):
            resolve_config(self.args_for(cfg_path))


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG + "bogus = 1\n")
        assert run_cli("preprocess", "--config", cfg_path) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_manifest_exits_3(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        (tmp_path / "manifest.json").write_text("{not json")
        assert run_cli("preprocess", "--config", cfg_path) == 3

    def test_bad_label_exits_3(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["samples"][0]["label"] = 2
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("preprocess", "--config", cfg_path) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workspace, mutate", [
        (classification_workspace, lambda m: m["samples"][0].update(label="x")),
        (classification_workspace, lambda m: m["samples"].__setitem__(0, "path and label")),
        (classification_workspace, lambda m: m["samples"][0].update(path=7)),
        (classification_workspace, lambda m: [m]),
        (regression_workspace, lambda m: m.update(fit_range=[5])),
        (regression_workspace, lambda m: m.update(fit_range=[8, "40"])),
        (regression_workspace, lambda m: m.update(p="abc")),
        (regression_workspace, lambda m: m.update(series=["series.csv"])),
        (regression_workspace, lambda m: m.update(column=0)),
    ], ids=["label-not-a-number", "sample-is-a-string", "path-not-a-string",
            "top-level-list", "fit-range-of-one", "fit-range-of-strings",
            "p-not-a-number", "series-not-a-string", "column-not-a-string"])
    def test_mistyped_manifest_field_exits_3(self, tmp_path, capsys, workspace, mutate):
        cfg_path = workspace(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        replaced = mutate(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(
            manifest if replaced is None else replaced))
        assert run_cli("preprocess", "--config", cfg_path) == 3
        assert "error:" in capsys.readouterr().err

    def test_clips_of_different_lengths_exit_2(self, tmp_path, capsys):
        """Without pad_to, clips must share a length to be encoded as one stack."""
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG.replace("pad_to = 16\n", ""))
        write_wav(tmp_path / "data" / "s01.wav", np.full(32, 0.25))
        assert run_cli("preprocess", "--config", cfg_path) == 2
        assert "share a length" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_series_value_exits_3(self, tmp_path, capsys, cell):
        cfg_path = regression_workspace(tmp_path)
        series = tmp_path / "series.csv"
        lines = series.read_text().splitlines()
        lines[5] = cell
        series.write_text("\n".join(lines) + "\n")
        assert run_cli("preprocess", "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 6" in err

    def test_clip_without_frames_exits_3(self, tmp_path, capsys):
        """An empty data chunk is an error, not a clip of silence after padding."""
        cfg_path = classification_workspace(tmp_path)
        write_wav(tmp_path / "data" / "s03.wav", [])
        assert run_cli("preprocess", "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no audio frames" in err

    @pytest.mark.parametrize("workspace, victim, command, code", [
        (regression_workspace, "series.csv", "preprocess", 3),
        (classification_workspace, "manifest.json", "preprocess", 3),
        (classification_workspace, "run.cfg", "preprocess", 2),
        (classification_workspace, "out/cache/train/manifest.json", "train", 3),
        (classification_workspace, "out/metrics.jsonl", "train", 3),
    ], ids=["series-csv", "data-manifest", "config", "cache-manifest", "metrics"])
    def test_undecodable_text_exits_cleanly(self, tmp_path, capsys, workspace, victim,
                                            command, code):
        """A text file that is not UTF-8 ends in an error line and its exit
        code; preprocess rebuilds a cache whose manifest is undecodable."""
        cfg_path = workspace(tmp_path)
        if victim.startswith("out/"):
            assert run_cli("preprocess", "--config", cfg_path) == 0
            assert run_cli("train", "--config", cfg_path) == 0
        path = tmp_path / victim
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        assert run_cli(command, "--config", cfg_path) == code
        assert capsys.readouterr().err.startswith("error:")
        if victim.startswith("out/cache/"):
            assert run_cli("preprocess", "--config", cfg_path) == 0
            assert "building cache" in capsys.readouterr().out
            assert run_cli("train", "--config", cfg_path) == 0

    @pytest.mark.parametrize("command", ["preprocess", "train", "pipeline"])
    @pytest.mark.parametrize("workspace, mutate", [
        (classification_workspace, lambda m: m["samples"][3].update(path="data/absent.wav")),
        (classification_workspace, lambda m: m["samples"][3].update(path="data")),
        (regression_workspace, lambda m: m.update(series="absent.csv")),
        (regression_workspace, lambda m: m.update(series="")),
    ], ids=["missing-clip", "clip-is-a-directory", "missing-series", "series-empty"])
    def test_data_file_that_is_no_file_exits_3(self, tmp_path, capsys, workspace, mutate,
                                               command):
        """A manifest that names an absent data file, or a directory, ends in
        an error line and exit 3 from every command that fingerprints the data."""
        cfg_path = workspace(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        mutate(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli(command, "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a readable file" in err

    @pytest.mark.parametrize("init", ["absent.mps", "data"], ids=["missing", "directory"])
    def test_init_that_is_no_model_file_exits_5(self, tmp_path, capsys, init):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path, "--init", tmp_path / init) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: no trained model at") and "wmera train" in err

    def test_train_without_cache_exits_5(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("train", "--config", cfg_path) == 5
        assert "preprocess" in capsys.readouterr().err

    def test_tampered_cache_exits_3(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        victim = next((tmp_path / "out" / "cache" / "train").glob("scale*.bin"))
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert run_cli("train", "--config", cfg_path) == 3

    def test_overflowing_chain_exits_4(self, tmp_path, capsys):
        """Clips of 2048 samples overflow float64 in the first layer's
        truncated splits: preprocess exits 4 with an error line and writes
        no manifest, instead of caching infinite errors and huge cores."""
        cfg_path = classification_workspace(tmp_path, n_train=4, n_test=2, length=2048)
        cfg_path.write_text(cfg_path.read_text().replace("pad_to = 16", "pad_to = 2048")
                            .replace("n_h2 = 1", "n_h2 = 0"))
        assert run_cli("preprocess", "--config", cfg_path) == 4
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "cache" / "train" / "manifest.json").exists()

    @pytest.mark.parametrize("key, built, changed", [("chi_data", "8", "2"),
                                                     ("n_d4_layers", "1", "2")])
    def test_train_on_stale_cache_exits_5(self, tmp_path, capsys, key, built, changed):
        cfg_path = classification_workspace(tmp_path)
        text = cfg_path.read_text()
        cfg_path.write_text(text + f"{key} = {built}\n")
        assert run_cli("preprocess", "--config", cfg_path) == 0
        cfg_path.write_text(text + f"{key} = {changed}\n")
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "wmera preprocess" in err

    def test_eval_on_stale_cache_exits_5(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path) == 0
        cfg_path.write_text(cfg_path.read_text().replace("chi_data = 8", "chi_data = 2"))
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "wmera preprocess" in err

    def test_cache_of_an_earlier_layer_kernel_exits_5(self, tmp_path, capsys, monkeypatch):
        """The layer kernel's revision is part of the cache fingerprint: a cache
        that an earlier kernel built is refused by train and rebuilt by preprocess."""
        cfg_path = classification_workspace(tmp_path)
        monkeypatch.setattr(wmera.cli, "LAYER_REVISION", wmera.cli.LAYER_REVISION - 1)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "wmera preprocess" in err
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "building cache" in capsys.readouterr().out
        assert run_cli("train", "--config", cfg_path) == 0

    def test_unfinished_test_split_exits_5(self, tmp_path, capsys, monkeypatch):
        """A test-split save that fails leaves scale files without a manifest;
        train and eval refuse that cache instead of running with no test split."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path) == 0
        write = wmera.coarsegrain.write_mps_records

        def failing_write(stream, stack, *rest):
            if stream.name.endswith(f"test{os.sep}scale_001.bin"):
                raise OSError("disk full")
            write(stream, stack, *rest)

        monkeypatch.setattr(wmera.coarsegrain, "write_mps_records", failing_write)
        write_wav(tmp_path / "data" / "s00.wav", np.full(16, 0.9))
        with pytest.raises(OSError):
            run_cli("preprocess", "--config", cfg_path)
        test_dir = tmp_path / "out" / "cache" / "test"
        assert (test_dir / "scale_000.bin").is_file()
        assert not (test_dir / "manifest.json").exists()
        capsys.readouterr()
        for command in ("eval", "train"):
            assert run_cli(command, "--config", cfg_path) == 5
            err = capsys.readouterr().err
            assert err.startswith("error:") and "wmera preprocess" in err


    _DROP = object()

    @pytest.mark.parametrize("where, value", [
        (("scales", 0, "n_samples"), _DROP),
        (("scales", 0, "n_samples"), "many"),
        (("scales", 0, "n_samples"), 0),
        (("scales", 1, "n_samples"), 13),
        (("scales", 0, "n_sites"), True),
        (("scales", 1, "n_sites"), 8),
        (("scales", 0, "file"), "../train/scale_000.bin"),
        (("scales", 0, "file"), 7),
        (("scales", 0, "sha256"), "not-a-digest"),
        (("scales", 0), "scale_000.bin"),
        (("scales",), []),
        (("labels", 0), _DROP),
        (("labels", 0), "1"),
        (("labels",), None),
        (("delta_data",), _DROP),
        (("delta_data",), "tiny"),
        (("chi_data",), 0),
        (("chi_data",), 8.5),
        (("fingerprint",), None),
        (("test_samples",), "six"),
        ((), ["a list, not an object"]),
    ], ids=["n_samples-missing", "n_samples-a-string", "n_samples-zero",
            "n_samples-not-one-per-label", "n_sites-a-bool", "n_sites-not-halving",
            "file-with-a-path", "file-not-a-string", "sha256-not-hex", "scale-a-string",
            "scales-empty", "labels-short", "label-a-string", "labels-missing",
            "delta_data-missing", "delta_data-a-string", "chi_data-zero",
            "chi_data-a-float", "fingerprint-null", "test_samples-a-string",
            "top-level-list"])
    def test_bad_cache_manifest_field_exits_3(self, tmp_path, capsys, where, value):
        """Every cache manifest field that loading reads is checked: a bad one
        exits 3 with an error line, not a traceback."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        path = tmp_path / "out" / "cache" / "train" / "manifest.json"
        manifest = json.loads(path.read_text())
        if not where:
            manifest = value
        else:
            *route, key = where
            owner = functools.reduce(operator.getitem, route, manifest)
            if value is self._DROP:
                del owner[key]
            else:
                owner[key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 3
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", [3e229, 1e153])
    def test_huge_cache_label_exits_4(self, tmp_path, capsys, label):
        """A finite label too large for training's float64 products passes
        the manifest check, but train stops with exit 4 at the first
        overflow, instead of warning and finishing with an infinite cost.
        A square of 1e153 is still finite; its products in the solve are not."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        path = tmp_path / "out" / "cache" / "train" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["labels"][7] = label
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 4
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "metrics.jsonl").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_model_in_eval_exits_4(self, tmp_path, capsys):
        """A trained model whose cores are scaled by 1e200 overflows in its
        outputs: eval stops with exit 4 and writes no report, instead of
        warning and reporting an infinite test metric."""
        cfg_path = regression_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path, "--scale", "1") == 0
        model = tmp_path / "out" / "model_scale1.mps"
        w = load_mps(model)
        save_mps(model, MPS([c * 1e200 for c in w.cores]))
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path, "--scale", "1") == 4
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "eval_scale1.json").exists()

    def test_cache_with_other_scale_count_exits_5(self, tmp_path, capsys):
        """A cache manifest that lists fewer scales than the settings ask for
        is refused by train and eval (exit 5) and rebuilt by preprocess."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path) == 0
        path = tmp_path / "out" / "cache" / "train" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["scales"][-1]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in ("eval", "train"):
            assert run_cli(command, "--config", cfg_path) == 5
            err = capsys.readouterr().err
            assert err.startswith("error:") and "wmera preprocess" in err
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "building cache" in capsys.readouterr().out

    @pytest.mark.parametrize("counted", [True, False], ids=["counted", "uncounted"])
    def test_missing_test_split_exits_5(self, tmp_path, capsys, counted):
        """The train manifest counts the test split, so a deleted cache/test/
        is not read as "no test split": train and eval exit 5 and preprocess
        builds it again. A manifest without the count (an older build) is
        treated the same way."""
        cfg_path = classification_workspace(tmp_path, n_test=6)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path) == 0
        cache = tmp_path / "out" / "cache"
        manifest_path = cache / "train" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["test_samples"] == 6
        if not counted:
            del manifest["test_samples"]
            manifest_path.write_text(json.dumps(manifest))
        shutil.rmtree(cache / "test")
        capsys.readouterr()
        for command in ("eval", "train"):
            assert run_cli(command, "--config", cfg_path) == 5
            err = capsys.readouterr().err
            assert err.startswith("error:") and "wmera preprocess" in err
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "building cache" in capsys.readouterr().out
        assert run_cli("eval", "--config", cfg_path) == 0
        assert json.loads((tmp_path / "out" / "eval_scale1.json").read_text())[
            "test_metric"] is not None


class TestPreprocess:
    def test_builds_then_reuses_cache(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        first = capsys.readouterr().out
        assert "building cache" in first
        assert "scale widths [8, 4]" in first
        assert (tmp_path / "out" / "cache" / "train" / "manifest.json").is_file()
        assert (tmp_path / "out" / "cache" / "test" / "manifest.json").is_file()

        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "cache up to date" in capsys.readouterr().out

    def test_each_cache_manifest_read_once(self, tmp_path, monkeypatch):
        """Every command that uses a built cache reads each split's manifest
        once, deciding freshness and loading from the same read."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        reads = collections.Counter()
        read_text = Path.read_text

        def counted(path, *args, **kwargs):
            if path.name == "manifest.json" and path.parent.parent.name == "cache":
                reads[path.parent.name] += 1
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        for command in ("preprocess", "train", "eval", "pipeline"):
            reads.clear()
            assert run_cli(command, "--config", cfg_path) == 0
            assert reads == {"train": 1, "test": 1}, command

    def test_changed_data_forces_rebuild(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        run_cli("preprocess", "--config", cfg_path)
        capsys.readouterr()
        write_wav(tmp_path / "data" / "s00.wav", np.full(16, 0.9))
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "building cache" in capsys.readouterr().out

    def test_interrupted_build_is_rebuilt(self, tmp_path, capsys, monkeypatch):
        """A save that fails on the second scale file leaves no manifest, so
        the half-written cache is never loaded and the next run rebuilds it."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        write = wmera.coarsegrain.write_mps_records

        def failing_write(stream, stack, *rest):
            if stream.name.endswith("scale_001.bin"):
                raise OSError("disk full")
            write(stream, stack, *rest)

        monkeypatch.setattr(wmera.coarsegrain, "write_mps_records", failing_write)
        write_wav(tmp_path / "data" / "s00.wav", np.full(16, 0.9))
        with pytest.raises(OSError):
            run_cli("preprocess", "--config", cfg_path)
        with pytest.raises(StateError):
            load_cache(tmp_path / "out" / "cache" / "train")
        assert run_cli("train", "--config", cfg_path) == 5

        monkeypatch.setattr(wmera.coarsegrain, "write_mps_records", write)
        capsys.readouterr()
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "building cache" in capsys.readouterr().out
        assert run_cli("train", "--config", cfg_path) == 0

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_tampered_cache_is_rebuilt(self, tmp_path, capsys, split):
        """train refuses a scale file whose checksum no longer matches
        (exit 3); preprocess rebuilds it, as it rebuilds every cache that
        train and eval refuse."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        victim = tmp_path / "out" / "cache" / split / "scale_001.bin"
        original = victim.read_bytes()
        victim.write_bytes(original[:-1] + bytes([original[-1] ^ 0xFF]))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert "building cache" in capsys.readouterr().out
        assert victim.read_bytes() == original
        assert run_cli("train", "--config", cfg_path) == 0

    def test_dropped_test_split_is_removed(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["samples"]:
            entry["split"] = "train"
        manifest_path.write_text(json.dumps(manifest))
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert not (tmp_path / "out" / "cache" / "test").exists()
        assert run_cli("eval", "--config", cfg_path) == 5  # no model yet, cache accepted
        assert "no trained model" in capsys.readouterr().err

    def test_snapshot_lists_resolved_settings(self, tmp_path):
        cfg_path = classification_workspace(tmp_path)
        run_cli("preprocess", "--config", cfg_path)
        snapshot = (tmp_path / "out" / "config.snapshot").read_text()
        lines = snapshot.strip().splitlines()
        assert lines == sorted(lines)
        assert "seed = 5" in lines
        assert "task = classification" in lines

    def test_cache_dir_env_redirect(self, tmp_path, monkeypatch):
        cfg_path = classification_workspace(tmp_path)
        stash = tmp_path / "stash"
        monkeypatch.setenv(CACHE_ENV_VAR, str(stash))
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert (stash / "train" / "manifest.json").is_file()
        assert not (tmp_path / "out" / "cache").exists()


class TestTrainEvalFinegrain:
    def test_command_sequence(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        out = tmp_path / "out"
        assert run_cli("preprocess", "--config", cfg_path) == 0

        assert run_cli("train", "--config", cfg_path) == 0
        assert (out / "model_scale1.mps").is_file()
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert record["scale"] == 1 and record["sweep"] == 0
        assert set(record) == {"scale", "sweep", "cost", "max_bond", "train_metric",
                               "truncated_weight", "rollbacks", "cg_iters"}

        assert run_cli("eval", "--config", cfg_path) == 0
        report = json.loads((out / "eval_scale1.json").read_text())
        assert report["scale"] == 1
        assert 0.0 <= report["train_metric"] <= 1.0
        assert report["test_metric"] is not None

        assert run_cli("finegrain", "--config", cfg_path) == 0
        assert (out / "model_scale0.init.mps").is_file()

        assert run_cli("train", "--config", cfg_path, "--scale", "0",
                       "--init", out / "model_scale0.init.mps") == 0
        assert (out / "model_scale0.mps").is_file()

    def test_retraining_a_scale_keeps_other_scales_metrics(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG.replace("n_d4_layers = 1", "n_d4_layers = 2"))
        metrics = tmp_path / "out" / "metrics.jsonl"
        assert run_cli("preprocess", "--config", cfg_path) == 0
        for scale in ("2", "1", "1"):
            assert run_cli("train", "--config", cfg_path, "--scale", scale) == 0
        records = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert [(r["scale"], r["sweep"]) for r in records] == [
            (2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (1, 2)]
        assert not (tmp_path / "out" / "metrics.jsonl.partial").exists()

    def test_failed_model_write_keeps_the_previous_model(self, tmp_path, capsys,
                                                         monkeypatch):
        """A model file is replaced whole: a retrain whose write fails part-way
        leaves the previous model byte-identical and loadable."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path) == 0
        model = tmp_path / "out" / "model_scale1.mps"
        before = model.read_bytes()
        write = wmera.mps.write_mps_records

        def failing_write(stream, stack, *rest):
            write(stream, stack, *rest)
            stream.truncate(stream.tell() // 2)
            raise OSError("disk full")

        monkeypatch.setattr(wmera.mps, "write_mps_records", failing_write)
        with pytest.raises(OSError):
            run_cli("train", "--config", cfg_path, "--seed", "6")
        assert model.read_bytes() == before
        assert len(load_mps(model)) == 4
        monkeypatch.undo()
        assert run_cli("eval", "--config", cfg_path) == 0

    def test_unreadable_metrics_exit_3(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        (tmp_path / "out" / "metrics.jsonl").write_text('{"sweep": 0}\n')
        assert run_cli("train", "--config", cfg_path) == 3
        assert "metrics record" in capsys.readouterr().err

    def test_out_of_range_scale_exits_2(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        run_cli("preprocess", "--config", cfg_path)
        assert run_cli("train", "--config", cfg_path, "--scale", "7") == 2

    def test_finegrain_needs_a_model(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        run_cli("preprocess", "--config", cfg_path)
        assert run_cli("finegrain", "--config", cfg_path) == 5


class TestPipeline:
    def test_classification_end_to_end(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("pipeline", "--config", cfg_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["task"] == "classification"
        assert [s["scale"] for s in summary["scales"]] == [1, 0]
        for entry in summary["scales"]:
            assert entry["train_metric"] >= 0.9
            assert entry["test_metric"] >= 0.9
            assert (tmp_path / "out" / entry["model_file"]).is_file()

    def test_regression_end_to_end(self, tmp_path, capsys):
        cfg_path = regression_workspace(tmp_path)
        assert run_cli("pipeline", "--config", cfg_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["task"] == "regression"
        # mean absolute next-value error on the training windows
        assert summary["scales"][-1]["train_metric"] < 0.5

    def test_metrics_are_bitwise_reproducible(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        outs = []
        for name, threads in [("a", None), ("b", None), ("c", "4")]:
            argv = ["pipeline", "--config", cfg_path,
                    "--output", tmp_path / name]
            if threads:
                argv += ["--threads", threads]
            assert run_cli(*argv) == 0
            outs.append(tmp_path / name)
        ref_metrics = (outs[0] / "metrics.jsonl").read_bytes()
        ref_summary = (outs[0] / "summary.json").read_bytes()
        for other in outs[1:]:
            assert (other / "metrics.jsonl").read_bytes() == ref_metrics
            assert (other / "summary.json").read_bytes() == ref_summary


_DROP = object()

# What a fuzzed field becomes: any JSON type, or a name that points at an
# absent file or at a directory ("data" and "subdir" are directories). Text
# holds no lone surrogates: sys.stderr escapes them in an error line, but
# pytest's captured stderr cannot encode them.
_JSON_VALUES = st.one_of(
    st.just(_DROP), st.none(), st.booleans(), st.integers(-2, 70), st.floats(),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
    st.sampled_from(["", ".", "data", "subdir", "absent.wav", "absent.csv", "absent.bin",
                     "data/s00.wav", "series.csv", "scale_000.bin", "regression", "test"]),
    st.lists(st.integers(-1, 40), max_size=3),
    st.dictionaries(st.sampled_from(["path", "label", "split", "file"]),
                    st.integers(-1, 1), max_size=2),
)


def _routes(node, route=()):
    """The route to ``node`` and to every value inside it."""
    yield route
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _routes(child, route + (key,))


def _mutated_text(manifest, route, value) -> str:
    """``manifest`` with the value at ``route`` dropped or replaced, as JSON."""
    if not route:
        return "" if value is _DROP else json.dumps(value)
    manifest = json.loads(json.dumps(manifest))
    *head, key = route
    owner = functools.reduce(operator.getitem, head, manifest)
    if value is _DROP:
        del owner[key]
    else:
        owner[key] = value
    return json.dumps(manifest)


class TestManifestFuzz:
    """Any one field of a valid data or cache manifest dropped or replaced,
    by a value of any JSON type or by the name of an absent file or of a
    directory: the command exits with a documented code and never raises.
    The workspace is built once per test, not once per example."""

    @staticmethod
    def fuzz(manifest_path: Path, cfg_path: Path, *commands: str) -> None:
        original = json.loads(manifest_path.read_text())

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(route=st.sampled_from(list(_routes(original))), value=_JSON_VALUES)
        def check(route, value):
            manifest_path.write_text(_mutated_text(original, route, value))
            for command in commands:
                assert run_cli(command, "--config", cfg_path) in (0, 2, 3, 4, 5), command

        check()

    @pytest.mark.parametrize("workspace", [classification_workspace, regression_workspace],
                             ids=["classification", "regression"])
    def test_data_manifest(self, tmp_path, capsys, workspace):
        cfg_path = workspace(tmp_path)
        self.fuzz(tmp_path / "manifest.json", cfg_path, "preprocess")

    def test_cache_manifest(self, tmp_path, capsys):
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        cache = tmp_path / "out" / "cache" / "train"
        (cache / "subdir").mkdir()
        self.fuzz(cache / "manifest.json", cfg_path, "train", "eval")
