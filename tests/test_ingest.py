"""Raw readers, windowing, scaling and the product-state feature map."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmera.errors import ArgumentError, DataError, FormatError, NumericError, WmeraError
from wmera.ingest import (
    FeatureScaler,
    apply_scaler,
    encode_samples,
    fit_scaler,
    haar_preprocess,
    make_windows,
    pad_to_pow2,
    read_series_csv,
    read_wav,
)
from wmera.wavelet import haar_step


def wav_bytes(frames, channels=1, rate=8000, codec=1, bits=16, junk_chunk=False):
    """Assemble a minimal RIFF/WAVE byte string by hand."""
    pcm = np.asarray(frames, dtype="<i2").tobytes()
    chunks = b""
    if junk_chunk:
        # odd-sized foreign chunk; readers must skip it and its pad byte
        chunks += b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", codec, channels, rate, rate * block, block, bits)
    chunks += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestReadWav:
    def test_golden_sample_values(self, tmp_path):
        """Signed 16-bit codes map onto [-1, 1) by dividing by 32768."""
        p = tmp_path / "g.wav"
        p.write_bytes(wav_bytes([0, 16384, -32768, 32767]))
        got = read_wav(p)
        want = np.array([0.0, 0.5, -1.0, 32767 / 32768])
        np.testing.assert_allclose(got, want, atol=0)

    def test_stereo_is_averaged(self, tmp_path):
        p = tmp_path / "s.wav"
        p.write_bytes(wav_bytes([1000, 3000, -2000, 2000], channels=2))
        got = read_wav(p)
        np.testing.assert_allclose(got, [2000 / 32768, 0.0])

    def test_foreign_chunks_are_skipped(self, tmp_path):
        p = tmp_path / "j.wav"
        p.write_bytes(wav_bytes([123, -456], junk_chunk=True))
        np.testing.assert_allclose(read_wav(p), [123 / 32768, -456 / 32768])

    def test_tiny_file_is_rejected(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(FormatError, match="byte 6"):
            read_wav(p)

    def test_missing_riff_tag(self, tmp_path):
        p = tmp_path / "r.wav"
        p.write_bytes(b"JUNK" + wav_bytes([0])[4:])
        with pytest.raises(FormatError, match="byte 0"):
            read_wav(p)

    def test_missing_wave_tag(self, tmp_path):
        p = tmp_path / "w.wav"
        raw = bytearray(wav_bytes([0]))
        raw[8:12] = b"AIFF"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 8"):
            read_wav(p)

    def test_overrunning_chunk_is_rejected(self, tmp_path):
        p = tmp_path / "o.wav"
        raw = wav_bytes([1, 2, 3])
        p.write_bytes(raw[:-2])  # data chunk now claims more than remains
        with pytest.raises(FormatError, match="overruns"):
            read_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        p = tmp_path / "d.wav"
        raw = wav_bytes([])
        # drop the (empty) data chunk entirely
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="no data chunk"):
            read_wav(p)

    def test_non_pcm_codec_is_rejected(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(wav_bytes([0], codec=3))
        with pytest.raises(FormatError, match="codec"):
            read_wav(p)

    def test_short_fmt_chunk_is_rejected(self, tmp_path):
        p = tmp_path / "s.wav"
        fmt = struct.pack("<HHI", 1, 1, 8000)  # cut off before the byte rate
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 2)
        p.write_bytes(b"RIFF" + struct.pack("<I", 6 + len(chunks)) + b"WAVE" + chunks + b"\0\0")
        with pytest.raises(FormatError, match=r"fmt chunk at byte 12 too short \(8 bytes\)"):
            read_wav(p)

    def test_zero_channels_is_rejected(self, tmp_path):
        p = tmp_path / "c.wav"
        p.write_bytes(wav_bytes([0, 1], channels=0))
        with pytest.raises(FormatError, match="zero channels"):
            read_wav(p)

    def test_eight_bit_depth_is_rejected(self, tmp_path):
        p = tmp_path / "b.wav"
        p.write_bytes(wav_bytes([0], bits=8))
        with pytest.raises(FormatError):
            read_wav(p)

    @pytest.mark.parametrize("frames, channels", [([], 1), ([7], 2)],
                             ids=["empty-data-chunk", "less-than-one-frame"])
    def test_clip_without_frames_is_rejected(self, tmp_path, frames, channels):
        """A data chunk too short to hold one frame would decode to an empty
        clip, which padding then turns into silence."""
        p = tmp_path / "z.wav"
        p.write_bytes(wav_bytes(frames, channels=channels))
        with pytest.raises(DataError, match="no audio frames"):
            read_wav(p)


class TestReadCsv:
    def test_single_column_file(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1.5\n-2.0\n\n3.25\n")
        np.testing.assert_allclose(read_series_csv(p), [1.5, -2.0, 3.25])

    def test_named_column(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("day, temp ,station\n1,14.5,a\n2,15.0,a\n")
        np.testing.assert_allclose(read_series_csv(p, column="temp"),
                                   [14.5, 15.0])

    def test_bad_value_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\noops\n")
        with pytest.raises(DataError, match="line 3"):
            read_series_csv(p)

    def test_multi_field_rows_need_a_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,2.0\n")
        with pytest.raises(FormatError, match="expected one value"):
            read_series_csv(p)

    def test_unknown_column_is_rejected(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError, match="no column named"):
            read_series_csv(p, column="c")

    def test_empty_file_is_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no values"):
            read_series_csv(p)

    def test_empty_file_with_a_column_needs_a_header(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(FormatError, match="expected a header row"):
            read_series_csv(p, column="temp")

    def test_row_without_the_named_column_names_the_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("day,temp\n1,14.5\n2\n")
        with pytest.raises(FormatError, match="line 3 has no field 1"):
            read_series_csv(p, column="temp")

    @pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity", "1e400"])
    def test_non_finite_value_names_the_line(self, tmp_path, cell):
        p = tmp_path / "n.csv"
        p.write_text(f"1.0\n{cell}\n3.0\n")
        with pytest.raises(DataError, match="non-finite value .* on line 2"):
            read_series_csv(p)

    def test_non_utf8_bytes_name_the_offset(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_bytes(b"1.0\n2.\xff\n")
        with pytest.raises(FormatError, match="byte 6 is not UTF-8"):
            read_series_csv(p)

    def test_oversized_field_is_a_format_error(self, tmp_path):
        p = tmp_path / "o.csv"
        p.write_text("1.0\n" + "9" * 200_000 + "\n")
        with pytest.raises(FormatError, match="line 2"):
            read_series_csv(p)


def read_fuzzed(reader, blob: bytes, suffix: str):
    """``reader`` applied to ``blob`` written to a file: a nonempty finite
    1-d series, or None when the reader raised a package error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fuzz{suffix}"
        path.write_bytes(blob)
        try:
            x = reader(path)
        except WmeraError:
            return None
    assert x.ndim == 1 and x.size > 0 and np.all(np.isfinite(x)), x
    return x


CSV_CELLS = st.one_of(
    st.just(""), st.just("  "),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-1e999", "0x10", "1,2", "\"3\""]),
    st.text(max_size=6),
)


class TestReadersUnderFuzz:
    """Every reader call ends in a usable series or a package error, never
    in an empty or non-finite array or a stray exception."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(frames=st.lists(st.integers(-32768, 32767), min_size=1, max_size=6),
           channels=st.integers(1, 3), junk=st.booleans(), data=st.data(),
           kind=st.sampled_from(["edit", "edit-header", "truncate", "insert"]))
    def test_mutated_wav(self, frames, channels, junk, data, kind):
        blob = bytearray(wav_bytes(np.repeat(frames, channels), channels, junk_chunk=junk))
        if kind == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif kind == "insert":
            at = data.draw(st.integers(0, len(blob)))
            blob[at:at] = data.draw(st.binary(min_size=1, max_size=8))
        else:
            last = 47 if kind == "edit-header" else len(blob) - 1
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, min(last, len(blob) - 1)))
                blob[at] = data.draw(st.integers(0, 255))
        read_fuzzed(read_wav, bytes(blob), ".wav")

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(cells=st.lists(CSV_CELLS, max_size=6), header=st.booleans(),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           garbage=st.sampled_from([b"", b"\xff", b"\xc3(", b"\xed\xa0\x80"]),
           data=st.data())
    def test_generated_csv(self, cells, header, newline, garbage, data):
        text = newline.join((["v"] if header else []) + cells) + newline
        blob = text.encode()
        at = data.draw(st.integers(0, len(blob)))
        blob = blob[:at] + garbage + blob[at:]
        x = read_fuzzed(lambda path: read_series_csv(path, column="v" if header else None),
                        blob, ".csv")
        if x is not None:
            assert not garbage


class TestPadding:
    def test_exact_length_is_copied(self):
        x = np.array([1.0, 2.0])
        y = pad_to_pow2(x, 2)
        assert y is not x
        np.testing.assert_array_equal(y, x)

    def test_zeros_on_the_right(self):
        np.testing.assert_array_equal(pad_to_pow2([1.0, 2.0, 3.0], 8),
                                      [1, 2, 3, 0, 0, 0, 0, 0])

    def test_non_power_target_is_rejected(self):
        with pytest.raises(ArgumentError):
            pad_to_pow2([1.0], 6)

    def test_overlong_series_is_rejected(self):
        with pytest.raises(ArgumentError):
            pad_to_pow2(np.ones(9), 8)


class TestWindows:
    def test_count_and_labels(self):
        x = np.arange(10.0)
        ws, labels = make_windows(x, 4)
        assert ws.shape == (6, 4) and labels.shape == (6,)
        for s, (w, label) in enumerate(zip(ws, labels)):
            np.testing.assert_array_equal(w, x[s:s + 4])
            assert label == x[s + 4]

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(log_p=st.integers(2, 5), extra=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_and_labels_follow_the_series(self, log_p, extra, seed):
        p = 1 << log_p
        x = np.random.default_rng(seed).standard_normal(p + extra)
        ws, labels = make_windows(x, p)
        assert ws.shape == (extra, p) and labels.shape == (extra,)
        for s in range(extra):
            np.testing.assert_array_equal(ws[s], x[s:s + p])
            assert labels[s] == x[s + p]

    def test_bad_window_sizes(self):
        with pytest.raises(ArgumentError):
            make_windows(np.arange(10.0), 3)
        with pytest.raises(ArgumentError):
            make_windows(np.arange(10.0), 2)

    def test_short_series_is_rejected(self):
        with pytest.raises(ArgumentError):
            make_windows(np.arange(4.0), 4)


class TestHaarPreprocess:
    def test_zero_passes_is_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(haar_preprocess(x, 0), x)

    def test_one_pass_matches_haar_step(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(haar_preprocess(x, 1), haar_step(x))

    def test_two_passes_compose(self):
        x = np.arange(8.0)
        np.testing.assert_allclose(haar_preprocess(x, 2), haar_step(haar_step(x)))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n_rows=st.integers(1, 6), n_h2=st.integers(0, 3), log_len=st.integers(3, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_one_row_at_a_time(self, n_rows, n_h2, log_len, seed):
        x = np.random.default_rng(seed).standard_normal((n_rows, 1 << log_len))
        want = np.stack([haar_preprocess(row, n_h2) for row in x])
        assert np.array_equal(haar_preprocess(x, n_h2), want)

    def test_divisibility_is_checked(self):
        with pytest.raises(ArgumentError):
            haar_preprocess(np.arange(6.0), 2)
        with pytest.raises(ArgumentError):
            haar_preprocess(np.arange(4.0), -1)


class TestScaler:
    def test_fit_and_apply(self):
        sc = fit_scaler(np.array([[2.0, 4.0], [6.0, 3.0]]))
        assert sc.lo == 2.0 and sc.hi == 6.0
        np.testing.assert_allclose(apply_scaler(sc, [2.0, 4.0, 6.0]),
                                   [0.0, 0.5, 1.0])

    def test_out_of_range_values_clamp(self):
        sc = FeatureScaler(0.0, 10.0)
        np.testing.assert_allclose(apply_scaler(sc, [-5.0, 15.0]), [0.0, 1.0])

    def test_flat_range_is_rejected(self):
        with pytest.raises(DataError):
            fit_scaler([np.array([3.0, 3.0])])
        with pytest.raises(DataError):
            FeatureScaler(1.0, 1.0)
        with pytest.raises(DataError):
            fit_scaler(np.zeros((0, 4)))


class TestEncodeSample:
    """``encode_samples`` maps every row of a (samples, sites) array."""

    def test_amplitudes_are_kronecker_products(self):
        """The dense state of (1, x_i) sites is the chained outer product."""
        x = np.array([[0.3, 0.8, 0.1], [0.5, 0.0, 1.0]])
        for row, m in zip(x, encode_samples(x).states()):
            want = np.array([1.0])
            for xi in row:
                want = np.kron(want, np.array([1.0, xi]))
            np.testing.assert_allclose(m.to_dense().ravel(), want, atol=1e-15)

    def test_all_bonds_are_trivial(self):
        st = encode_samples(np.linspace(0, 1, 10).reshape(2, 5))
        assert st.bonds.shape == (2, 6) and np.all(st.bonds == 1)
        assert all(c.shape == (2, 1, 2, 1) for c in st.cores)

    def test_bad_inputs(self):
        for bad in (np.zeros(4), np.zeros((0, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ArgumentError):
                encode_samples(bad)
        with pytest.raises(DataError):
            encode_samples([[0.1, 0.2], [0.3, np.nan]])

    def test_squared_norm_must_be_a_finite_float(self):
        """The squared norm of (1, 1) on every site is 2**N: 1000 sites fit in
        float64, 1100 do not (2**1024 itself sits on the limit to the bit)."""
        assert len(encode_samples(np.ones((1, 1000))).cores) == 1000
        with pytest.raises(NumericError):
            encode_samples(np.ones((2, 1100)))
        with pytest.raises(NumericError, match="sample 1 "):
            encode_samples([np.zeros(3), np.full(3, 1e200)])
