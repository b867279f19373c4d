import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import stdout_at_one_and_two_blas_threads
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from chordscribe import chroma
from chordscribe.audio_io import AudioBuffer, synthesize_triads, zero_extended
from chordscribe.chroma import (
    _frame_grid,
    _kernel_bank,
    Chromagram,
    SpectralMatrix,
    a_weighting,
    apply_a_weighting,
    bass_config,
    beat_sync_median,
    compute_chromagram,
    constant_q,
    default_beat_grid,
    estimate_tuning,
    fold_and_normalize,
    pitch_class_index,
    read_beats,
    read_chromagram,
    spl,
    treble_config,
    write_chromagram,
)


def sine_buffer(freq, sr=11025, dur=2.0, amp=0.6):
    t = np.arange(int(sr * dur)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


CQ_HASH = """
import hashlib
import numpy as np
from chordscribe.audio_io import AudioBuffer
from chordscribe.chroma import bass_config, constant_q, estimate_tuning, treble_config
buf = AudioBuffer(np.random.default_rng(1).uniform(-0.5, 0.5, 11025 * 30), 11025)
h = hashlib.sha256()
for cfg in (treble_config(), bass_config(), bass_config(hop=1023), bass_config(hop=200)):
    h.update(constant_q(buf, cfg).values.tobytes())
h.update(repr(estimate_tuning(buf)).encode())
print(h.hexdigest())
"""


def test_constant_q_bits_equal_at_one_and_two_blas_threads():
    # With OpenBLAS 0.3.31 (x86-64), one matrix-vector product over all
    # frames of a 30 s song gives other bits with two threads than with
    # one, and so do 256-frame blocks; 64-frame blocks, and the products
    # of 64/k rows that read strided windows, gave the one-thread bits
    # either way. The odd-hop bass (hop 1023) copies its windows, and so
    # do the lowest bass bins at hop 200.
    # Other BLAS builds and CPUs may split products differently; this
    # checks the build the tests run with.
    one, two = stdout_at_one_and_two_blas_threads(CQ_HASH)
    assert one == two


class TestKernelBank:
    def test_cached_kernels_equal_fresh_ones(self):
        cfg = replace(bass_config(), hop=1)
        cached = _kernel_bank(11025, cfg)
        assert _kernel_bank(11025, cfg) is cached
        fresh = _kernel_bank.__wrapped__(11025, cfg)
        assert len(cached) == len(fresh) == cfg.bin_frequencies().size
        for (L, cos_a, sin_a), (M, cos_b, sin_b) in zip(cached, fresh):
            assert L == M == cos_a.size
            assert cos_a.tobytes() == cos_b.tobytes() and sin_a.tobytes() == sin_b.tobytes()
            assert not cos_a.flags.writeable and not sin_a.flags.writeable

    def test_f_ref_and_rate_get_their_own_bank(self):
        cfg = replace(treble_config(), hop=1)
        base = _kernel_bank(11025, cfg)
        sharp = _kernel_bank(11025, replace(cfg, f_ref=446.0))
        fast = _kernel_bank(22050, cfg)
        assert sharp is not base and fast is not base
        assert not np.array_equal(sharp[0][1], base[0][1])
        assert fast[0][0] > base[0][0]

    def test_hop_shares_a_bank(self):
        buf = sine_buffer(440.0)
        _kernel_bank.cache_clear()
        constant_q(buf, treble_config(hop=512))
        constant_q(buf, treble_config(hop=1024))
        info = _kernel_bank.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def constant_q_reference(buf, cfg):
    """constant_q's values as one product per 64-frame block and bin, over
    a copy of the block's windows: the reference for the strided views."""
    sr, x = buf.sample_rate, buf.samples
    centers, _, _ = _frame_grid(x.size, cfg.hop, sr)
    bank = _kernel_bank(sr, replace(cfg, hop=1))
    reach = max(L for L, _, _ in bank)
    mags = np.empty((len(bank), centers.size))
    for b in range(0, centers.size, 64):
        block = centers[b : b + 64]
        lo = int(block[0]) - reach // 2
        seg = zero_extended(x, lo, int(block[-1]) - reach // 2 + reach)
        for s, (L, kern_cos, kern_sin) in enumerate(bank):
            rows = np.lib.stride_tricks.sliding_window_view(seg, L)[block - L // 2 - lo]
            mags[s, b : b + block.size] = np.hypot(rows @ kern_cos, rows @ kern_sin) / L
    return mags


class TestConstantQMatchesReference:
    # At 11,025 Hz the bass windows run up to 3,408 samples: hop 1024 reads
    # every 2nd and 4th frame as views, 512 takes k = 8, odd hop 1023
    # (whose frame centers alternate their rounding) copies, and 200 needs
    # k = 32 for the lowest bins, which copy. 128 frames are two whole
    # blocks; 165 end in a short one.
    @pytest.mark.parametrize("hop", [1024, 1023, 512, 200])
    @pytest.mark.parametrize("frames", [128, 165])
    @pytest.mark.parametrize("make", [treble_config, bass_config])
    def test_bits_equal(self, hop, frames, make):
        x = np.random.default_rng(hop + frames).uniform(-0.5, 0.5, hop * frames)
        buf = AudioBuffer(x, 11025)
        cfg = make(hop=hop)
        out = constant_q(buf, cfg)
        assert out.n_frames == frames
        assert out.values.tobytes() == constant_q_reference(buf, cfg).tobytes()

    @pytest.mark.parametrize("seconds", [0.5, 3.0, 30.0])
    def test_tuning_probe_bits_equal(self, seconds, monkeypatch):
        # Checks the configuration estimate_tuning really passes.
        runs = []

        def recording(buf, cfg):
            out = constant_q(buf, cfg)
            runs.append((cfg, out.values))
            return out

        monkeypatch.setattr(chroma, "constant_q", recording)
        buf = AudioBuffer(np.random.default_rng(3).uniform(-0.5, 0.5, int(11025 * seconds)), 11025)
        estimate_tuning(buf)
        [(cfg, values)] = runs
        assert values.tobytes() == constant_q_reference(buf, cfg).tobytes()

    @pytest.mark.parametrize("make", [treble_config, bass_config])
    def test_signal_shorter_than_longest_window(self, make):
        buf = AudioBuffer(np.random.default_rng(4).uniform(-0.5, 0.5, 2000), 11025)
        assert constant_q(buf, make()).values.tobytes() == constant_q_reference(buf, make()).tobytes()

    def test_strided_samples(self):
        x = np.random.default_rng(5).uniform(-0.5, 0.5, 2 * 1024 * 200)
        buf = AudioBuffer(x[::2], 11025)
        assert not buf.samples.flags.c_contiguous
        cfg = bass_config()
        assert constant_q(buf, cfg).values.tobytes() == constant_q_reference(buf, cfg).tobytes()


class TestConstantQ:
    def test_sine_magnitude_matches_windowed_inner_product(self):
        cfg = treble_config()
        freqs = cfg.bin_frequencies()
        s = 12  # A4
        amp = 0.7
        buf = sine_buffer(freqs[s], amp=amp)
        mag = constant_q(buf, cfg)
        mid = mag.values[:, mag.n_frames // 2]
        length = int(round(cfg.q_factor * buf.sample_rate / freqs[s]))
        expected = amp * np.hamming(length).mean() / 2.0
        assert mid[s] == pytest.approx(expected, rel=0.02)
        # bins >= 3 semitones away are at least 20 dB down
        for other in range(freqs.size):
            if abs(other - s) >= 3:
                assert 20 * np.log10(mid[other] / mid[s]) < -20.0

    def test_all_zero_buffer(self):
        buf = AudioBuffer(np.zeros(11025) + 0.0, 11025)
        mag = constant_q(buf, treble_config())
        assert np.all(mag.values == 0.0)

    def test_linearity_in_amplitude(self):
        cfg = treble_config()
        buf1 = sine_buffer(440.0, amp=0.3)
        buf2 = AudioBuffer(buf1.samples * 2.0, buf1.sample_rate)
        m1 = constant_q(buf1, cfg).values
        m2 = constant_q(buf2, cfg).values
        np.testing.assert_allclose(m2, 2.0 * m1, rtol=1e-9, atol=1e-15)

    def test_band_above_nyquist_rejected(self):
        cfg = treble_config()
        buf = sine_buffer(440.0, sr=2000)
        with pytest.raises(ValueError):
            constant_q(buf, cfg)

    def test_frame_times_inside_signal(self):
        buf = sine_buffer(440.0, dur=1.0)
        mag = constant_q(buf, treble_config())
        assert np.all(mag.frame_times < buf.duration)


class TestSpl:
    def _mat(self, vals):
        vals = np.asarray(vals, dtype=float)[None, :]
        return SpectralMatrix(vals, np.array([440.0]), np.zeros(vals.shape[1]), np.ones(vals.shape[1]))

    def test_reference_power_is_zero_db(self):
        out = spl(self._mat([1.0]), p_ref=1.0)
        assert out.values[0, 0] == pytest.approx(0.0)

    def test_hundredfold_power_is_twenty_db(self):
        out = spl(self._mat([10.0]), p_ref=1.0)
        assert out.values[0, 0] == pytest.approx(20.0)

    def test_zero_magnitude_clamped_to_floor(self):
        out = spl(self._mat([0.0]), p_ref=1.0)
        assert out.values[0, 0] == -120.0
        out = spl(self._mat([0.0]), p_ref=1.0, spl_floor=-77.0)
        assert out.values[0, 0] == -77.0

    def test_bad_p_ref(self):
        with pytest.raises(ValueError):
            spl(self._mat([1.0]), p_ref=0.0)


class TestAWeighting:
    def test_one_khz_is_zero(self):
        assert abs(a_weighting(1000.0)) <= 0.1

    def test_against_iec_exact_form(self):
        # independent oracle: IEC's precise break frequencies, normalized
        # to exactly 0 dB at 1 kHz
        f1, f2, f3, f4 = 20.598997, 107.65265, 737.86223, 12194.217

        def iec(f):
            x2 = f * f
            ra = (f4**2 * x2 * x2) / (
                (x2 + f1**2) * np.sqrt((x2 + f2**2) * (x2 + f3**2)) * (x2 + f4**2)
            )
            ra1k = (f4**2 * 1e12) / (
                (1e6 + f1**2) * np.sqrt((1e6 + f2**2) * (1e6 + f3**2)) * (1e6 + f4**2)
            )
            return 20 * np.log10(ra / ra1k)

        for f in (55.0, 100.0, 500.0, 2000.0):
            assert a_weighting(f) == pytest.approx(iec(f), abs=0.5)

    def test_published_anchor_values(self):
        assert a_weighting(100.0) == pytest.approx(-19.1, abs=0.5)
        assert a_weighting(55.0) == pytest.approx(-28.6, abs=0.5)

    def test_monotone_rising_low_band(self):
        f = np.linspace(20.0, 1000.0, 200)
        assert np.all(np.diff(a_weighting(f)) > 0)

    def test_monotone_falling_above_peak(self):
        f = np.linspace(6000.0, 16000.0, 100)
        assert np.all(np.diff(a_weighting(f)) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            a_weighting(0.0)


class TestPitchClassIndex:
    def test_a4_is_nine(self):
        assert pitch_class_index(440.0, 440.0) == 9

    def test_octave_equivalence(self):
        assert pitch_class_index(880.0, 440.0) == 9

    def test_a_sharp(self):
        assert pitch_class_index(466.16, 440.0) == 10

    def test_all_reference_midi_notes(self):
        for midi in range(24, 100):
            f = 440.0 * 2 ** ((midi - 69) / 12)
            assert pitch_class_index(f) == midi % 12


class TestFoldAndNormalize:
    def _weighted(self, col):
        col = np.asarray(col, dtype=float)
        freqs = 440.0 * 2.0 ** ((np.arange(col.size) - 12) / 12.0)
        return SpectralMatrix(col[:, None], freqs, np.zeros(1), np.ones(1))

    def test_degenerate_column_maps_to_zeros(self):
        ch = fold_and_normalize(self._weighted([3.0] * 12), treble_config(), "treble")
        assert np.all(ch.values == 0.0)

    def test_affine_map(self):
        col = np.array([0.0, 6.0, 12.0] + [3.0] * 9)
        ch = fold_and_normalize(self._weighted(col), treble_config(), "treble")
        # bins here are one per pitch class starting at A (pc 9)
        assert ch.values[9, 0] == pytest.approx(0.0)
        assert ch.values[10, 0] == pytest.approx(0.5)
        assert ch.values[11, 0] == pytest.approx(1.0)

    def test_constant_shift_invariance(self):
        col = np.linspace(-40.0, -10.0, 12)
        a = fold_and_normalize(self._weighted(col), treble_config(), "treble")
        b = fold_and_normalize(self._weighted(col + 17.3), treble_config(), "treble")
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


@pytest.fixture(scope="module")
def fixture_audio():
    buf = synthesize_triads([({0, 4, 7}, 0, 1.5), ({7, 11, 2}, 7, 1.5)], 11025)
    # quiet enough that a 10x gain still fits in [-1, 1]
    return AudioBuffer(buf.samples * 0.1, buf.sample_rate)


class TestPipelineInvariances:
    # The dB floor exists only to guard log(0); both invariances assume it
    # never clamps a nonzero bin, so these tests push it out of reach.

    def test_gain_invariance(self, fixture_audio):
        cfg = replace(treble_config(), spl_floor=-600.0)
        base = compute_chromagram(fixture_audio, cfg, "treble")
        for g in (0.1, 0.5, 2.0, 10.0):
            scaled = AudioBuffer(fixture_audio.samples * g, fixture_audio.sample_rate)
            out = compute_chromagram(scaled, cfg, "treble")
            np.testing.assert_allclose(out.values, base.values, atol=1e-6)

    def test_p_ref_invariance(self, fixture_audio):
        cfg = replace(treble_config(), spl_floor=-600.0)
        a = compute_chromagram(fixture_audio, cfg, "treble", p_ref=1.0)
        b = compute_chromagram(fixture_audio, cfg, "treble", p_ref=1e-12)
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_entries_in_unit_interval(self, fixture_audio):
        for cfg, band in ((treble_config(), "treble"), (bass_config(), "bass")):
            ch = compute_chromagram(fixture_audio, cfg, band)
            assert ch.values.min() >= 0.0
            assert ch.values.max() <= 1.0

    def test_columns_attain_extremes(self, fixture_audio):
        ch = compute_chromagram(fixture_audio, treble_config(), "treble")
        for t in range(ch.n_frames):
            col = ch.values[:, t]
            assert np.all(col == 0.0) or (col.min() == 0.0 and col.max() == 1.0)

    def test_c_major_top_three(self):
        buf = synthesize_triads([({0, 4, 7}, 0, 2.0)], 11025)
        ch = compute_chromagram(buf, treble_config(), "treble")
        top3 = set(np.argsort(ch.values.mean(axis=1))[-3:].tolist())
        assert top3 == {0, 4, 7}

    def test_bass_chroma_tracks_bass_note(self):
        buf = synthesize_triads([({0, 4, 7}, 4, 2.0)], 11025)
        ch = compute_chromagram(buf, bass_config(), "bass")
        mid = ch.values[:, ch.n_frames // 2]
        assert int(np.argmax(mid)) == 4


class TestEstimateTuning:
    def test_concert_pitch(self):
        buf = synthesize_triads([({0, 4, 7}, 9, 2.0)], 11025)
        assert abs(estimate_tuning(buf)) <= 3.0

    def test_shifted_by_thirty_cents(self):
        ratio = 2 ** (30 / 1200)
        t = np.arange(int(11025 * 2.5)) / 11025
        x = sum(np.sin(2 * np.pi * 440 * ratio * 2 ** (k / 12) * t) for k in (0, 4, 7, -12))
        buf = AudioBuffer(0.5 * x / np.abs(x).max(), 11025)
        assert estimate_tuning(buf) == pytest.approx(30.0, abs=5.0)

    def test_silent_returns_zero(self):
        buf = AudioBuffer(np.zeros(22050) + 0.0, 11025)
        assert estimate_tuning(buf) == 0.0

    def test_range(self):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(0.2 * np.tanh(rng.standard_normal(22050)), 11025)
        c = estimate_tuning(buf)
        assert -50.0 <= c < 50.0


def beat_sync_median_reference(chroma, beats):
    """beat_sync_median's values, one interval at a time."""
    beats = np.asarray(beats, dtype=np.float64)
    centers = chroma.frame_times
    out = np.zeros((12, beats.size - 1))
    for i in range(beats.size - 1):
        sel = (centers >= beats[i]) & (centers < beats[i + 1])
        if np.any(sel):
            out[:, i] = np.median(chroma.values[:, sel], axis=1)
        elif i > 0:
            out[:, i] = out[:, i - 1]
    return out


class TestBeatSyncMedian:
    def _chroma(self, cols, dt=0.1):
        cols = np.asarray(cols, dtype=float)
        n = cols.shape[1]
        starts = np.arange(n) * dt
        return Chromagram(cols, starts, starts + dt, "treble")

    def test_odd_median(self):
        vals = np.zeros((12, 3))
        vals[0] = [0.1, 0.9, 0.5]
        ch = self._chroma(vals)
        out = beat_sync_median(ch, [0.0, 0.3])
        assert out.values[0, 0] == pytest.approx(0.5)

    def test_one_frame_per_interval_is_identity(self):
        vals = np.linspace(0, 1, 36).reshape(12, 3)
        ch = self._chroma(vals)
        out = beat_sync_median(ch, [0.0, 0.1, 0.2, 0.3])
        np.testing.assert_allclose(out.values, vals)

    def test_even_count_takes_midpoint_mean(self):
        vals = np.zeros((12, 2))
        vals[3] = [0.2, 0.4]
        out = beat_sync_median(self._chroma(vals), [0.0, 0.2])
        assert out.values[3, 0] == pytest.approx(0.3)

    def test_empty_interval_copies_previous(self):
        vals = np.zeros((12, 2))
        vals[5] = [0.7, 0.7]
        out = beat_sync_median(self._chroma(vals), [0.0, 0.2, 0.2001, 0.3001])
        assert out.values[5, 1] == pytest.approx(0.7)

    def test_non_monotone_beats_rejected(self):
        ch = self._chroma(np.zeros((12, 3)))
        with pytest.raises(ValueError):
            beat_sync_median(ch, [0.0, 0.2, 0.1])
        with pytest.raises(ValueError):
            beat_sync_median(ch, [0.0])

    def test_output_length(self):
        ch = self._chroma(np.random.default_rng(1).random((12, 30)))
        beats = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        out = beat_sync_median(ch, beats)
        assert out.n_frames == len(beats) - 1
        assert np.all(out.starts == beats[:-1])
        assert np.all(out.ends == beats[1:])

    def test_bits_equal_reference(self):
        # Frame centers 0.05, 0.15, ..., 2.95, listed out of order. Frames
        # lie before the first beat and after the last; the two leading
        # intervals and the two after 1.0 hold no frame; counts run 1-7.
        rng = np.random.default_rng(2)
        order = rng.permutation(30)
        starts = np.arange(30)[order] * 0.1
        ch = Chromagram(rng.random((12, 30)), starts, starts + 0.1, "treble")
        beats = [0.12, 0.13, 0.14, 0.5, 0.7, 1.0, 1.01, 1.02, 1.3, 1.5, 2.2, 2.6]
        out = beat_sync_median(ch, beats)
        assert [np.sum((ch.frame_times >= a) & (ch.frame_times < b)) for a, b in zip(beats, beats[1:])] == [
            0, 0, 4, 2, 3, 0, 0, 3, 2, 7, 4,
        ]  # fmt: skip
        assert out.values.tobytes() == beat_sync_median_reference(ch, beats).tobytes()
        assert np.all(out.values[:, :2] == 0.0)

    def test_bits_equal_reference_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            starts = rng.uniform(0.0, 5.0, n)
            # rounded values repeat, so the two middle values of an even
            # count are often equal
            values = rng.random((12, n)).round(int(rng.integers(1, 4)))
            ch = Chromagram(values, starts, starts + 0.1, "bass")
            # some beats fall exactly on a frame center
            on_frames = rng.choice(0.5 * (starts + (starts + 0.1)), 3)
            beats = np.unique(np.concatenate([rng.uniform(-0.5, 5.5, int(rng.integers(2, 30))), on_frames]))
            if beats.size < 2:
                continue
            out = beat_sync_median(ch, beats)
            assert out.values.tobytes() == beat_sync_median_reference(ch, beats).tobytes()


def test_chromagram_rejects_nan():
    vals = np.full((12, 3), 0.5)
    vals[4, 1] = np.nan
    with pytest.raises(ValueError, match="frame 1"):
        Chromagram(vals, np.arange(3.0), np.arange(3.0) + 1.0, "treble")


class TestChromagramIO:
    @settings(deadline=None)
    @given(
        st.data(),
        st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=50),  # frame durations; read needs one
        st.sampled_from(["bass", "treble"]),
    )
    def test_roundtrip(self, data, durations, band):
        beats = np.concatenate([[0.0], np.cumsum(durations)])
        vals = data.draw(arrays(np.float64, (12, len(durations)), elements=st.floats(0.0, 1.0)))
        ch = Chromagram(vals, beats[:-1], beats[1:], band)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.chroma", Path(tmp) / "b.chroma"
            write_chromagram(first, ch)
            back = read_chromagram(first)
            write_chromagram(second, back)
            assert first.read_bytes() == second.read_bytes()
        assert back.band == band
        np.testing.assert_array_equal(back.values, vals)
        np.testing.assert_array_equal(back.starts, ch.starts)
        np.testing.assert_array_equal(back.ends, ch.ends)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.chroma"
        p.write_text("treble 1\n0.0 1.0 0.5\n")
        with pytest.raises(ValueError):
            read_chromagram(p)

    def test_nan_row_names_file_and_line(self, tmp_path):
        p = tmp_path / "nan.chroma"
        row = " ".join(["0.5"] * 12)
        p.write_text(f"treble 2\n0.0 0.5 {row}\n\n0.5 1.0 {row.replace('0.5', 'nan', 1)}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:4:")):
            read_chromagram(p)

    def test_default_beat_grid(self):
        beats = default_beat_grid(2.0, 0.5)
        np.testing.assert_allclose(beats, [0.0, 0.5, 1.0, 1.5, 2.0])
        beats = default_beat_grid(1.7, 0.5)
        np.testing.assert_allclose(beats, [0.0, 0.5, 1.0, 1.5, 1.7])

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
    def test_default_beat_grid_rejects_nonpositive_period(self, period):
        with pytest.raises(ValueError, match="period must be positive"):
            default_beat_grid(2.0, period)


class TestReadBeats:
    def test_reads_times_skipping_comments(self, tmp_path):
        p = tmp_path / "song.txt"
        p.write_text("# beats\n0.0\n\n0.5 extra\n1.25\n")
        np.testing.assert_array_equal(read_beats(p), [0.0, 0.5, 1.25])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_names_file_and_line(self, tmp_path, bad):
        p = tmp_path / "song.txt"
        p.write_text(f"0\n1\n# comment\n{bad}\n3\n5\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:4:") + ".*not finite"):
            read_beats(p)

    @pytest.mark.parametrize("text, line", [("0\n2\n1\n", 3), ("0\n1\n1\n2\n", 3)])
    def test_non_increasing_names_file_and_line(self, tmp_path, text, line):
        p = tmp_path / "song.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}:{line}:") + ".*does not follow"):
            read_beats(p)

    def test_unparsable_names_file_and_line(self, tmp_path):
        p = tmp_path / "song.txt"
        p.write_text("0\nbeat\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2:")):
            read_beats(p)
