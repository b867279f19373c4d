import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import chordscribe
from chordscribe import audio_io
from chordscribe.audio_io import (
    AudioBuffer,
    EmptyAudioError,
    UnreadableFileError,
    UnsupportedEncodingError,
    WavSource,
    _resample_block,
    _resample_taps,
    _resample_threads,
    load_wav,
    resample,
    synthesize_triads,
    write_wav,
)


def dft_peak_hz(x, sr):
    spec = np.abs(np.fft.rfft(x))
    return np.fft.rfftfreq(x.size, 1.0 / sr)[int(np.argmax(spec))]


class TestLoadWav:
    def test_int16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        wavfile.write(p, 8000, np.array([0, 16384, -32768], dtype=np.int16))
        buf = load_wav(p)
        assert buf.sample_rate == 8000
        np.testing.assert_allclose(buf.samples, [0.0, 0.5, -1.0])

    def test_stereo_downmix_mean(self, tmp_path):
        p = tmp_path / "st.wav"
        wavfile.write(p, 8000, np.array([[1.0, 0.0]], dtype=np.float32))
        buf = load_wav(p)
        np.testing.assert_allclose(buf.samples, [0.5])

    def test_rate_and_length_passthrough(self, tmp_path):
        p = tmp_path / "c.wav"
        n = 1234
        wavfile.write(p, 44100, np.zeros(n, dtype=np.int16))
        buf = load_wav(p)
        assert buf.sample_rate == 44100
        assert buf.samples.size == n

    def test_uint8_scaling(self, tmp_path):
        p = tmp_path / "u8.wav"
        wavfile.write(p, 8000, np.array([128, 255, 0], dtype=np.uint8))
        buf = load_wav(p)
        np.testing.assert_allclose(buf.samples, [0.0, 127 / 128, -1.0])

    def test_int32_scaling(self, tmp_path):
        p = tmp_path / "i32.wav"
        wavfile.write(p, 8000, np.array([0, 2**30], dtype=np.int32))
        buf = load_wav(p)
        np.testing.assert_allclose(buf.samples, [0.0, 0.5])

    def test_24_bit_pcm(self, tmp_path):
        # hand-rolled 24-bit PCM container: full scale is 2^23
        samples = [0, 2**22, -(2**23)]
        data = b"".join(struct.pack("<i", v << 8)[1:] for v in samples)
        header = (
            b"RIFF"
            + struct.pack("<I", 36 + len(data))
            + b"WAVEfmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 8000 * 3, 3, 24)
            + b"data"
            + struct.pack("<I", len(data))
        )
        p = tmp_path / "i24.wav"
        p.write_bytes(header + data)
        buf = load_wav(p)
        np.testing.assert_allclose(buf.samples, [0.0, 0.5, -1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_wav(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"not a wav at all")
        with pytest.raises((UnreadableFileError, UnsupportedEncodingError)):
            load_wav(p)

    def test_zero_length(self, tmp_path):
        p = tmp_path / "empty.wav"
        wavfile.write(p, 8000, np.zeros(0, dtype=np.int16))
        with pytest.raises(EmptyAudioError):
            load_wav(p)

    def test_too_many_channels(self, tmp_path):
        p = tmp_path / "quad.wav"
        wavfile.write(p, 8000, np.zeros((10, 4), dtype=np.int16))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(p)

    def test_write_read_roundtrip(self, tmp_path):
        x = 0.4 * np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
        p = tmp_path / "rt.wav"
        write_wav(p, AudioBuffer(x, 8000))
        back = load_wav(p)
        assert back.sample_rate == 8000
        np.testing.assert_allclose(back.samples, x, atol=1.0 / 32767)

    @pytest.mark.parametrize(("n", "rate"), [(300_001, 44100), (7, 8000), (65_536, 22050)])
    def test_write_wav_bytes_equal_scipy_writer(self, tmp_path, n, rate):
        # written a block at a time, clipped samples included, against scipy's
        # writer on the int16 samples write_wav's docstring names
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        x[:2] = 1.0 + 1e-7, -1.0 - 1e-7
        write_wav(tmp_path / "ours.wav", AudioBuffer(x, rate))
        wavfile.write(tmp_path / "scipy.wav", rate, np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype(np.int16))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def chunk(cid: bytes, body: bytes) -> bytes:
    """A RIFF chunk, with the pad byte that follows an odd-sized body."""
    return cid + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def write_raw_wav(path, data, tag, width, channels, rate=44100, extensible=False, before=b"", after=b"", head=b"RIFF"):
    """A WAV file around `data`, the stored sample bytes: format `tag` with
    `width`-byte samples, plain or WAVE_FORMAT_EXTENSIBLE, with the chunks
    `before` between fmt and data and `after` the data."""
    align = width * channels
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * align, align, 8 * width)
    if extensible:  # cbSize 22, valid bits, channel mask, then the sub-format GUID
        fmt += struct.pack("<HHII", 22, 8 * width, 0, tag) + bytes.fromhex("0000 1000 8000 00aa 0038 9b71")
    body = b"WAVE" + chunk(b"fmt ", fmt) + before + chunk(b"data", data) + after
    Path(path).write_bytes(head + struct.pack("<I", len(body)) + body)


def scipy_load(path):
    """The reference: scipy.io.wavfile.read, scaled and downmixed as load_wav
    did on top of it: integers over their full scale (24-bit arrives as int32
    with the low byte zero), floats over their peak when it exceeds 1, then
    the per-sample channel mean."""
    rate, data = wavfile.read(path)
    x = data.astype(np.float64)
    if data.dtype == np.uint8:
        x -= 128.0
        x /= 128.0
    elif data.dtype.kind == "i":
        x /= {2: 32768.0, 4: 2147483648.0}[data.dtype.itemsize]
    elif np.max(np.abs(x)) > 1.0 + 1e-6:
        x /= np.max(np.abs(x))
    return rate, (x.mean(axis=1) if x.ndim == 2 else x)


# (format tag, bytes a sample): 8-bit unsigned, 16/24/32-bit PCM, 32/64-bit float
WAV_FORMATS = [(1, 1), (1, 2), (1, 3), (1, 4), (3, 4), (3, 8)]
# 44,100 -> 11,025 Hz reads 4 * _resample_block(1) inputs a block; this spans
# three blocks and a part, and several of the reader's own blocks
LONG_FRAMES = 3 * 4 * _resample_block(1) + 11


def sample_bytes(rng, tag, width, n, loud=1.0):
    if tag == 3:
        return rng.uniform(-loud, loud, n).astype(f"<f{width}").tobytes()
    return rng.integers(0, 256, n * width, dtype=np.uint8).tobytes()  # any bytes are valid PCM


class TestWavFormatsMatchScipy:
    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("tag, width", WAV_FORMATS)
    def test_bits_equal_scipy(self, tmp_path, tag, width, channels, extensible):
        # a 5-byte chunk (and its pad byte) before data, a LIST chunk after it
        rng = np.random.default_rng(10 * tag + width)
        p = tmp_path / "x.wav"
        data = sample_bytes(rng, tag, width, LONG_FRAMES * channels)
        junk, info = chunk(b"JUNK", b"12345"), chunk(b"LIST", b"INFOISFT\x03\0\0\0ab\0\0")
        write_raw_wav(p, data, tag, width, channels, extensible=extensible, before=junk, after=info)
        rate, want = scipy_load(p)
        source = WavSource(p)
        assert (source.sample_rate, source.size) == (rate, LONG_FRAMES)
        buf = load_wav(p)
        assert buf.sample_rate == rate
        assert_same_bits(buf.samples, want)
        assert_same_bits(resample(source, 11025).samples, resample(buf, 11025).samples)

    @pytest.mark.parametrize("width", [4, 8])
    def test_float_peak_above_one_rescaled(self, tmp_path, width):
        p = tmp_path / "loud.wav"
        write_raw_wav(p, sample_bytes(np.random.default_rng(width), 3, width, 2 * 70_001, loud=3.0), 3, width, 2)
        rate, want = scipy_load(p)
        assert np.max(np.abs(wavfile.read(p)[1])) > 1.0
        assert_same_bits(load_wav(p).samples, want)
        assert_same_bits(resample(WavSource(p), 11025).samples, resample(load_wav(p), 11025).samples)

    def test_odd_sized_data_chunk_then_list(self, tmp_path):
        # 8-bit mono, 7 frames: the data chunk is odd-sized and padded
        p = tmp_path / "odd.wav"
        write_raw_wav(p, bytes([0, 64, 128, 192, 255, 1, 2]), 1, 1, 1, rate=8000, after=chunk(b"LIST", b"INFO"))
        assert_same_bits(load_wav(p).samples, scipy_load(p)[1])

    def test_same_rate_source_read_whole(self, tmp_path):
        p = tmp_path / "s.wav"
        write_raw_wav(p, sample_bytes(np.random.default_rng(1), 1, 2, 999), 1, 2, 1, rate=11025)
        assert_same_bits(resample(WavSource(p), 11025).samples, load_wav(p).samples)

    @pytest.mark.parametrize("head", [b"RIFX", b"RF64"])
    def test_rifx_and_rf64_rejected(self, tmp_path, head):
        p = tmp_path / "x.wav"
        write_raw_wav(p, b"\0\0" * 8, 1, 2, 1, head=head)
        with pytest.raises(UnsupportedEncodingError, match=f"{re.escape(str(p))}: {head.decode()}"):
            load_wav(p)


class TestMalformedWav:
    def test_truncated_data_chunk(self, tmp_path):
        # scipy warns and returns the 25 samples present; the reader refuses
        p = tmp_path / "cut.wav"
        write_raw_wav(p, bytes(200), 1, 2, 1, rate=8000)
        p.write_bytes(p.read_bytes()[: 44 + 51])
        with pytest.warns(wavfile.WavFileWarning):
            assert wavfile.read(p)[1].size == 25
        with pytest.raises(UnreadableFileError, match=f"{re.escape(str(p))}: data chunk declares 200 bytes, the file holds 51"):
            WavSource(p)

    @pytest.mark.parametrize("keep", [0, 6, 11, 30, 40])
    def test_cut_header(self, tmp_path, keep):
        p = tmp_path / "cut.wav"
        write_raw_wav(p, bytes(200), 1, 2, 1, rate=8000)
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(UnreadableFileError, match=re.escape(str(p))):
            load_wav(p)

    def test_more_than_two_channels(self, tmp_path):
        p = tmp_path / "quad.wav"
        write_raw_wav(p, bytes(80), 1, 2, 4)
        with pytest.raises(UnsupportedEncodingError, match=f"{re.escape(str(p))}: 4 channels"):
            load_wav(p)

    @pytest.mark.parametrize("extensible", [False, True])
    def test_unsupported_format_tag(self, tmp_path, extensible):
        p = tmp_path / "alaw.wav"
        write_raw_wav(p, bytes(80), 6, 1, 1, extensible=extensible)  # A-law
        with pytest.raises(UnsupportedEncodingError, match=f"{re.escape(str(p))}: format tag 0x0006"):
            load_wav(p)

    def test_data_before_fmt(self, tmp_path):
        p = tmp_path / "nofmt.wav"
        body = b"WAVE" + chunk(b"data", bytes(8))
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnreadableFileError, match="no fmt chunk"):
            load_wav(p)

    def test_non_finite_float_rejected(self, tmp_path):
        p = tmp_path / "nan.wav"
        write_raw_wav(p, np.array([0.5, np.nan], "<f4").tobytes(), 3, 4, 1)
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: audio samples must be finite"):
            WavSource(p)


class TestResample:
    def test_same_rate_is_noop(self):
        buf = AudioBuffer(np.linspace(-0.5, 0.5, 100), 8000)
        assert resample(buf, 8000) is buf

    def test_sine_survives_downsampling(self):
        sr = 22050
        t = np.arange(sr) / sr
        buf = AudioBuffer(0.8 * np.sin(2 * np.pi * 1000 * t), sr)
        out = resample(buf, 11025)
        assert abs(out.samples.size - 11025) <= 1
        peak = dft_peak_hz(out.samples, 11025)
        assert abs(peak - 1000.0) <= 11025 / out.samples.size + 1e-9

    def test_ratio_four(self):
        buf = AudioBuffer(np.zeros(44100) + 0.1, 44100)
        out = resample(buf, 11025)
        assert abs(out.samples.size - 11025) <= 1

    def test_duration_preserved(self):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(0.3 * rng.standard_normal(48000).clip(-3, 3) / 3, 48000)
        out = resample(buf, 11025)
        assert abs(out.duration - buf.duration) <= 1.0 / 11025

    def test_bad_rate(self):
        buf = AudioBuffer(np.zeros(10) + 0.1, 8000)
        with pytest.raises(ValueError):
            resample(buf, 0)

    def test_output_within_range(self):
        # near-full-scale square-ish signal provokes ringing overshoot
        x = np.sign(np.sin(2 * np.pi * 400 * np.arange(22050) / 22050)) * 0.999
        out = resample(AudioBuffer(x, 22050), 11025)
        assert np.max(np.abs(out.samples)) <= 1.0 + 1e-6

    @pytest.mark.parametrize("src", [48000, 44100, 22050, 16000, 8000])
    def test_unit_gain(self, src):
        # a 440 Hz tone keeps its level: sources with up > 1 used to come
        # out `up` times too loud and then be normalized to peak 1
        x = 0.5 * np.sin(2 * np.pi * 440 * np.arange(src) / src)
        out = resample(AudioBuffer(x, src), 11025)
        assert 0.49 < np.max(np.abs(out.samples)) < 0.51


RATE_PAIRS = [(44100, 11025), (48000, 11025), (22050, 11025), (8000, 11025), (16000, 11025)]


def scipy_resample(x, src, dst):
    """The reference: scipy's resample_poly with the package's taps, divided
    by its peak when that exceeds 1, as resample documents."""
    from scipy.signal import resample_poly

    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    y = resample_poly(x, up, down, window=_resample_taps(up, down))
    peak = np.max(np.abs(y))
    return y / peak if peak > 1.0 else y


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also tells 0.0 from -0.0


class TestResampleMatchesScipy:
    @pytest.mark.parametrize("src, dst", RATE_PAIRS)
    def test_bits_equal_resample_poly(self, src, dst):
        g = math.gcd(src, dst)
        up, down = dst // g, src // g
        filter_span = _resample_taps(up, down).size // up  # input samples under the filter
        block = _resample_block(up) * down  # input samples that fill one output block
        rng = np.random.default_rng(src)
        for n in (1, filter_span // 2, 4001, block - 1, block, block + 1):
            x = rng.uniform(-0.5, 0.5, n)
            assert_same_bits(resample(AudioBuffer(x, src), dst).samples, scipy_resample(x, src, dst))

    def test_rescaled_peak_matches(self):
        # ringing past full scale: the output is divided by its peak
        from scipy.signal import resample_poly

        x = np.sign(np.sin(2 * np.pi * 400 * np.arange(44100) / 44100)) * 0.999
        assert np.max(np.abs(resample_poly(x, 1, 4, window=_resample_taps(1, 4)))) > 1.0
        assert_same_bits(resample(AudioBuffer(x, 44100), 11025).samples, scipy_resample(x, 44100, 11025))

    def test_stereo_wav(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "stereo.wav"
        wavfile.write(p, 48000, rng.integers(-20000, 20000, (48000 + 7, 2)).astype(np.int16))
        buf = load_wav(p)
        assert_same_bits(resample(buf, 11025).samples, scipy_resample(buf.samples, 48000, 11025))


def at_cpus(monkeypatch, n):
    """Make the resampler's thread-count rule see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def threads_at_four_cpus():
    """The thread-count rule where four CPUs are usable (run in a pool worker)."""
    os.sched_getaffinity = lambda pid: set(range(4))
    return _resample_threads(1000)


class RaisingSource:
    """A silent source at 44.1 kHz whose slices that start at `fail_from` or later raise."""

    sample_rate = 44100

    def __init__(self, size, fail_from):
        self.size, self.fail_from = size, fail_from

    def __getitem__(self, key):
        lo, hi, _ = key.indices(self.size)
        if lo >= self.fail_from:
            raise OSError(f"unreadable from sample {lo}")
        return np.zeros(hi - lo)


class TestResampleThreads:
    def resample_at(self, monkeypatch, n, source, dst):
        """resample at n usable CPUs; checks that n threads each read blocks."""
        readers, read = set(), audio_io.zero_extended

        def zero_extended(x, lo, hi):
            readers.add(threading.get_ident())
            return read(x, lo, hi)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads trade the interpreter often
        try:
            with monkeypatch.context() as m:
                at_cpus(m, n)
                m.setattr(audio_io, "zero_extended", zero_extended)
                out = resample(source, dst).samples
        finally:
            sys.setswitchinterval(interval)
        assert len(readers) == n
        return out

    def test_wav_source_bits_at_any_thread_count(self, tmp_path, monkeypatch):
        # 44.1 -> 11.025 kHz (up 1): three blocks and a part
        p = tmp_path / "long.wav"
        write_raw_wav(p, sample_bytes(np.random.default_rng(5), 1, 2, LONG_FRAMES), 1, 2, 1)
        one = self.resample_at(monkeypatch, 1, WavSource(p), 11025)
        assert_same_bits(one, scipy_resample(load_wav(p).samples, 44100, 11025))
        for n in (2, 3):
            assert_same_bits(self.resample_at(monkeypatch, n, WavSource(p), 11025), one)

    def test_up_147_bits_at_any_thread_count(self, monkeypatch):
        # 48 -> 11.025 kHz: up 147, down 640, 150,528 outputs a block; three blocks
        block = _resample_block(147) * 640  # input samples that fill one output block
        x = np.random.default_rng(48).uniform(-0.5, 0.5, 2 * block + 4001)
        one = self.resample_at(monkeypatch, 1, AudioBuffer(x, 48000), 11025)
        assert_same_bits(one, scipy_resample(x, 48000, 11025))
        for n in (2, 3):
            assert_same_bits(self.resample_at(monkeypatch, n, AudioBuffer(x, 48000), 11025), one)

    @pytest.mark.parametrize("late", [2, 3])
    def test_error_in_a_late_block_raises_and_leaves_no_thread(self, monkeypatch, late):
        # four blocks on two threads: blocks 0 and 2 on the calling thread,
        # 1 and 3 on the other. Blocks from `late` on fail to read (a block
        # starts reading the filter's span, under 1000 samples, before it):
        # at 3 only the other thread's last block, at 2 one on each thread.
        block = 4 * _resample_block(1)  # input samples that fill one output block
        threads = threading.active_count()
        at_cpus(monkeypatch, 2)
        with pytest.raises(OSError, match="unreadable from sample"):
            resample(RaisingSource(4 * block, late * block - 1000), 11025)
        assert threading.active_count() == threads
        resample(RaisingSource(4 * block, 4 * block), 11025)
        assert threading.active_count() == threads

    def test_thread_count_rule(self, monkeypatch):
        at_cpus(monkeypatch, 3)
        assert [_resample_threads(n) for n in (1, 2, 3, 9)] == [1, 2, 3, 3]
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:  # a --jobs worker resamples on one thread
            assert pool.submit(threads_at_four_cpus).result(timeout=60) == 1


class TestSynthesizeTriads:
    def test_c_major_peaks(self):
        buf = synthesize_triads([({0, 4, 7}, 0, 1.0)], 11025)
        assert buf.samples.size == 11025
        spec = np.abs(np.fft.rfft(buf.samples))
        freqs = np.fft.rfftfreq(buf.samples.size, 1 / 11025)
        top4 = sorted(freqs[np.argsort(spec)[-4:]])
        expect = [65.41, 261.63, 329.63, 392.00]
        for got, want in zip(top4, expect):
            assert abs(got - want) < 2.0

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            synthesize_triads([], 11025)

    def test_durations_add(self):
        buf = synthesize_triads([({0}, 0, 0.5), ({4}, 4, 0.5)], 11025)
        assert abs(buf.samples.size - 11025) <= 1

    def test_peak_is_half(self):
        buf = synthesize_triads([({0, 4, 7}, 7, 0.8)], 11025)
        assert np.max(np.abs(buf.samples)) <= 0.5 + 1e-6
        assert np.max(np.abs(buf.samples)) > 0.45

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            synthesize_triads([({0}, 0, -1.0)], 11025)
        with pytest.raises(ValueError):
            synthesize_triads([({12}, 0, 1.0)], 11025)


class TestAudioBuffer:
    def test_rejects_empty(self):
        with pytest.raises(EmptyAudioError):
            AudioBuffer(np.zeros(0), 8000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            AudioBuffer(np.array([0.1, np.nan, -0.2]), 8000)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([1.5]), 8000)

    def test_load_resample_roundtrip_duration(self, tmp_path):
        buf = synthesize_triads([({0, 4, 7}, 0, 1.3)], 44100)
        p = tmp_path / "x.wav"
        write_wav(p, buf)
        out = resample(load_wav(p), 11025)
        assert abs(out.duration - buf.duration) <= 1.0 / 11025


def test_package_import_defers_scipy_signal():
    # scipy dominates import time; only eval --compare's paired t-test
    # needs it. A chroma run imports no scipy at all (see
    # test_chroma_command_never_imports_scipy_signal and, with every scipy
    # import blocked, test_chroma_never_imports_scipy in test_cli.py), and
    # neither does a decode (test_decode_never_imports_scipy).
    mods = ("scipy.signal", "scipy.io", "scipy.linalg", "scipy.special")
    code = f"import sys, chordscribe; print(*(m in sys.modules for m in {mods!r}))"
    src = str(Path(chordscribe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False False False False"


def test_chroma_command_never_imports_scipy_signal(tmp_path):
    # the WAV reader and the resampler are numpy's own: a chroma run that
    # reads and resamples a WAV loads no scipy module at all
    audio = tmp_path / "audio"
    audio.mkdir()
    write_wav(audio / "song.wav", synthesize_triads([({0, 4, 7}, 0, 1.0)], 22050))
    argv = ["chroma", "--audio-dir", str(audio), "--chroma-dir", str(tmp_path / "chroma")]
    code = (
        "import sys; from chordscribe.cli import main; "
        f"rc = main({argv!r}); print(rc, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = str(Path(chordscribe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split()[-2:] == ["0", "False"]
