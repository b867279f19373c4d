"""WAV loading, band-limited resampling, and synthetic triad fixtures."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class AudioError(Exception):
    """Base class for audio input problems."""


class UnreadableFileError(AudioError):
    """File is missing, truncated, or not a RIFF/WAV container."""


class UnsupportedEncodingError(AudioError):
    """Encoding outside 8/16/24/32-bit PCM or 32-bit float, or more than 2 channels."""


class EmptyAudioError(AudioError):
    """WAV contains no samples."""


def _peak(x: np.ndarray) -> float:
    """Largest |sample|, without an |x| temporary; NaN if any sample is not finite."""
    hi, lo = float(x.max()), float(x.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        return math.nan
    return max(hi, -lo)


@dataclass
class AudioBuffer:
    """Mono audio samples in [-1, 1] together with their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise EmptyAudioError("audio buffer needs a non-empty 1-d sample array")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ValueError(f"sample rate must be a positive integer, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)
        peak = _peak(self.samples)
        if not math.isfinite(peak):
            raise ValueError("audio samples must be finite")
        if peak > 1.0 + 1e-6:
            raise ValueError(f"sample magnitudes exceed 1 (peak {peak:.6g})")

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


_WAV_BLOCK = 1 << 16  # samples write_wav converts at a time

# Full-scale divisor per integer WAV dtype. scipy delivers 24-bit PCM as
# int32 with the low byte zeroed, so the int32 divisor covers both.
_INT_SCALE = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


def load_wav(path) -> AudioBuffer:
    """Read a PCM WAV file into a mono AudioBuffer.

    Integer samples are scaled to [-1, 1] by the full-scale magnitude of
    their bit depth; stereo is downmixed by per-sample channel mean.

    Raises
    ------
    UnreadableFileError, UnsupportedEncodingError, EmptyAudioError
    """
    from scipy.io import wavfile  # imported here: decoding never needs it

    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError as exc:
        raise UnreadableFileError(f"{path}: no such file") from exc
    except ValueError as exc:
        msg = str(exc)
        if "format" in msg.lower() or "bit depth" in msg.lower() or "mmap" in msg.lower():
            raise UnsupportedEncodingError(f"{path}: {msg}") from exc
        raise UnreadableFileError(f"{path}: {msg}") from exc
    except Exception as exc:  # struct.error and friends on truncated containers
        raise UnreadableFileError(f"{path}: {exc}") from exc

    if data.size == 0:
        raise EmptyAudioError(f"{path}: zero-length audio")
    if data.ndim == 2 and data.shape[1] > 2:
        raise UnsupportedEncodingError(
            f"{path}: {data.shape[1]} channels (only mono/stereo supported)"
        )

    # Scaled in place: a float64 copy of the file is the only full-size temporary.
    if data.dtype in _INT_SCALE:
        samples = data.astype(np.float64)
        samples /= _INT_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        samples = data.astype(np.float64)
        samples -= 128.0
        samples /= 128.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        peak = _peak(samples)  # NaN for a non-finite sample, which AudioBuffer rejects
        if peak > 1.0 + 1e-6:
            samples /= peak
    else:
        raise UnsupportedEncodingError(f"{path}: unsupported sample dtype {data.dtype}")

    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate))


def write_wav(path, buf: AudioBuffer) -> None:
    """Write a buffer as 16-bit PCM WAV, the samples a block at a time: clipped
    to [-1, 1], times 32767 and rounded (scipy.io.wavfile.write's bytes)."""
    n_bytes, rate = 2 * buf.samples.size, buf.sample_rate
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + n_bytes, b"WAVE", b"fmt ", 16, 1, 1, rate, 2 * rate,
                             2, 16, b"data", n_bytes))  # fmt: skip
        for i in range(0, buf.samples.size, _WAV_BLOCK):
            np.round(np.clip(buf.samples[i : i + _WAV_BLOCK], -1.0, 1.0) * 32767.0).astype("<i2").tofile(fh)


def _resample_taps(up: int, down: int) -> np.ndarray:
    """Windowed-sinc low-pass for polyphase resampling.

    Cutoff sits at 0.45x the smaller of the source/target Nyquist rates
    (band-limited correctness, not archival quality). Coefficients sum to
    1; the polyphase filter applies the interpolation gain `up`, so the DC
    gain of the resampler is 1.
    """
    # Cycles per sample at the upsampled rate.
    cutoff = 0.45 / (2.0 * max(up, down))
    half = int(math.ceil(12.0 / (2.0 * cutoff)))
    n = np.arange(-half, half + 1, dtype=np.float64)
    taps = 2.0 * cutoff * np.sinc(2.0 * cutoff * n) * np.blackman(2 * half + 1)
    return taps * (1.0 / taps.sum())


def zero_extended(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[lo:hi] with zeros wherever the range leaves the signal.

    A view when the range lies inside x, else a copy of hi - lo samples.
    """
    if 0 <= lo and hi <= x.size:
        return x[lo:hi]
    out = np.zeros(hi - lo)
    a, b = max(lo, 0), min(hi, x.size)
    if a < b:
        out[a - lo : b - lo] = x[a:b]
    return out


def _upfirdn_len(n_taps: int, n_in: int, up: int, down: int) -> int:
    """Length of the full upsample-filter-downsample output."""
    return ((n_in - 1) * up + n_taps - 1) // down + 1


def _resample_block(up: int) -> int:
    """Outputs per filter phase computed together.

    At least 1024, so per-call overhead stays small beside the arithmetic,
    and at least 32K outputs over all phases; a block's input is then
    m_block * down samples, a few MB at most for common rates.
    """
    return max(1 << 10, (1 << 15) // up)


# ufunc buffer size while resampling. A product of a (phases, 1) column and
# a row is a broadcast, and numpy copies broadcast operands through its
# 8192-element buffers when rows are shorter than that; at 16 the product
# runs on the rows in place, about 2-3x faster. Speed only: the bits are
# the same at any buffer size.
_RESAMPLE_BUFSIZE = 16


def _polyphase(x: np.ndarray, up: int, down: int, taps: np.ndarray) -> np.ndarray:
    """Upsample by `up`, filter with `taps`, downsample by `down`, trim.

    Gives the bits of scipy.signal.resample_poly(x, up, down, window=taps)
    (up and down coprime): the same padding of the filter and the same
    trimming, and each output accumulates x[j] * h from 0.0 in increasing
    j, every product and every sum rounded on its own, as upfirdn does.

    Output i = m * up + r reads filter phase t(r) at inputs
    m * down + first[r] + k, for taps k = 0 .. n_taps - 1. A block of m
    values has its input deinterleaved once into `down` contiguous rows;
    input row q (offset q from first[0]) feeds the phases r with
    0 <= q - offset[r] < n_taps, a contiguous range. Taking the rows in
    increasing q, each row is one multiply by those phases' coefficients
    (an outer product) and one add into their accumulator rows, so every
    output still adds its taps in increasing j.
    """
    n_in = x.size
    n_out = -(-n_in * up // down)
    half_len = (taps.size - 1) // 2
    n_pre = down - half_len % down
    n_pre_remove = (half_len + n_pre) // down
    n_post = 0
    while _upfirdn_len(taps.size + n_pre + n_post, n_in, up, down) < n_out + n_pre_remove:
        n_post += 1
    h = np.concatenate((np.zeros(n_pre), taps * up, np.zeros(n_post)))
    h = np.concatenate((h, np.zeros(-h.size % up)))
    phases = h.reshape(-1, up).T[:, ::-1]  # phase t, taps in input order
    n_taps = phases.shape[1]

    shifts = (np.arange(up) + n_pre_remove) * down
    first = shifts // up - n_taps + 1  # input index of tap 0 for outputs m = 0
    coef = phases[shifts % up]  # (r, tap)
    offset = first - first[0]  # >= 0: first[] increases with r
    n_rows = int(offset[-1]) + n_taps
    q = np.arange(n_rows)
    r_lo = np.searchsorted(offset + n_taps - 1, q)  # first phase row q feeds
    r_hi = np.searchsorted(offset, q, side="right")  # one past the last
    m_block = _resample_block(up)
    n_cols = m_block + (n_rows - 1) // down

    out = np.empty(n_out)
    rows = np.empty((down, n_cols))
    acc = np.empty((up, m_block))
    prod = np.empty((int((r_hi - r_lo).max()), m_block))
    feeds = []  # per row q: (its block values, coefficients, accumulators, product)
    for qi, a, b in zip(q.tolist(), r_lo.tolist(), r_hi.tolist()):
        col = coef[np.arange(a, b), qi - offset[a:b]][:, None]
        row = rows[qi % down, qi // down : qi // down + m_block]
        feeds.append((row, col, acc[a:b], prod[: b - a]))

    old_bufsize = np.setbufsize(_RESAMPLE_BUFSIZE)
    try:
        for i0 in range(0, n_out, m_block * up):
            lo = i0 // up * down + int(first[0])
            window = zero_extended(x, lo, lo + n_cols * down)
            rows[...] = window.reshape(n_cols, down).T
            acc.fill(0.0)
            for row, col, a, p in feeds:
                np.multiply(col, row, out=p)
                a += p
            i1 = min(n_out, i0 + m_block * up)
            out[i0:i1] = acc.T.ravel()[: i1 - i0]
    finally:
        np.setbufsize(old_bufsize)
    return out


def resample(buf: AudioBuffer, target_sr: int) -> AudioBuffer:
    """Resample to target_sr with a windowed-sinc polyphase filter.

    numpy only, with the bits of scipy.signal.resample_poly for the taps
    of _resample_taps; the source is read in blocks, so apart from the
    output no array grows with the signal. Output duration equals the
    input duration within one output sample period. If filter ringing
    pushes the peak past full scale, the whole buffer is rescaled in place
    to peak 1 (shape-preserving).
    """
    if target_sr <= 0:
        raise ValueError(f"target sample rate must be positive, got {target_sr}")
    target_sr = int(target_sr)
    if target_sr == buf.sample_rate:
        return buf
    g = math.gcd(buf.sample_rate, target_sr)
    up, down = target_sr // g, buf.sample_rate // g
    out = _polyphase(buf.samples, up, down, _resample_taps(up, down))
    peak = _peak(out)
    if peak > 1.0:
        out /= peak
    return AudioBuffer(out, target_sr)


def pitch_frequency(pitch_class: int, octave: int) -> float:
    """Equal-tempered frequency of a pitch class (C=0..B=11) in an octave."""
    midi = 12 * (octave + 1) + pitch_class
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def synthesize_triads(
    script: Sequence[tuple], sr: int = 11025, fade: float = 0.01
) -> AudioBuffer:
    """Render a chord script as a sum of sinusoids, peak-normalized to 0.5.

    Each script entry is (chord_pitch_classes, bass_pitch_class, duration_s).
    Chord tones sound in octave 4 (the treble analysis band), the bass tone
    in octave 2 (the bass band). Segment edges get a short raised-cosine
    fade to avoid clicks.
    """
    if not script:
        raise ValueError("empty synthesis script")
    parts = []
    for chord_pcs, bass_pc, dur in script:
        if dur <= 0:
            raise ValueError(f"segment duration must be positive, got {dur}")
        pcs = sorted(set(int(p) for p in chord_pcs))
        for pc in pcs + [int(bass_pc)]:
            if not 0 <= pc <= 11:
                raise ValueError(f"pitch class out of range: {pc}")
        n = int(round(dur * sr))
        t = np.arange(n) / sr
        seg = np.zeros(n)
        for pc in pcs:
            seg += np.sin(2.0 * np.pi * pitch_frequency(pc, 4) * t)
        seg += np.sin(2.0 * np.pi * pitch_frequency(int(bass_pc), 2) * t)
        n_fade = min(n // 2, int(round(fade * sr)))
        if n_fade > 0:
            ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)
            seg[:n_fade] *= ramp
            seg[-n_fade:] *= ramp[::-1]
        parts.append(seg)
    x = np.concatenate(parts)
    peak = float(np.max(np.abs(x)))
    if peak > 0:
        x *= 0.5 / peak
    return AudioBuffer(x, sr)
