"""WAV loading, band-limited resampling, and synthetic triad fixtures."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class AudioError(Exception):
    """Base class for audio input problems."""


class UnreadableFileError(AudioError):
    """File is missing, truncated, or not a RIFF/WAV container."""


class UnsupportedEncodingError(AudioError):
    """Encoding outside 8/16/24/32-bit PCM or 32/64-bit float, more than 2 channels, or RIFX/RF64."""


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


_WAV_BLOCK = 1 << 16  # frames read, or samples written, at a time

# Per (format tag, bytes a sample): the dtype read, and the offset and
# full-scale divisor that map it to [-1, 1]; float files divide by their peak
# instead when it exceeds 1. 24-bit PCM is widened to int32 with the low byte
# zero, as scipy.io.wavfile delivers it, so it shares int32's divisor.
_ENCODINGS = {
    (1, 1): ("u1", 128.0, 128.0),
    (1, 2): ("<i2", 0.0, 32768.0),
    (1, 3): ("u1", 0.0, 2147483648.0),
    (1, 4): ("<i4", 0.0, 2147483648.0),
    (3, 4): ("<f4", 0.0, None),
    (3, 8): ("<f8", 0.0, None),
}
# A WAVE_FORMAT_EXTENSIBLE sub-format GUID after its 4-byte format tag.
_SUBFORMAT_TAIL = bytes.fromhex("0000 1000 8000 00aa 0038 9b71")


class WavSource:
    """The samples of a little-endian RIFF/WAV file, read a block at a time.

    Reads 8-bit unsigned and 16/24/32-bit PCM and 32/64-bit float, mono or
    stereo, plain or WAVE_FORMAT_EXTENSIBLE. `source[lo:hi]` reads frames
    lo..hi from the file as float64: integer samples scaled to [-1, 1] by
    the full-scale magnitude of their bit depth, float samples divided by
    the file's peak when it exceeds 1, and stereo downmixed by per-sample
    channel mean. Each step acts sample by sample, so a slice has the bits
    of the same frames of the whole file. `size` is the frame count and
    `sample_rate` the rate in Hz, so `resample` takes a source in place of
    an AudioBuffer and never holds the source whole.

    Raises UnreadableFileError (missing, truncated or not RIFF/WAVE),
    UnsupportedEncodingError (other encodings, more than 2 channels, RIFX
    and RF64) and EmptyAudioError, each naming the file.
    """

    def __init__(self, path):
        self.path = path
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise UnreadableFileError(f"{path}: {exc.strerror.lower()}") from exc
        with fh:
            head = fh.read(12)
            if head[:4] in (b"RIFX", b"RF64"):
                raise UnsupportedEncodingError(f"{path}: {head[:4].decode()} container (only little-endian RIFF is read)")
            if head[:4] != b"RIFF" or head[8:] != b"WAVE":
                raise UnreadableFileError(f"{path}: not a RIFF/WAVE file")
            fmt = b""
            while len(head := fh.read(8)) == 8:
                chunk, size = struct.unpack("<4sI", head)
                if chunk == b"data":
                    break
                start = fh.tell()
                if chunk == b"fmt ":
                    fmt = fh.read(min(size, 40))  # WAVE_FORMAT_EXTENSIBLE's fields end at 40
                fh.seek(start + size + size % 2)  # an odd-sized chunk is followed by a pad byte
            else:
                raise UnreadableFileError(f"{path}: truncated before a data chunk")
            if len(fmt) < 16:
                raise UnreadableFileError(f"{path}: no fmt chunk before the data chunk")
            self._offset = fh.tell()
            present = os.fstat(fh.fileno()).st_size - self._offset
        if size > present:
            raise UnreadableFileError(f"{path}: data chunk declares {size} bytes, the file holds {present}")

        tag, channels, self.sample_rate, _, align, bits = struct.unpack("<HHIIHH", fmt[:16])
        if tag == 0xFFFE and len(fmt) >= 40 and fmt[28:40] == _SUBFORMAT_TAIL:
            tag = struct.unpack("<I", fmt[24:28])[0]
        if channels not in (1, 2):
            raise UnsupportedEncodingError(f"{path}: {channels} channels (only mono/stereo supported)")
        width = align // channels
        if (tag, width) not in _ENCODINGS or self.sample_rate == 0:
            raise UnsupportedEncodingError(
                f"{path}: format tag {tag:#06x}, {bits} bits in {width} bytes at {self.sample_rate} Hz"
                " (only 8/16/24/32-bit PCM and 32/64-bit float)"
            )
        self._dtype, self._shift, self._scale = _ENCODINGS[tag, width]
        self._channels, self._frame_bytes = channels, align
        self._per_read = channels * (3 if width == 3 else 1)  # dtype items a frame
        self.size = size // align
        if self.size == 0:
            raise EmptyAudioError(f"{path}: zero-length audio")
        if self._scale is None:
            peak = 0.0
            for raw in self._raw_blocks(0, self.size):
                block_peak = _peak(raw)  # NaN if a sample is not finite
                if not math.isfinite(block_peak):
                    raise ValueError(f"{path}: audio samples must be finite")
                peak = max(peak, block_peak)
            self._scale = peak if peak > 1.0 + 1e-6 else 1.0

    def _raw_blocks(self, lo: int, hi: int):
        """The stored samples of frames lo..hi, _WAV_BLOCK frames at a time."""
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + lo * self._frame_bytes)
            for i in range(lo, hi, _WAV_BLOCK):
                raw = np.fromfile(fh, self._dtype, min(_WAV_BLOCK, hi - i) * self._per_read)
                if self._per_read == 3 * self._channels:  # 24-bit PCM: widen to int32
                    wide = np.zeros((raw.size // 3, 4), np.uint8)
                    wide[:, 1:] = raw.reshape(-1, 3)
                    raw = wide.view("<i4").ravel()
                yield raw

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, step = key.indices(self.size)
        if step != 1:
            raise ValueError("a WavSource slice must be contiguous")
        out = np.empty(max(hi - lo, 0))
        i = 0
        for raw in self._raw_blocks(lo, hi):
            x = raw.astype(np.float64)
            x -= self._shift
            x /= self._scale
            if self._channels == 2:
                x = x.reshape(-1, 2).mean(axis=1)
            out[i : i + x.size] = x
            i += x.size
        return out


def load_wav(path) -> AudioBuffer:
    """Read a WAV file whole into a mono AudioBuffer.

    The samples of a WavSource (which see for the formats, scaling and
    errors), filled into one float64 array a block at a time.
    """
    source = WavSource(path)
    return AudioBuffer(source[0 : source.size], source.sample_rate)


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


def zero_extended(x, lo: int, hi: int) -> np.ndarray:
    """x[lo:hi] with zeros wherever the range leaves the signal.

    For an array, a view when the range lies inside x, else a copy of
    hi - lo samples; x may be anything with .size and slicing.
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


def _polyphase(x, up: int, down: int, taps: np.ndarray) -> np.ndarray:
    """Upsample by `up`, filter with `taps`, downsample by `down`, trim.

    x is an array or a WavSource: all that is read of it is x.size and,
    one block at a time, slices through zero_extended.

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


def resample(buf, target_sr: int) -> AudioBuffer:
    """Resample an AudioBuffer or a WavSource to target_sr with a
    windowed-sinc polyphase filter.

    numpy only, with the bits of scipy.signal.resample_poly for the taps
    of _resample_taps; the source is read in blocks, so only the output is
    ever whole, and resampling a WavSource gives the bits of resampling its
    load_wav. Output duration equals the input duration within one output
    sample period. If filter ringing pushes the peak past full scale, the
    whole output is rescaled in place to peak 1 (shape-preserving).
    """
    if target_sr <= 0:
        raise ValueError(f"target sample rate must be positive, got {target_sr}")
    target_sr = int(target_sr)
    x = buf.samples if isinstance(buf, AudioBuffer) else buf
    if target_sr == buf.sample_rate:
        return buf if x is not buf else AudioBuffer(x[0 : x.size], target_sr)
    g = math.gcd(buf.sample_rate, target_sr)
    up, down = target_sr // g, buf.sample_rate // g
    out = _polyphase(x, up, down, _resample_taps(up, down))
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
