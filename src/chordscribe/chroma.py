"""Loudness-based bass/treble chromagrams.

The chain is: constant-Q magnitudes -> sound power level (dB) ->
A-weighting -> fold onto the 12 pitch classes -> per-frame min-max
normalization. Perceived loudness is roughly linear in SPL, and loudness
of well-separated partials is additive, which is what makes summing
weighted dB values per pitch class meaningful.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .annotations import read_lines
from .audio_io import AudioBuffer, zero_extended

# Analysis bands as inclusive MIDI note ranges: bass A1-G#3 (55-207.65 Hz),
# treble A3-G#6 (220-1661.2 Hz).
BASS_BAND = (33, 56)
TREBLE_BAND = (57, 92)


@dataclass(frozen=True)
class ChromaConfig:
    """Constant-Q / chromagram extraction parameters.

    bins_per_semitone must be uniform across the band (it is by
    construction here): equal bin counts per pitch class are what make the
    normalized chromagram invariant to audio gain.
    """

    band_low: int
    band_high: int
    q_factor: float = 17.0
    hop: int = 1024
    f_ref: float = 440.0
    bins_per_semitone: int = 1
    spl_floor: float = -120.0

    def __post_init__(self):
        if self.band_low >= self.band_high:
            raise ValueError("band_low must be below band_high")
        if self.bins_per_semitone < 1:
            raise ValueError("bins_per_semitone must be >= 1")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.q_factor <= 0 or self.f_ref <= 0:
            raise ValueError("q_factor and f_ref must be positive")

    def bin_frequencies(self) -> np.ndarray:
        """Center frequencies of all analysis bins, ascending."""
        n_notes = self.band_high - self.band_low + 1
        steps = self.band_low + np.arange(n_notes * self.bins_per_semitone) / self.bins_per_semitone
        return self.f_ref * 2.0 ** ((steps - 69.0) / 12.0)


def treble_config(**overrides) -> ChromaConfig:
    return ChromaConfig(band_low=TREBLE_BAND[0], band_high=TREBLE_BAND[1], **overrides)


def bass_config(**overrides) -> ChromaConfig:
    return ChromaConfig(band_low=BASS_BAND[0], band_high=BASS_BAND[1], **overrides)


@dataclass
class SpectralMatrix:
    """Per-bin, per-frame values (magnitude or dB) with bin frequencies."""

    values: np.ndarray  # (S, T)
    freqs: np.ndarray  # (S,)
    starts: np.ndarray  # (T,) frame start times, s
    ends: np.ndarray  # (T,) frame end times, s

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.starts = np.asarray(self.starts, dtype=np.float64)
        self.ends = np.asarray(self.ends, dtype=np.float64)
        if self.values.shape != (self.freqs.size, self.starts.size):
            raise ValueError("values shape inconsistent with freqs/frames")
        if self.starts.size != self.ends.size:
            raise ValueError("starts/ends length mismatch")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")

    @property
    def frame_times(self) -> np.ndarray:
        """Frame-center timestamps."""
        return 0.5 * (self.starts + self.ends)

    @property
    def n_frames(self) -> int:
        return self.starts.size


@dataclass
class Chromagram:
    """12 x T matrix of normalized pitch-class values in [0, 1]."""

    values: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    band: str  # "bass" | "treble"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.starts = np.asarray(self.starts, dtype=np.float64)
        self.ends = np.asarray(self.ends, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != 12:
            raise ValueError("chromagram values must be 12 x T")
        if self.values.shape[1] != self.starts.size or self.starts.size != self.ends.size:
            raise ValueError("frame count mismatch")
        if self.band not in ("bass", "treble"):
            raise ValueError(f"band must be 'bass' or 'treble', got {self.band!r}")
        ok = np.isfinite(self.values).all(axis=0) & np.isfinite(self.starts) & np.isfinite(self.ends)
        if not ok.all():
            raise ValueError(f"chromagram frame {np.argmin(ok)} holds a non-finite value")
        if self.values.size and (self.values.min() < -1e-9 or self.values.max() > 1.0 + 1e-9):
            raise ValueError("chromagram entries must lie in [0, 1]")

    @property
    def frame_times(self) -> np.ndarray:
        return 0.5 * (self.starts + self.ends)

    @property
    def n_frames(self) -> int:
        return self.starts.size


def _frame_grid(n_samples: int, hop: int, sr: int):
    """Frame tiling: frame i covers [i*hop, (i+1)*hop) samples.

    The count is rounded (not ceiled) so every frame center lies inside
    the signal; a trailing all-padding frame would carry no information.
    """
    n_frames = max(1, int(round(n_samples / hop)))
    centers = np.round((np.arange(n_frames) + 0.5) * hop).astype(np.int64)
    starts = np.arange(n_frames) * hop / sr
    ends = (np.arange(n_frames) + 1) * hop / sr
    return centers, starts, ends


@functools.lru_cache(maxsize=16)
def _kernel_bank(sr: int, cfg: ChromaConfig) -> tuple:
    """(L, w*cos, w*sin) for each bin of cfg at sample rate sr.

    Built once per (sr, cfg) and shared, so the arrays are read-only.
    Callers pass cfg with a fixed hop: the kernels do not depend on it.
    """
    bank = []
    for f in cfg.bin_frequencies():
        L = max(1, int(round(cfg.q_factor * sr / f)))
        w = np.hamming(L)
        # Q cycles over the ideal window Q*SR/f, i.e. f/SR cycles per
        # sample; using the rounded L in the exponent would quantize the
        # analyzed frequency by up to f/(2L).
        phase = 2.0 * np.pi * (f / sr) * np.arange(L)
        kern_cos = w * np.cos(phase)
        kern_sin = w * np.sin(phase)
        kern_cos.flags.writeable = kern_sin.flags.writeable = False
        bank.append((L, kern_cos, kern_sin))
    return tuple(bank)


# Frames per block. A block's windows stay small however long the signal
# is. With OpenBLAS 0.3.31 (x86-64), 64-frame products gave the same bits
# at one and two threads, where products over all frames or over 256 did
# not. There a product whose row count is a multiple of 4 also gives each
# row the bits it gets in a 64-row product (counts of 1, 2, 3, 5, 21 and
# 22 do not), so a block may be taken as k products of 64/k rows for k up
# to 16. How OpenBLAS splits a product over threads is not documented, so
# this holds only as far as the tests at one and two threads show it.
_CQ_BLOCK = 64


def _window_stride(L: int, hop: int) -> int:
    """The least power of two k with k*hop >= L: the L-sample windows of
    frames i and i + k then do not overlap."""
    k = 1
    while k * hop < L:
        k *= 2
    return k


def constant_q(buf: AudioBuffer, cfg: ChromaConfig) -> SpectralMatrix:
    """Constant-Q magnitude spectrogram.

    Bin s at frequency f_s uses a window of L_s = Q*SR/f_s samples,
    centered on the frame, Hamming-tapered, multiplied against a complex
    exponential completing Q cycles over the window; magnitudes are
    normalized by L_s. Windows reaching past the signal edges see zeros.

    Frames are taken 64 at a time, so memory beyond the signal and the
    output stays a few MB; the kernels come from a per-process cache.
    For an even hop, frame centers lie exactly hop apart; within a block,
    bin s then reads the windows of every k-th frame (`_window_stride`) as
    a strided view of the block's samples, with no copy, in k products of
    64/k rows, a multiple of 4 (see _CQ_BLOCK). For an odd hop, k > 16, or
    k > 1 in a short final block, the windows are copied.
    """
    freqs = cfg.bin_frequencies()
    sr = buf.sample_rate
    if freqs[-1] >= sr / 2:
        raise ValueError(
            f"top analysis frequency {freqs[-1]:.1f} Hz exceeds Nyquist ({sr / 2:.1f} Hz)"
        )
    # Contiguous, so each view below is a BLAS operand as it stands.
    x = np.ascontiguousarray(buf.samples)
    hop, d = cfg.hop, x.itemsize
    centers, starts, ends = _frame_grid(x.size, hop, sr)
    bank = _kernel_bank(sr, replace(cfg, hop=1))
    reach = max(L for L, _, _ in bank)
    lengths = np.array([[L] for L, _, _ in bank], dtype=np.float64)
    every = [_window_stride(L, hop) for L, _, _ in bank]

    mags = np.empty((freqs.size, centers.size))
    re, im = np.empty((freqs.size, _CQ_BLOCK)), np.empty((freqs.size, _CQ_BLOCK))
    for b in range(0, centers.size, _CQ_BLOCK):
        block = centers[b : b + _CQ_BLOCK]
        n = block.size
        # Window s of frame c covers [c - L_s//2, c - L_s//2 + L_s).
        lo = int(block[0]) - reach // 2
        seg = zero_extended(x, lo, int(block[-1]) - reach // 2 + reach)
        for s, ((L, kern_cos, kern_sin), k) in enumerate(zip(bank, every)):
            first = block - L // 2 - lo
            if hop % 2 or k > 16 or (k > 1 and n < _CQ_BLOCK):
                rows = np.ndarray((seg.size - L + 1, L), buffer=seg, strides=(d, d))[first]
                re[s, :n], im[s, :n] = rows @ kern_cos, rows @ kern_sin
                continue
            # [j, i]: the window of frame j + k*i; np.ndarray checks that
            # the view stays inside seg.
            rows = np.ndarray((k, n // k, L), buffer=seg, offset=int(first[0]) * d, strides=(hop * d, k * hop * d, d))
            re[s, :n].reshape(n // k, k)[:] = (rows @ kern_cos).T
            im[s, :n].reshape(n // k, k)[:] = (rows @ kern_sin).T
        mags[:, b : b + n] = np.hypot(re[:, :n], im[:, :n]) / lengths
    return SpectralMatrix(mags, freqs, starts, ends)


def spl(mag: SpectralMatrix, p_ref: float = 1.0, spl_floor: float = -120.0) -> SpectralMatrix:
    """Sound power level: 10*log10(mag^2 / p_ref), clamped below at spl_floor."""
    if p_ref <= 0:
        raise ValueError("p_ref must be positive")
    power = mag.values**2 / p_ref
    with np.errstate(divide="ignore"):
        level = 10.0 * np.log10(power)
    level = np.maximum(level, spl_floor)
    return SpectralMatrix(level, mag.freqs, mag.starts, mag.ends)


def a_weighting(f) -> np.ndarray | float:
    """A-weighting correction in dB at frequency f (Hz, scalar or array).

    The +2.0 offset calibrates the curve to ~0 dB at 1 kHz. Strictly
    increasing through the low band, peaking near 2.5 kHz.
    """
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    f2 = f * f
    ra = (12200.0**2 * f2 * f2) / (
        (f2 + 20.6**2)
        * np.sqrt((f2 + 107.7**2) * (f2 + 737.9**2))
        * (f2 + 12200.0**2)
    )
    out = 2.0 + 20.0 * np.log10(ra)
    return float(out) if out.ndim == 0 else out


def apply_a_weighting(level: SpectralMatrix) -> SpectralMatrix:
    """Add the per-bin A-weighting correction to an SPL matrix."""
    weighted = level.values + a_weighting(level.freqs)[:, None]
    return SpectralMatrix(weighted, level.freqs, level.starts, level.ends)


def pitch_class_index(f, f_a: float = 440.0):
    """Pitch class (C=0..B=11) of frequency f relative to A4 = f_a."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0) or f_a <= 0:
        raise ValueError("frequencies must be positive")
    idx = (np.floor(12.0 * np.log2(f / f_a) + 0.5) + 69).astype(np.int64) % 12
    return int(idx) if idx.ndim == 0 else idx


def fold_and_normalize(weighted: SpectralMatrix, cfg: ChromaConfig, band: str) -> Chromagram:
    """Sum weighted SPL per pitch class, then min-max normalize each frame.

    A frame whose 12 folded values are all equal carries no pitch-class
    evidence and maps to all zeros.
    """
    pcs = pitch_class_index(weighted.freqs, cfg.f_ref)
    folded = np.zeros((12, weighted.n_frames))
    for p in range(12):
        sel = pcs == p
        if np.any(sel):
            folded[p] = weighted.values[sel].sum(axis=0)
    lo = folded.min(axis=0)
    hi = folded.max(axis=0)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(span > 0, (folded - lo) / np.where(span > 0, span, 1.0), 0.0)
    return Chromagram(values, weighted.starts, weighted.ends, band)


def compute_chromagram(
    buf: AudioBuffer, cfg: ChromaConfig, band: str, p_ref: float = 1.0
) -> Chromagram:
    """Full pipeline: constant-Q -> SPL -> A-weighting -> fold/normalize.

    The normalization makes the result invariant to the reference power
    and (with uniform bins per semitone) to overall audio gain.
    """
    mag = constant_q(buf, cfg)
    level = spl(mag, p_ref=p_ref, spl_floor=cfg.spl_floor)
    return fold_and_normalize(apply_a_weighting(level), cfg, band)


def estimate_tuning(buf: AudioBuffer) -> float:
    """Tuning offset in cents, in [-50, 50).

    Candidate reference frequencies 440*2^(c/1200) are scanned on a 10-cent
    grid: one sharp high-resolution constant-Q pass (Q=120, 10 bins per
    semitone over A3-A5) measures the energy each candidate's semitone grid
    would capture, and the offset capturing the most wins. The routine's
    own Q must be high enough that semitone-spaced bins undersample the
    mainlobe, otherwise captured energy is nearly shift-invariant and the
    scan has no contrast. Silent audio returns 0. Deterministic; ties go
    to the lowest candidate offset.
    """
    hop = max(2048, buf.samples.size // 8)
    probe = ChromaConfig(
        band_low=57,
        band_high=80,
        q_factor=120.0,
        hop=hop,
        f_ref=440.0,
        bins_per_semitone=10,
    )
    mags = constant_q(buf, probe).values
    bin_energy = np.sum(mags * mags, axis=1)
    if bin_energy.max() <= 0.0:
        return 0.0
    # Bin j sits (j % 10)*10 cents above the nominal semitone grid.
    cents = ((np.arange(bin_energy.size) % 10) * 10 + 50) % 100 - 50
    offsets = np.arange(-50, 50, 10)
    per_offset = np.array([bin_energy[cents == c].sum() for c in offsets])
    return float(offsets[int(np.argmax(per_offset))])


def beat_sync_median(chroma: Chromagram, beats) -> Chromagram:
    """Median chromagram per beat interval.

    Frame f belongs to interval i when beats[i] <= center(f) < beats[i+1].
    Even frame counts take the mean of the two middle values (np.median).
    Empty intervals copy the previous output frame (zeros for a leading
    empty interval).

    The intervals holding c frames take one np.median over a (12,
    intervals, c) gather, one call per distinct count c; the median of a
    set does not depend on the order of its values.
    """
    beats = np.asarray(beats, dtype=np.float64)
    if beats.size < 2:
        raise ValueError("need at least 2 beats")
    if np.any(np.diff(beats) <= 0):
        raise ValueError("beats must be strictly increasing")
    n_out = beats.size - 1
    interval = np.searchsorted(beats, chroma.frame_times, side="right") - 1
    inside = (interval >= 0) & (interval < n_out)
    frames = np.flatnonzero(inside)[np.argsort(interval[inside], kind="stable")]
    counts = np.bincount(interval[inside], minlength=n_out)
    offsets = np.cumsum(counts) - counts
    out = np.zeros((12, n_out))
    for c in np.unique(counts[counts > 0]):
        held = np.flatnonzero(counts == c)
        out[:, held] = np.median(chroma.values[:, frames[offsets[held, None] + np.arange(c)]], axis=2)
    # Each empty interval takes the output of the last one before it that
    # held a frame; a leading run of them stays zero.
    last = np.maximum.accumulate(np.where(counts > 0, np.arange(n_out), -1))
    return Chromagram(np.where(last >= 0, out[:, last], 0.0), beats[:-1], beats[1:], chroma.band)


def default_beat_grid(duration: float, period: float = 0.5) -> np.ndarray:
    """Pseudo-beats every `period` seconds covering [0, duration]."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not period > 0:
        raise ValueError("period must be positive")
    beats = np.arange(0.0, duration, period)
    if beats.size == 0 or duration - beats[-1] > 1e-9:
        beats = np.append(beats, duration)
    return beats


def write_chromagram(path, chroma: Chromagram) -> None:
    """Text format: header `band n_frames`, then `start end v0 .. v11` rows."""
    with open(path, "w") as fh:
        fh.write(f"{chroma.band} {chroma.n_frames}\n")
        for start, end, row in zip(chroma.starts.tolist(), chroma.ends.tolist(), chroma.values.T.tolist()):
            fh.write(f"{start!r} {end!r} {' '.join(map(repr, row))}\n")


def read_chromagram(path) -> Chromagram:
    """Read write_chromagram's format; blank lines and `#` comments are
    skipped. The header needs at least one frame, and each row 14 finite
    numbers with values in [0, 1]."""
    header, starts, ends, cols = [], [], [], []

    def take(line):
        fields = line.split()
        if not header:
            if len(fields) != 2 or fields[0] not in ("bass", "treble") or not fields[1].isdigit():
                raise ValueError(f"expected a header `treble|bass n_frames`, got {line!r}")
            if int(fields[1]) < 1:
                raise ValueError("a chromagram needs at least one frame")
            header.extend((fields[0], int(fields[1])))
            return
        if len(fields) != 14:
            raise ValueError(f"expected 14 fields, got {len(fields)}")
        row = [float(v) for v in fields]
        if not all(map(math.isfinite, row)) or min(row[2:]) < -1e-9 or max(row[2:]) > 1 + 1e-9:
            raise ValueError("a chromagram row needs finite times and values in [0, 1]")
        starts.append(row[0])
        ends.append(row[1])
        cols.append(row[2:])

    read_lines(path, take)
    if not header:
        raise ValueError(f"{path}: no chromagram header")
    band, n_frames = header
    if len(cols) != n_frames:
        raise ValueError(f"{path}: header says {n_frames} frames, file has {len(cols)}")
    return Chromagram(np.array(cols).T, np.array(starts), np.array(ends), band)


def read_beats(path, end: float = math.inf) -> np.ndarray:
    """Beat file: one timestamp in seconds per line, finite, strictly
    increasing and no later than `end`; blank lines and `#` comments are
    skipped."""
    beats = []

    def take(line):
        try:
            beat = float(line.split()[0])
        except ValueError:
            raise ValueError(f"expected a beat time in seconds, got {line!r}") from None
        if not np.isfinite(beat):
            raise ValueError(f"beat time {beat} is not finite")
        if beats and beat <= beats[-1]:
            raise ValueError(f"beat time {beat} does not follow {beats[-1]}")
        if beat > end:
            raise ValueError(f"beat time {beat} is past the end of the song (latest allowed {end:.6g} s)")
        beats.append(beat)

    read_lines(path, take)
    return np.asarray(beats, dtype=np.float64)
