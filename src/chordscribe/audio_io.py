"""WAV loading, band-limited resampling, and synthetic triad fixtures."""

from __future__ import annotations

import math
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
        peak = float(np.max(np.abs(self.samples)))
        if not math.isfinite(peak):  # a NaN or inf sample propagates into the peak
            raise ValueError("audio samples must be finite")
        if peak > 1.0 + 1e-6:
            raise ValueError(f"sample magnitudes exceed 1 (peak {peak:.6g})")

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


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

    if data.dtype in _INT_SCALE:
        samples = data.astype(np.float64) / _INT_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        peak = float(np.max(np.abs(samples)))
        if peak > 1.0 + 1e-6:
            samples = samples / peak
    else:
        raise UnsupportedEncodingError(f"{path}: unsupported sample dtype {data.dtype}")

    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate))


def write_wav(path, buf: AudioBuffer) -> None:
    """Write a buffer as 16-bit PCM WAV."""
    from scipy.io import wavfile

    clipped = np.clip(buf.samples, -1.0, 1.0)
    wavfile.write(path, buf.sample_rate, np.round(clipped * 32767.0).astype(np.int16))


def _resample_taps(up: int, down: int) -> np.ndarray:
    """Windowed-sinc low-pass for polyphase resampling.

    Cutoff sits at 0.45x the smaller of the source/target Nyquist rates
    (band-limited correctness, not archival quality). Coefficients are
    scaled so DC gain after polyphase interpolation is exactly 1.
    """
    # Cycles per sample at the upsampled rate.
    cutoff = 0.45 / (2.0 * max(up, down))
    half = int(math.ceil(12.0 / (2.0 * cutoff)))
    n = np.arange(-half, half + 1, dtype=np.float64)
    taps = 2.0 * cutoff * np.sinc(2.0 * cutoff * n) * np.blackman(2 * half + 1)
    return taps * (up / taps.sum())


def resample(buf: AudioBuffer, target_sr: int) -> AudioBuffer:
    """Resample to target_sr with a windowed-sinc polyphase filter.

    Output duration equals the input duration within one output sample
    period. If filter ringing pushes the peak past full scale, the whole
    buffer is rescaled to peak 1 (shape-preserving).
    """
    if target_sr <= 0:
        raise ValueError(f"target sample rate must be positive, got {target_sr}")
    target_sr = int(target_sr)
    if target_sr == buf.sample_rate:
        return buf
    # Imported here: scipy.signal is most of the package's import time, and
    # processes that only decode never resample.
    from scipy.signal import resample_poly

    g = math.gcd(buf.sample_rate, target_sr)
    up, down = target_sr // g, buf.sample_rate // g
    out = resample_poly(buf.samples, up, down, window=_resample_taps(up, down))
    peak = float(np.max(np.abs(out)))
    if peak > 1.0:
        out = out / peak
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
