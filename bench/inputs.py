"""Seeded input generators for the benchmark.

Everything here is a pure function of the seed. The program under test
only ever sees what these functions write: a model file and chroma
arrays for `decode-free`, WAV files plus chord, key and beat
annotations for the audio workload.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from chordscribe.annotations import (
    FrameLabels,
    chord_pitch_classes,
    derive_bass,
    make_alphabet,
    parse_chord_symbol,
)
from chordscribe.audio_io import AudioBuffer, synthesize_triads, write_wav
from chordscribe.chroma import Chromagram
from chordscribe.model import TrainConfig, save_model, train

FRAME_DT = 0.5

# --- frame-level full121 model and songs (decode-free) ----------------------------

# The chord vocabulary of the frame-level songs: C-major harmony with
# inversions, a few secondary dominants and no-chord.
FRAME_VOCAB = (
    "C:maj", "C:maj/3", "C:maj/5", "F:maj", "F:maj/3", "G:maj", "G:maj/5",
    "A:min", "D:min", "E:min", "D:maj", "E:maj", "A:maj/3", "N",
)  # fmt: skip
TRAIN_SONG_KEYS = (0, 7, 0)
TRAIN_SONG_FRAMES = 240
SONG_KEY = 0


def _template(pcs, high, low):
    v = np.full(12, low)
    for p in pcs:
        if p < 12:
            v[p] = high
    return v


def _frames(chords, basses, alphabet, rng, noise=0.02):
    """Template-plus-noise treble and bass chroma rows, (T, 12) each."""
    treble = [
        _template(chord_pitch_classes(alphabet.symbol_at(c)), 0.9, 0.1)
        + noise * rng.standard_normal(12)
        for c in chords
    ]
    bass = [_template([b], 0.95, 0.05) + noise * rng.standard_normal(12) for b in basses]
    return np.clip(treble, 0.0, 1.0), np.clip(bass, 0.0, 1.0)


def _chromagram(rows, band):
    starts = np.arange(rows.shape[0]) * FRAME_DT
    return Chromagram(rows.T, starts, starts + FRAME_DT, band)


def frame_model(rng):
    """Full121 model trained on three sticky-chord frame-level songs."""
    alphabet = make_alphabet("full121")
    vocab = [alphabet.index_of(parse_chord_symbol(lab)) for lab in FRAME_VOCAB]
    songs = []
    for key in TRAIN_SONG_KEYS:
        picks = [vocab[i] for i in rng.integers(0, len(vocab), size=TRAIN_SONG_FRAMES)]
        chords = np.repeat(picks[: TRAIN_SONG_FRAMES // 4], 4)
        basses = [derive_bass(alphabet.symbol_at(c)) for c in chords]
        treble, bass = _frames(chords, basses, alphabet, rng)
        starts = np.arange(chords.size) * FRAME_DT
        labels = FrameLabels([key] * chords.size, chords, basses, starts, starts + FRAME_DT)
        songs.append((_chromagram(treble, "treble"), _chromagram(bass, "bass"), labels))
    return train(songs, TrainConfig(alphabet="full121", alpha=0.1)), vocab


def frame_song(rng, vocab, n_frames):
    """One song: chords held five frames, the bass derived from each chord,
    the key constant. Returns arrays, not program objects."""
    alphabet = make_alphabet("full121")
    picks = [vocab[i] for i in rng.integers(0, len(vocab), size=n_frames)]
    chords = np.repeat(picks, 5)[:n_frames].astype(np.int64)
    basses = np.array([derive_bass(alphabet.symbol_at(c)) for c in chords], dtype=np.int64)
    treble, bass = _frames(chords, basses, alphabet, rng)
    return {
        "treble": treble,
        "bass": bass,
        "starts": np.arange(n_frames) * FRAME_DT,
        "ends": np.arange(1, n_frames + 1) * FRAME_DT,
        "keys": np.full(n_frames, SONG_KEY, dtype=np.int64),
        "chords": chords,
        "basses": basses,
    }


def write_decode_inputs(out_dir: Path, seed: int, song_frames) -> None:
    """model.txt plus song<i>.npz files for a decode workload."""
    rng = np.random.default_rng(seed)
    model, vocab = frame_model(rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.txt")
    for i, n in enumerate(song_frames):
        np.savez(out_dir / f"song{i}.npz", **frame_song(rng, vocab, n))


# --- synthesized audio songs (cli-audio workload) -------------------------------

AUDIO_RATE = 44100
SONG_SECONDS = 90.0
BEAT_PERIOD = 0.5

# Diatonic harmony per mode as (root offset from the tonic, quality text),
# with inversions and seventh chords so the full121 alphabet is exercised.
_MAJOR_HARMONY = (
    (0, "maj"), (0, "maj/3"), (0, "maj/5"), (2, "min"), (2, "min7"), (4, "min"),
    (5, "maj"), (5, "maj7"), (7, "maj"), (7, "7"), (7, "maj/3"), (9, "min"),
)  # fmt: skip
_MINOR_HARMONY = (
    (0, "min"), (0, "min7"), (3, "maj"), (3, "maj/3"), (5, "min"), (7, "maj"),
    (7, "7"), (8, "maj"), (8, "maj/5"), (10, "maj"), (2, "dim"), (5, "min7"),
)  # fmt: skip
_PITCH = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
# Chord durations in quarter seconds, so that about half of the chord
# changes fall between two beats of the 0.5 s grid, as they do in real
# music; the leading and the mid-song no-chord segments are fixed, so every
# seed has the same song length and frame count.
STEP = 0.25
_SEGMENT_STEPS = (6, 7, 8, 9, 10, 12, 16)
_LEADING_N_STEPS = 4
_MID_N_STEPS = 6


def _song_script(rng):
    """(key label, [(chord label, seconds)]) covering exactly SONG_SECONDS."""
    key = int(rng.integers(0, 24))
    tonic, minor = key % 12, key >= 12
    harmony = _MINOR_HARMONY if minor else _MAJOR_HARMONY
    total = int(round(SONG_SECONDS / STEP))
    script = [("N", _LEADING_N_STEPS)]
    steps = _LEADING_N_STEPS
    mid_done = False
    while steps < total:
        if not mid_done and steps >= total // 2:
            script.append(("N", _MID_N_STEPS))
            steps += _MID_N_STEPS
            mid_done = True
            continue
        offset, quality = harmony[int(rng.integers(0, len(harmony)))]
        n = int(_SEGMENT_STEPS[int(rng.integers(0, len(_SEGMENT_STEPS)))])
        script.append((f"{_PITCH[(tonic + offset) % 12]}:{quality}", n))
        steps += n
    # trim the last segment so the song ends exactly at SONG_SECONDS
    label, n = script[-1]
    script[-1] = (label, n - (steps - total))
    key_label = f"{_PITCH[tonic]}:{'min' if minor else 'maj'}"
    return key_label, [(lab, n * STEP) for lab, n in script if n > 0]


def _render(script):
    parts = []
    for label, seconds in script:
        sym = parse_chord_symbol(label)
        if sym.is_no_chord:
            parts.append(np.zeros(int(round(seconds * AUDIO_RATE))))
        else:
            seg = synthesize_triads([(chord_pitch_classes(sym), derive_bass(sym), seconds)], AUDIO_RATE)
            parts.append(seg.samples)
    return AudioBuffer(np.concatenate(parts), AUDIO_RATE)


def write_audio_inputs(out_dir: Path, seed: int, n_songs: int) -> None:
    """audio/<stem>.wav plus chords/, keys/ and beats/ annotation files."""
    rng = np.random.default_rng(seed)
    dirs = {name: out_dir / name for name in ("audio", "chords", "keys", "beats")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    beats = np.arange(0.0, SONG_SECONDS + 1e-9, BEAT_PERIOD)
    for i in range(n_songs):
        stem = f"song{i}"
        key_label, script = _song_script(rng)
        write_wav(dirs["audio"] / f"{stem}.wav", _render(script))
        t, rows = 0.0, []
        for label, seconds in script:
            rows.append(f"{t!r} {t + seconds!r} {label}\n")
            t += seconds
        (dirs["chords"] / f"{stem}.lab").write_text("".join(rows))
        (dirs["keys"] / f"{stem}.lab").write_text(f"0.0 {SONG_SECONDS!r} {key_label}\n")
        (dirs["beats"] / f"{stem}.txt").write_text("".join(f"{float(b)!r}\n" for b in beats))
