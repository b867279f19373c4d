"""Ground-truth label parsing, chord alphabets, and beat-synchronous labels.

Chord text follows the `ROOT[:QUALITY][/DEGREE]` grammar (`N` for
no-chord). Inversions are restricted to /3 and /5 on major chords, which
is exactly what the 121-state alphabet admits.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PITCH_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
_NATURALS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

NO_BASS = 12
UNLABELED = -1

# Interval templates (semitones above the root) of the eight base qualities,
# in alphabet order.
QUALITY_TEMPLATES = {
    "maj": (0, 4, 7),
    "min": (0, 3, 7),
    "maj6": (0, 4, 7, 9),
    "maj7": (0, 4, 7, 11),
    "min7": (0, 3, 7, 10),
    "dom7": (0, 4, 7, 10),
    "dim": (0, 3, 6),
    "aug": (0, 4, 8),
}

# Spellings that mean one of the base qualities directly.
_QUALITY_SPELLINGS = {
    "": "maj",
    "maj": "maj",
    "major": "maj",
    "min": "min",
    "minor": "min",
    "maj6": "maj6",
    "6": "maj6",
    "maj7": "maj7",
    "min7": "min7",
    "7": "dom7",
    "dim": "dim",
    "aug": "aug",
}

# Out-of-vocabulary qualities reduce to the base quality sharing the most
# template tones (ties: smallest symmetric difference, then alphabet
# order). The table is spelled out so the choices are reviewable; a unit
# test re-derives it from the rule.
OOV_TEMPLATES = {
    "sus2": (0, 2, 7),
    "sus4": (0, 5, 7),
    "5": (0, 7),
    "1": (0,),
    "min6": (0, 3, 7, 9),
    "minmaj7": (0, 3, 7, 11),
    "dim7": (0, 3, 6, 9),
    "hdim7": (0, 3, 6, 10),
    "aug7": (0, 4, 8, 10),
    "9": (0, 2, 4, 7, 10),
    "maj9": (0, 2, 4, 7, 11),
    "min9": (0, 2, 3, 7, 10),
    "11": (0, 2, 4, 5, 7, 10),
    "13": (0, 2, 4, 7, 9, 10),
}

OOV_REDUCTIONS = {
    "sus2": "maj",
    "sus4": "maj",
    "5": "maj",
    "1": "maj",
    "min6": "min",
    "minmaj7": "min",
    "dim7": "dim",
    "hdim7": "dim",
    "aug7": "aug",
    "9": "dom7",
    "maj9": "maj7",
    "min9": "min7",
    "11": "dom7",
    "13": "maj6",
}


class LabParseError(ValueError):
    """Malformed text input (label, beat, chroma, config or script file);
    the message starts `path:line:`, or `path:` for a whole-file fault."""


def utf8_lines(path, lines, error=LabParseError):
    """The lines of the file at path, read with errors="surrogateescape"; a byte
    that is not UTF-8 (U+DC80..U+DCFF) raises error `path:line: byte 0x.. is not UTF-8`."""
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
            raise error(f"{path}:{lineno}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
        yield line


def read_lines(path, take) -> None:
    """Call take(line) on each stripped line of the UTF-8 text file at path,
    skipping blank lines and `#` comments. A ValueError from take, or a
    byte that is not UTF-8, comes back as a LabParseError `path:line: ...`."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(utf8_lines(path, fh), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    take(line)
                except ValueError as exc:
                    raise LabParseError(f"{path}:{lineno}: {exc}") from exc


@dataclass(frozen=True)
class ChordSymbol:
    """Normalized chord: root pitch class, base quality, bass degree.

    The no-chord symbol has root None and quality None. bass_degree is
    "root", "3", or "5"; the latter two are only valid on major chords.
    """

    root: int | None
    quality: str | None
    bass_degree: str = "root"

    def __post_init__(self):
        if (self.root is None) != (self.quality is None):
            raise ValueError("root and quality must both be set or both be None")
        if self.root is not None:
            if not 0 <= self.root <= 11:
                raise ValueError(f"root out of range: {self.root}")
            if self.quality not in QUALITY_TEMPLATES:
                raise ValueError(f"unknown quality {self.quality!r}")
        if self.bass_degree not in ("root", "3", "5"):
            raise ValueError(f"bass degree must be root/3/5, got {self.bass_degree!r}")
        if self.bass_degree != "root" and self.quality != "maj":
            raise ValueError("inversions (/3, /5) are only admitted on major chords")

    @property
    def is_no_chord(self) -> bool:
        return self.root is None

    def label(self) -> str:
        if self.is_no_chord:
            return "N"
        quality = "7" if self.quality == "dom7" else self.quality
        text = f"{PITCH_NAMES[self.root]}:{quality}"
        if self.bass_degree != "root":
            text += f"/{self.bass_degree}"
        return text


NO_CHORD = ChordSymbol(None, None)

_ROOT_RE = re.compile(r"^([A-G])([#b]*)$")


def _parse_root(text: str) -> int:
    m = _ROOT_RE.match(text)
    if not m:
        raise ValueError(f"unparseable chord root {text!r}")
    pc = _NATURALS[m.group(1)]
    for mod in m.group(2):
        pc += 1 if mod == "#" else -1
    return pc % 12


def parse_chord_symbol(text: str) -> ChordSymbol:
    """Parse `ROOT[:QUALITY][/DEGREE]` or `N` into a ChordSymbol.

    Out-of-vocabulary qualities reduce via OOV_REDUCTIONS; anything not in
    that table is an error, as are inversion degrees other than 3 and 5.
    """
    text = text.strip()
    if text == "N":
        return NO_CHORD
    body, _, degree = text.partition("/")
    root_text, _, quality_text = body.partition(":")
    root = _parse_root(root_text)
    quality_text = quality_text.strip()
    if quality_text in _QUALITY_SPELLINGS:
        quality = _QUALITY_SPELLINGS[quality_text]
    elif quality_text in OOV_REDUCTIONS:
        quality = OOV_REDUCTIONS[quality_text]
    else:
        raise ValueError(f"unknown chord quality {quality_text!r} in {text!r}")
    degree = degree.strip()
    if degree and degree not in ("3", "5"):
        raise ValueError(f"unsupported bass degree /{degree} in {text!r}")
    return ChordSymbol(root, quality, degree or "root")


def derive_bass(c: ChordSymbol) -> int:
    """Bass state 0..12: sounding bass pitch class, or 12 for no-bass."""
    if c.is_no_chord:
        return NO_BASS
    if c.bass_degree == "3":
        return (c.root + 4) % 12
    if c.bass_degree == "5":
        return (c.root + 7) % 12
    return c.root


def chord_pitch_classes(c: ChordSymbol) -> frozenset[int]:
    """Set of sounding pitch classes; empty for no-chord. Inversions do not
    change the set."""
    if c.is_no_chord:
        return frozenset()
    return frozenset((c.root + iv) % 12 for iv in QUALITY_TEMPLATES[c.quality])


# --- key labels ------------------------------------------------------------

_MODE_SPELLINGS = {"": 0, "maj": 0, "major": 0, "min": 1, "minor": 1}


def parse_key_label(text: str) -> int | None:
    """Key state 0..11 major, 12..23 minor, or None for silence/unlabeled.

    Accepts `TONIC`, `TONIC:maj`, `TONIC:minor`, and the `Key TONIC`
    style; a bare tonic means major. Non-major/minor modes are treated as
    unlabeled.
    """
    text = text.strip()
    if text.startswith("Key"):
        text = text[3:].strip()
    if text in ("", "N", "Silence"):
        return None
    tonic_text, _, mode_text = text.partition(":")
    tonic = _parse_root(tonic_text.strip())
    mode = _MODE_SPELLINGS.get(mode_text.strip().lower())
    if mode is None:
        return None
    return tonic + 12 * mode


def key_label(state: int) -> str:
    return f"{PITCH_NAMES[state % 12]}:{'maj' if state < 12 else 'min'}"

KEY_LABELS = tuple(key_label(k) for k in range(24))

BASS_LABELS = PITCH_NAMES + ("N",)

# Sizes of the key and bass state spaces, shared by training and decoding.
N_KEYS = len(KEY_LABELS)
N_BASS = len(BASS_LABELS)


# --- alphabets ---------------------------------------------------------------

# (quality, bass_degree) blocks of the 121-chord alphabet, 12 roots each.
_FULL_BLOCKS = (
    ("maj", "root"),
    ("min", "root"),
    ("maj", "3"),
    ("maj", "5"),
    ("maj6", "root"),
    ("maj7", "root"),
    ("min7", "root"),
    ("dom7", "root"),
    ("dim", "root"),
    ("aug", "root"),
)

_MAJ_LIKE = {"maj", "maj6", "maj7", "dom7", "aug"}


@dataclass(frozen=True)
class Alphabet:
    """Chord state space: either 25 (12 maj + 12 min + N) or 121 states
    (10 quality/inversion blocks x 12 roots + N). Keys (N_KEYS) and basses
    (N_BASS) do not depend on the alphabet."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("majmin25", "full121"):
            raise ValueError(f"unknown alphabet kind {self.kind!r}")

    @property
    def size(self) -> int:
        return 25 if self.kind == "majmin25" else 121

    @property
    def no_chord(self) -> int:
        return self.size - 1

    def index_of(self, c: ChordSymbol) -> int:
        """Map a chord symbol into this alphabet (total on all parseable
        symbols)."""
        if c.is_no_chord:
            return self.no_chord
        if self.kind == "majmin25":
            if c.quality in _MAJ_LIKE:
                return c.root
            return 12 + c.root
        block = _FULL_BLOCKS.index((c.quality, c.bass_degree))
        return block * 12 + c.root

    def symbol_at(self, state: int) -> ChordSymbol:
        if state == self.no_chord:
            return NO_CHORD
        if self.kind == "majmin25":
            return ChordSymbol(state % 12, "maj" if state < 12 else "min")
        quality, degree = _FULL_BLOCKS[state // 12]
        return ChordSymbol(state % 12, quality, degree)

    def label_at(self, state: int) -> str:
        return self.symbol_at(state).label()

    @functools.cache
    def key_shift_table(self) -> np.ndarray:
        """(N_KEYS, size), read-only: row k moves every chord state's root
        down by key k's tonic (no-chord stays), to its role relative to a C
        tonic. Training counts chord transitions through it and decoding
        expands them through it. Built once per alphabet."""
        states = np.arange(self.size)
        tonic = np.arange(N_KEYS)[:, None] % 12
        table = np.where(states == self.no_chord, states, states - states % 12 + (states - tonic) % 12)
        table.flags.writeable = False
        return table


def make_alphabet(kind: str) -> Alphabet:
    return Alphabet(kind)


# --- interval label files -----------------------------------------------------


@dataclass
class IntervalLabels:
    """Sorted, non-overlapping (start, end, label) annotation records."""

    starts: np.ndarray
    ends: np.ndarray
    labels: list[str]

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.float64)
        self.ends = np.asarray(self.ends, dtype=np.float64)
        if not (self.starts.size == self.ends.size == len(self.labels)):
            raise ValueError("starts/ends/labels length mismatch")
        finite = np.isfinite(self.starts) & np.isfinite(self.ends)
        if not finite.all():
            raise ValueError(f"record {np.argmin(finite)} has a non-finite time")
        back = np.flatnonzero(self.starts[1:] < self.starts[:-1])
        if back.size:
            i, (s0, s1) = back[0] + 1, self.starts[back[0] : back[0] + 2].tolist()
            raise ValueError(f"record {i} ({self.labels[i]!r}) starts at {s1!r}, before record {i - 1} at {s0!r}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.starts[0]), float(self.ends[-1])

    def total_duration(self) -> float:
        return float(np.sum(self.ends - self.starts))


def make_intervals(records: Iterable[tuple[float, float, str]], origin="<records>") -> IntervalLabels:
    """Validate and sort raw records into IntervalLabels."""
    recs = sorted(records, key=lambda r: (r[0], r[1]))
    starts = np.array([r[0] for r in recs], dtype=np.float64)
    ends = np.array([r[1] for r in recs], dtype=np.float64)
    labels = [r[2] for r in recs]
    for i, (s, e) in enumerate(zip(starts, ends)):
        if e <= s:
            raise LabParseError(f"{origin}: interval end {e} not after start {s}")
        if i and s < ends[i - 1] - 1e-9:
            raise LabParseError(
                f"{origin}: interval starting at {s} overlaps previous ending at {ends[i - 1]}"
            )
    return IntervalLabels(starts, ends, labels)


def parse_lab(path) -> IntervalLabels:
    """Read a `.lab` file: `start end label` per line, times finite, `#`
    comments and blank lines skipped. Lines are sorted; overlaps and
    reversed intervals are errors naming the line."""
    records = []

    def take(line):
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"expected `start end label`, got {line!r}")
        try:
            start, end = float(fields[0]), float(fields[1])
        except ValueError:
            raise ValueError(f"bad timestamp in {line!r}") from None
        if not (np.isfinite(start) and np.isfinite(end)):
            raise ValueError(f"interval times must be finite, got {line!r}")
        if end <= start:
            raise ValueError(f"end {end} not after start {start}")
        records.append((start, end, " ".join(fields[2:])))

    read_lines(path, take)
    return make_intervals(records, origin=str(path))


def write_lab(path, intervals: IntervalLabels) -> None:
    with open(path, "w") as fh:
        for s, e, lab in zip(intervals.starts, intervals.ends, intervals.labels):
            fh.write(f"{float(s)!r} {float(e)!r} {lab}\n")


def merge_intervals(starts, ends, labels) -> IntervalLabels:
    """Collapse consecutive records sharing a label into one interval."""
    out = []
    for s, e, lab in zip(starts, ends, labels):
        if out and out[-1][2] == lab and abs(out[-1][1] - s) < 1e-9:
            out[-1][1] = e
        else:
            out.append([s, e, lab])
    return IntervalLabels(
        np.array([r[0] for r in out]), np.array([r[1] for r in out]), [r[2] for r in out]
    )


# --- beat-synchronized frame labels -------------------------------------------


@dataclass
class FrameLabels:
    """Per-frame key/chord/bass states aligned to beat frames.

    UNLABELED (-1) marks frames outside annotation coverage; they are
    excluded from training and evaluation. A state below it is an error
    that names the field and the frame.
    """

    key: np.ndarray
    chord: np.ndarray
    bass: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        self.key = np.asarray(self.key, dtype=np.int64)
        self.chord = np.asarray(self.chord, dtype=np.int64)
        self.bass = np.asarray(self.bass, dtype=np.int64)
        self.starts = np.asarray(self.starts, dtype=np.float64)
        self.ends = np.asarray(self.ends, dtype=np.float64)
        sizes = {a.size for a in (self.key, self.chord, self.bass, self.starts, self.ends)}
        if len(sizes) != 1:
            raise ValueError("frame label arrays must share one length")
        for field in ("key", "chord", "bass"):
            states = getattr(self, field)
            bad = np.flatnonzero(states < UNLABELED)
            if bad.size:
                raise ValueError(f"{field} state {states[bad[0]]} at frame {bad[0]} is below UNLABELED ({UNLABELED})")

    def __len__(self) -> int:
        return self.key.size


def most_prevalent_labels(iv: IntervalLabels, beats) -> list[str | None]:
    """Winning label per beat interval by total overlap duration.

    Ties break toward the label whose earliest contributing record starts
    first. Intervals with no annotation coverage yield None.

    Each beat interval scans, in record order, only the records that can
    reach it: from the first whose end (as a running maximum over the
    records) passes its start, to the last that starts before its end.
    """
    beats = np.asarray(beats, dtype=np.float64)
    if np.any(np.diff(beats) <= 0):
        raise ValueError("beats must be strictly increasing")
    starts, ends, labels = iv.starts.tolist(), iv.ends.tolist(), iv.labels
    reach = np.maximum.accumulate(iv.ends).tolist()
    bounds = beats.tolist()
    winners: list[str | None] = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        overlap: dict[str, float] = {}
        first_start: dict[str, float] = {}
        for i in range(bisect.bisect_right(reach, b0), bisect.bisect_left(starts, b1)):
            ov = min(ends[i], b1) - max(starts[i], b0)
            if ov > 0:
                overlap[labels[i]] = overlap.get(labels[i], 0.0) + ov
                first_start.setdefault(labels[i], starts[i])
        if not overlap:
            winners.append(None)
        else:
            winners.append(min(overlap, key=lambda l: (-overlap[l], first_start[l])))
    return winners


def beat_sync_labels(
    chord_iv: IntervalLabels,
    beats,
    alphabet: Alphabet,
    key_iv: IntervalLabels | None = None,
) -> FrameLabels:
    """Beat-synchronize chord (and optionally key) annotations into
    FrameLabels; bass states come from the chord inversions."""
    beats = np.asarray(beats, dtype=np.float64)
    chord_wins = most_prevalent_labels(chord_iv, beats)
    n = len(chord_wins)
    chord = np.full(n, UNLABELED, dtype=np.int64)
    bass = np.full(n, UNLABELED, dtype=np.int64)
    for i, lab in enumerate(chord_wins):
        if lab is not None:
            sym = parse_chord_symbol(lab)
            chord[i] = alphabet.index_of(sym)
            bass[i] = derive_bass(sym)
    key = np.full(n, UNLABELED, dtype=np.int64)
    if key_iv is not None:
        for i, lab in enumerate(most_prevalent_labels(key_iv, beats)):
            if lab is not None:
                state = parse_key_label(lab)
                key[i] = UNLABELED if state is None else state
    return FrameLabels(key, chord, bass, beats[:-1], beats[1:])
