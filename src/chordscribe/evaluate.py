"""Duration-based scoring of predicted against ground-truth annotations.

Scores are computed by exact interval intersection, which is the limit of
sampling the timeline on a fine grid (the millisecond-grid estimate agrees
to well under a grid period). Ground-truth regions with no prediction
count as wrong; predictions outside ground-truth coverage are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .annotations import (
    IntervalLabels,
    chord_pitch_classes,
    derive_bass,
    make_alphabet,
    parse_chord_symbol,
    parse_key_label,
)

_MAJMIN = make_alphabet("majmin25")


@lru_cache(maxsize=4096)
def _canonical(label: str, mode: str):
    """Comparison token of a label under a given equivalence mode."""
    if mode == "key":
        return parse_key_label(label)
    sym = parse_chord_symbol(label)
    if mode == "majmin":
        return _MAJMIN.index_of(sym)
    if mode == "exact":
        return (sym.root, sym.quality, sym.bass_degree)
    if mode == "noteset":
        return chord_pitch_classes(sym)
    if mode == "bass":
        return derive_bass(sym)
    raise ValueError(f"unknown comparison mode {mode!r}")

COMPARISON_MODES = ("majmin", "exact", "noteset", "key", "bass")


def _interval_label(iv: IntervalLabels, t: float) -> str | None:
    """Label covering time t, or None."""
    i = int(np.searchsorted(iv.starts, t, side="right")) - 1
    if i >= 0 and t < iv.ends[i] - 1e-12:
        return iv.labels[i]
    return None


def overlap_ratio(pred: IntervalLabels, gt: IntervalLabels, mode: str = "majmin") -> float:
    """Fraction of annotated ground-truth duration where the prediction
    matches under the chosen equivalence mode."""
    if len(gt) == 0:
        raise ValueError("empty ground truth")
    if mode not in COMPARISON_MODES:
        raise ValueError(f"unknown comparison mode {mode!r}")
    edges = np.unique(np.concatenate([gt.starts, gt.ends, pred.starts, pred.ends]))
    matched = 0.0
    total = 0.0
    for t0, t1 in zip(edges[:-1], edges[1:]):
        gt_label = _interval_label(gt, t0)
        if gt_label is None:
            continue
        total += t1 - t0
        pred_label = _interval_label(pred, t0)
        if pred_label is None:
            continue
        if _canonical(gt_label, mode) == _canonical(pred_label, mode):
            matched += t1 - t0
    if total <= 0:
        raise ValueError("ground truth covers no duration")
    return matched / total


def aggregate(ratios, durations) -> tuple[float, float]:
    """(unweighted mean, duration-weighted mean) of per-song ratios."""
    ratios = np.asarray(ratios, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    if ratios.size == 0:
        raise ValueError("no per-song ratios to aggregate")
    if ratios.size != durations.size:
        raise ValueError("ratios and durations differ in length")
    return float(ratios.mean()), float(np.average(ratios, weights=durations))


def predominant_key(iv: IntervalLabels) -> int:
    """Duration-most-prevalent key in a prediction; ties go to the key
    heard first."""
    duration: dict[int, float] = {}
    first_seen: dict[int, int] = {}
    for i, (s, e, lab) in enumerate(zip(iv.starts, iv.ends, iv.labels)):
        state = parse_key_label(lab)
        if state is None:
            continue
        duration[state] = duration.get(state, 0.0) + (e - s)
        first_seen.setdefault(state, i)
    if not duration:
        raise ValueError("no key prediction in file")
    return min(duration, key=lambda k: (-duration[k], first_seen[k]))


def first_key(iv: IntervalLabels) -> int:
    """First labeled key of a ground-truth file (leading silence skipped)."""
    for lab in iv.labels:
        state = parse_key_label(lab)
        if state is not None:
            return state
    raise ValueError("ground truth contains no key")


def bass_frame_accuracy(pred, gt) -> float:
    """Fraction of frames with equal bass state, given two per-frame
    bass-state arrays; unlabeled (negative) ground-truth frames are
    excluded."""
    pred_b = np.asarray(pred)
    gt_b = np.asarray(gt)
    if pred_b.size != gt_b.size:
        raise ValueError("frame count mismatch")
    labeled = gt_b >= 0
    if not labeled.any():
        raise ValueError("no labeled ground-truth frames")
    return float(np.mean(pred_b[labeled] == gt_b[labeled]))


def paired_t_test(a, b) -> tuple[float, float]:
    """Paired t statistic (sample sd, n-1 denominator) and two-tailed p via
    the regularized incomplete beta function."""
    from scipy.special import betainc  # imported here to keep scipy out of package import

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        raise ValueError("paired samples differ in length")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("zero-variance differences: t statistic undefined")
    t = float(d.mean() / (sd / np.sqrt(n)))
    df = n - 1
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p


@dataclass
class EvalReport:
    """Per-song metric values, per-song durations, and aggregates."""

    per_song: dict[str, dict[str, float]] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    aggregates: dict[str, float] = field(default_factory=dict)
    flagged: list[str] = field(default_factory=list)

    def add(self, song: str, metrics: dict[str, float], duration: float) -> None:
        self.per_song[song] = dict(metrics)
        self.durations[song] = duration

    def finalize(self) -> None:
        """Fill OR/WAOR-style aggregates: plain mean and duration-weighted
        mean per metric, over the songs that report it."""
        metrics = sorted({m for vals in self.per_song.values() for m in vals})
        for metric in metrics:
            songs = [s for s in sorted(self.per_song) if metric in self.per_song[s]]
            self.aggregates[f"{metric}_mean"], self.aggregates[f"{metric}_weighted"] = aggregate(
                [self.per_song[s][metric] for s in songs], [self.durations[s] for s in songs]
            )

    def csv_rows(self):
        for song in sorted(self.per_song):
            for metric in sorted(self.per_song[song]):
                yield f"{song},{metric},{self.per_song[song][metric]:.6f}"
        for name in sorted(self.aggregates):
            yield f"ALL,{name},{self.aggregates[name]:.6f}"

    def table(self) -> str:
        songs = sorted(self.per_song)
        metrics = sorted({m for vals in self.per_song.values() for m in vals})
        width = max([len(s) for s in songs + ["song"]])
        lines = ["  ".join(["song".ljust(width)] + [m.rjust(10) for m in metrics])]
        for song in songs:
            cells = [f"{self.per_song[song].get(m, float('nan')):10.4f}" for m in metrics]
            lines.append("  ".join([song.ljust(width)] + cells))
        for name in sorted(self.aggregates):
            lines.append(f"{name.ljust(width)}  {self.aggregates[name]:10.4f}")
        return "\n".join(lines)
