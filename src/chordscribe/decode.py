"""Joint (key, chord, bass) Viterbi decoding with search-space reduction.

The transition structure factors as
    p(k|k_prev) * p(c|c_prev, k) * p(b|c) * p(b|b_prev),
so each step's maximization runs in three stages (collapse previous bass,
then previous key, then previous chord) instead of over the full product
space. Three prune knobs cut the admissible sets: a key-transition count
floor (gamma), a per-chord cap on admissible basses (tau), and a chord
working set from a first-pass chord-only decode (the chord alphabet
constraint). Pruned rows are never renormalized. The Viterbi visits only
live states: frame 0 admits every key and bass, and every later frame only
the keys some surviving key transition reaches and each chord's admissible
bass slots, as every other state is impossible there.

The first pass runs in the scaled probability domain, everything else in
natural log, where zero probability is -inf. Ties break toward the lowest
(key, chord, bass) state everywhere: the final frame takes the lowest
maximizing state, and each backpointer the lowest maximizing predecessor,
which together select the optimal path whose reversed state sequence is
lexicographically smallest.

Emission terms are summed for a block of frames at a time. `_layout`
sets up what no frame changes; `_step` takes one frame through `_stage1`,
`_stage2` and `_stage3` (or `_stage1` and `_fused_step`) and returns its
v and backpointers: the flat (row, chord, slot) index in the previous v
of each best previous state, uint16 for full121, per cell (L, Cw, S) or,
where stage 3 keeps one chord per row (k, u), per row (L, U);
`_backtrace` walks back, reading cell (k, c, s) of a row table at
(k, slot_t[c, s]).

Every frame that does not fuse (below) first bounds the previous chords
(`_chord_bound`, CarpeDiem's predecessor bound, Esposito & Radicioni 2009,
applied once per previous chord). No stage-2 output of previous chord c
exceeds ub[c], the largest v[k', c, s] over its rows and slots plus the
largest key transition into a live key and the largest bass transition
out of c's slots; where each live key l has one predecessor d (D == 1,
as under gamma), ub is taken per key, max_s v[d, c, s] + lf[d, l] plus
the same bass term. The chord c* of largest bound gives each stage-3 row
(l, u) a value col[l, u] that its maximum reaches. With several
predecessors per key, col is one path's value (`_one_path`): each
previous row d at its best slot s(d), each live key l from the row d_l of
largest v[d, c*, s(d)] + lf[d, l], and col[l, u] = (v[d_l, c*, s(d_l)] +
lh[s(d_l), u]) + lf[d_l, l], summed as stages 1 and 2 sum, so rounding,
being monotone, keeps it at or below c*'s exact stage-2 value with no
slack. Where each live key has one predecessor, stage 2 is one take and
one add, so stages 1 and 2 run on c* alone and col is its exact column,
which serves again when c* alone passes. A stage-3 row's threshold
(below) grows with its maximum, so it is at least col[l, u] less key l's
largest drop and less the slack taken with key l's largest scale.
A chord whose bound, plus a slack of 1e-9 * (1 + |ub| + the transitions'
scale), lies below the threshold of every row (of key l's rows, bound per
key) is kept in no row by stage 3's bound: it is no row's maximum, ties
none and is no candidate. Where at most Cw / _GATHER_COST chords, and
fewer than all, pass, stages 1 and 2 run dense on them alone, once
(`_stages12`), summing as the dense forms do, stage 2 over the last axis
of (U * n, L, D), whose first argmax is the lowest maximizing row; stage
3 bounds and gathers through that chord map (`chords`), so values,
backpointers and ties do not change. A row where col is -inf, or a key
whose drops hold +inf, bounds no chord; such frames, and those where more
chords pass (the frame after a flat one, as after a silent first frame
under a flat key prior), run the stages below over every previous chord.

On the frames the chord bound leaves, each stage runs dense, over every
predecessor, when its tensor fits the dense budget or a frame keeps over a
quarter of the predecessors, and otherwise over the predecessors that one
exact bound keeps (`_bound`). In a cell whose maximum mx is at predecessor
a, predecessor p cannot win or tie at any target below mx - drop[a, p],
the most p's transitions gain over a's at any target; a slack of
1e-9 * (1 + |mx| + scale), scale bounding the transitions' magnitudes,
dwarfs the float roundings (each under 2**-53 of that sum), and a dead
cell keeps none. `_delta` gives the drops of stage 1, over the slots s of
each cell (k, c), max_u (lh[s, u] - lh[a, u]), and of stage 2, over the
rows d, max_l (lf[d, l] - lf[a, l]) (+inf where only d reaches l); frame 1
under a flat key prior keeps most rows and stays dense. Stage 3 drops
every chord of a row (k, u) by max lg[k] - min_c lg[k, a, c], as chord c's
cell is at least mx + lg[k, a, c] and any chord adds at most max lg[k]; a
-inf minimum keeps the row whole. When every live cell keeps a alone (most
such frames of an unconstrained decode), stage 1 takes mx + lh[a, u] and a
at every target u, as (U, Cw, Kp) so that stage 2 reads each column as one
contiguous row of keys; it runs dense on any other frame, and on all when
a bass transition is -inf (a dead target slot takes slot 0).

After that one-slot tail, row d of every stage-2 column (u, c) holds
lh[s0[d, c], u] + mx[d, c], so stage 2 bounds each chord c once rather
than each of its U columns: with a the row of c's largest mx, row p
cannot win or tie at any (l, u) below mx[a, c] less stage 2's drop[a, p]
and stage 1's drop from slot s0[a, c] to s0[p, c], and the slack's scale
is the sum of both stages' scales (scale and scale_s), as both stages'
transitions enter the sums. After a dense stage 1 it bounds each column
(u, c) over its rows. Either test keeps every row that reaches a column's
maximum, so both find its maximum and lowest maximizing row. Kept
predecessors ascend and the lowest maximizing one wins, as in the dense
forms; a dead cell takes its key's first predecessor in stage 2 and chord
0 in stage 3.

Stage 2 returns a reader of the rows its maxima come from: the pruned
form keeps its (L, D, N) sums and finds a cell's first maximizing row only
where stage 3 reads it, or at every cell by D masked copies. The pruned
stage 3 works on rows: all cells (k, c, s) with u = slot_t[c, s] share the
row (k, u)'s candidates, so it adds each candidate's stage-2 maximum to its
whole row lg[k, cp, :] and reduces (L, U, D, Cw) over D in key blocks
under the budget. Where two candidates reach a maximum, the lowest
(previous key, chord) wins (`_lowest_tied`, as in the dense form). A row
that keeps one chord has one previous state for all its cells, packed once;
when every row keeps one, the frame stores that (L, U) table.

Stages 2 and 3 fuse into one argmax per target cell when each live key
has one predecessor d (D == 1, every frame of a tight decode), stage 1
runs dense and the (L * Cw * S, Cw) table fits its budget. A row adds
lf[d, k] and then lg[k, cp, c] to stage 1's maxima at (d, u), the staged
adds in order, so the argmax takes the staged maximum and its first
chord, dead cells included. With D > 1, rounding can merge two rows'
distinct stage-2 sums once lg is added, so those stay staged. A dense
stage 2 with D == 1 takes each key's one predecessor row as it is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .annotations import N_BASS, N_KEYS
from .chroma import Chromagram
from .model import ChordOnlyHmm, HpModel, gaussian_logpdf_frames

_TIE_BIG = np.int32(2**30)
# The dense stage 2's and stage 3's block budget in elements, and the form
# rules of stages 1, 2 and 3 (module docstring)
_BLOCK_ELEMENTS = 2**18
_DENSE_ELEMENTS = _BLOCK_ELEMENTS
_FUSED_ELEMENTS = _DENSE_ELEMENTS  # the fused stage 2-3 table's budget
_GATHER_COST = 4  # a gathered element costs about four dense ones
_DELTA_ELEMENTS = 2**16  # `_delta`'s block of differences
_CHORD_BOUND = True  # bound the previous chords before stage 1 (module docstring)


class NoAdmissiblePathError(Exception):
    """Every state died at some frame; message names the first dead frame."""

    def __init__(self, frame: int):
        self.frame = frame
        super().__init__(f"no admissible path: all states impossible at frame {frame}")


@dataclass(frozen=True)
class Constraints:
    """Search-space reduction settings.

    gamma: keep a key transition only if its raw training count exceeds
    gamma (None disables; self-transitions get no exception). tau: per
    chord, only the tau most-counted bass states stay admissible
    (tau=3 amounts to root position plus first/second inversion). cac:
    restrict chords to those a chord-only first pass actually used.
    """

    gamma: int | None = None
    tau: int | None = None
    cac: bool = False

    def __post_init__(self):
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be a non-negative count threshold")
        if self.tau is not None and not 1 <= self.tau <= N_BASS:
            raise ValueError(f"tau must be in 1..{N_BASS}")


@dataclass
class DecodePath:
    """Decoded per-frame states plus the joint log-probability achieved."""

    keys: np.ndarray
    chords: np.ndarray
    basses: np.ndarray
    log_prob: float
    expanded_transitions: int = 0

    def __len__(self) -> int:
        return self.keys.size


def prune_key_transitions(m: HpModel, gamma: int) -> np.ndarray:
    """Key-transition table with rarely-seen transitions zeroed.

    An entry survives only if its raw count exceeds gamma; no
    renormalization happens, so rows may sum below 1.
    """
    out = m.key_trans.copy()
    out[m.key_trans_counts <= gamma] = 0.0
    return out


def top_bass_states(m: HpModel, tau: int | None) -> np.ndarray:
    """(C, S) admissible bass states per chord, ascending within each row.

    Selection ranks raw chord-to-bass counts, breaking count ties toward
    the lower bass-state index.
    """
    s = N_BASS if tau is None else int(tau)
    order = np.argsort(-m.chord_bass_counts, axis=1, kind="stable")
    return np.sort(order[:, :s], axis=1)


# --- chord-only first pass ------------------------------------------------------


def forward_backward(hmm: ChordOnlyHmm, obs: np.ndarray) -> np.ndarray:
    """Per-frame state posteriors of the chord-only HMM, scaled probability
    domain (Rabiner 1989, sec. V.A). obs: (T, 24) treble+bass chroma.

    Each forward step rescales after combining log(alpha[t-1] @ A) + log_e[t],
    so an unreachable state with a dominant emission cannot underflow the
    others. Backward: post[t] = alpha[t] * (A @ (post[t+1] / pred[t+1])), 0/0 = 0."""
    log_e = gaussian_logpdf_frames(obs, hmm.means, hmm.covs, held=hmm.gaussians)
    T, n = log_e.shape
    alpha = np.empty((T, n))
    pred = np.empty((T, n))  # pred[t] = alpha[t-1] @ A, the one-step prediction
    pred[0] = hmm.init
    x = np.empty(n)  # one frame's work buffer, forward then backward
    # rows come from zip, reductions are ufunc methods (which skip
    # ndarray.max's and .sum's Python wrappers) and products np.dot in
    # place of np.matmul: the same bits in fewer Python calls
    top, total, trans = np.maximum.reduce, np.add.reduce, hmm.trans
    with np.errstate(divide="ignore"):
        for t, (p, e, a) in enumerate(zip(pred, log_e, alpha)):
            if t > 0:
                np.dot(alpha[t - 1], trans, out=p)
            np.add(np.log(p, out=x), e, out=x)
            peak = top(x)
            if not math.isfinite(peak):
                raise ValueError(f"no admissible chord state at frame {t}")
            np.exp(np.subtract(x, peak, out=x), out=a)
            np.divide(a, total(a), out=a)
    post = np.empty((T, n))
    post[-1] = alpha[-1]
    denom = np.where(pred > 0, pred, 1.0)  # post is 0 where pred is, and 0/1 = 0
    for p, later, d, a in zip(post[-2::-1], post[:0:-1], denom[:0:-1], alpha[-2::-1]):  # t = T - 2 down to 0
        np.dot(trans, np.divide(later, d, out=x), out=p)
        np.multiply(p, a, out=p)
        np.divide(p, total(p), out=p)
    return post


def chord_alphabet_constraint(hmm: ChordOnlyHmm, obs: np.ndarray, no_chord: int) -> np.ndarray:
    """Distinct chords of the first-pass decode (the most probable state per
    frame, ties to the lowest), plus no-chord, ascending."""
    states = forward_backward(hmm, obs).argmax(axis=1)
    return np.union1d(np.unique(states), [no_chord]).astype(np.int64)


# --- joint decoding -------------------------------------------------------------


@dataclass
class _LogTables:
    """Log-domain, constraint-applied views used by one decode run."""

    lpi_k: np.ndarray  # (24,)
    lpi_c: np.ndarray  # (Cw,)
    lpi_b: np.ndarray  # (13,)
    lf: np.ndarray  # (24, 24) key transitions
    lg: np.ndarray  # (24, Cw, Cw) chord transitions per key, C-ordered (`_layout` reads live rows in place)
    lh: np.ndarray  # (13, 13) bass transitions
    lr: np.ndarray  # (Cw, S) bass given chord, at each chord's bass slots
    slots: np.ndarray  # (Cw, S) admissible bass targets per chord
    working: np.ndarray  # (Cw,) chord states in original alphabet indices
    emis_c: np.ndarray  # (T, Cw)
    emis_b: np.ndarray  # (T, 13)


def _build_tables(
    m: HpModel, constraints: Constraints, treble: Chromagram, bass: Chromagram
) -> _LogTables:
    if treble.n_frames != bass.n_frames:
        raise ValueError("treble and bass chromagrams must have equal frame counts")
    t_frames, b_frames = treble.values.T, bass.values.T
    key_trans = m.key_trans if constraints.gamma is None else prune_key_transitions(m, constraints.gamma)

    # The chord alphabet constraint zeroes transitions whose endpoints fall
    # outside the first-pass chord set, which for two or more frames is the
    # same as restricting the chord state space; a single frame has no
    # transitions to prune, so it keeps the full alphabet.
    if constraints.cac and treble.n_frames >= 2:
        working = chord_alphabet_constraint(
            m.cac, np.concatenate([t_frames, b_frames], axis=1), m.alphabet.no_chord
        )
    else:
        working = np.arange(m.n_chords, dtype=np.int64)
    slots = top_bass_states(m, constraints.tau)[working]

    with np.errstate(divide="ignore"):
        lpi_k = np.log(m.init_key)
        lpi_c = np.log(m.init_chord[working])
        lpi_b = np.log(m.init_bass)
        lf = np.log(key_trans)
        lh = np.log(m.bass_trans)
        lr = np.log(np.take_along_axis(m.bass_given_chord[working], slots, axis=1))
        # each key's mode table at the working set, chords shifted so the tonic is C,
        # gathered a mode (12 keys) at a time
        lg = np.empty((2, 12, working.size, working.size))
        for mode, rel in enumerate(m.alphabet.key_shift_table()[:, working].reshape(2, 12, -1)):
            np.log(m.chord_trans_rel[mode][rel[:, :, None], rel[:, None, :]], out=lg[mode])
        lg = lg.reshape(N_KEYS, working.size, working.size)

    emis_c = gaussian_logpdf_frames(
        t_frames, m.chord_emis_mean, m.chord_emis_cov,
        lambda row: f"chord {working[row]} ({m.alphabet.label_at(working[row])})", working, m.chord_emis_gaussians,
    )  # fmt: skip
    emis_b = gaussian_logpdf_frames(b_frames, m.bass_emis_mean, m.bass_emis_cov, held=m.bass_emis_gaussians)
    return _LogTables(lpi_k, lpi_c, lpi_b, lf, lg, lh, lr, slots, working, emis_c, emis_b)


class _Prev(NamedTuple):
    """How one step reads the previous frame's v: the keys of its rows and
    the basses (Cw, Sp) of its slots."""

    keys: np.ndarray
    slots: np.ndarray
    lh_g: np.ndarray  # (U, Cw, Sp) from each slot to each stage-1 target bass
    starts: np.ndarray  # (Kp, U, Cw) flat index of each stage-1 row's first element
    delta_s: np.ndarray  # (Cw * Sp, Sp) [c * Sp + a, s]: the most slot s gains over slot a at any target
    scale_s: float  # twice the largest |lh_g|, for the stage-1 slack
    dense_s: bool  # stage 1 takes every previous slot on every frame
    lf_rows: np.ndarray  # (L, Kp) from each row to each live key, -inf for none
    delta: np.ndarray  # (Kp, Kp) [a, d]: the most row d gains over row a at any live key
    scale: float  # twice the largest finite |lf_rows|, for the stage-2 slack
    gaps: bool  # some row does not reach some live key
    dense: bool  # stage 2 takes every predecessor on every frame
    pred: np.ndarray  # (L, D) each live key's predecessors, ascending, padded
    lf_pred: np.ndarray  # (L, D, 1, 1) their transitions, -inf as padding
    n_expanded: int  # the step's expanded transitions
    out_max: float  # the largest transition into a live key, for the chord bound
    lh_max: np.ndarray  # (Cw,) the largest lh_g out of each chord's slots
    scale_c: float  # twice the largest finite |lf_rows| and |lh_g|, for the chord bound's slack
    fused: _Fused | None = None  # stages 2 and 3 as one argmax, when they fit its budget


class _Fused(NamedTuple):
    """Stages 2 and 3 over an (L * Cw * S, Cw) table: a row per target
    cell (k, c, s), a column per previous chord."""

    rows: np.ndarray  # (L * Cw * S,) each cell's (predecessor row, u) in stage 1's output as (Kp * U, Cw)
    flat: np.ndarray  # (L * Cw * S,) rows * Cw, the flat index of each row's first element there
    lf: np.ndarray  # (L * Cw * S, Cw) each cell's key transition, at every previous chord
    lg: np.ndarray  # (L * Cw * S, Cw) each entry's chord transition
    starts: np.ndarray  # (L * Cw * S,) flat index of each row's first entry
    bp: np.ndarray  # (Kp * U * Cw,) (row * Cw + chord) * Sp of each stage-1 output element


def _fused_layout(prev: _Prev, lg_live, slot_t) -> _Fused | None:
    """The fused tables, when each live key has one predecessor, stage 1
    runs dense and they fit the budget."""
    n_live, deg = prev.pred.shape
    cw, s = slot_t.shape
    n_u = prev.lh_g.shape[0]
    if deg > 1 or not prev.dense_s or n_live * cw * s * cw > _FUSED_ELEMENTS:
        return None
    shape = (n_live, cw, s)
    bp = (np.arange(prev.keys.size)[:, None, None] * cw + np.arange(cw)) * prev.slots.shape[1]
    rows = (prev.pred.reshape(n_live, 1, 1) * n_u + slot_t).ravel()
    return _Fused(
        rows, rows * cw,
        np.broadcast_to(prev.lf_pred.reshape(n_live, 1, 1, 1), (*shape, cw)).reshape(-1, cw),
        np.broadcast_to(lg_live[:, :, None], (*shape, cw)).reshape(-1, cw),
        np.arange(0, n_live * cw * s * cw, cw),
        np.broadcast_to(bp, (prev.keys.size, n_u, cw)).ravel(),
    )


def _delta(x):
    """[..., a, d]: the most x[i, ..., d] exceeds x[i, ..., a] at any i, a
    block of i under _DELTA_ELEMENTS differences at a time."""
    out = np.full((*x.shape[1:], x.shape[-1]), -np.inf)
    n = max(1, _DELTA_ELEMENTS // max(out.size, 1))
    diff, most = np.empty((min(n, len(x)), *out.shape)), np.empty(out.shape)
    with np.errstate(invalid="ignore"):  # -inf - -inf is NaN, which fmax skips
        for i in range(0, len(x), n):
            xi = x[i : i + n]
            np.subtract(xi[..., None, :], xi[..., None], out=diff[: len(xi)])
            np.fmax(out, np.fmax.reduce(diff[: len(xi)], axis=0, out=most), out=out)
    return out


def _row_starts(shape):
    """The flat index of the first element of each last-axis row of a
    C-ordered array of this shape, as shape[:-1]."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1])


def _prev_layout(tables: _LogTables, keys, slots, live, targets) -> _Prev:
    """n_expanded counts stage 1 over all keys and target basses, stage 2
    over every finite key transition and stage 3 over every finite chord
    transition into each bass slot."""
    lf_rows = np.ascontiguousarray(tables.lf[np.ix_(keys, live)].T)
    fin = np.isfinite(lf_rows)
    scale = 2 * float(np.abs(lf_rows[fin]).max(initial=0))
    deg = max(1, int(fin.sum(axis=1).max(initial=0)))
    pred = np.argsort(~fin, axis=1, kind="stable")[:, :deg]
    lf_pred = np.take_along_axis(lf_rows, pred, axis=1)[:, :, None, None]
    lh_g = np.ascontiguousarray(tables.lh[slots][:, :, targets].transpose(2, 0, 1))
    starts = np.arange(0, lh_g.size * keys.size, slots.shape[1]).reshape(keys.size, *lh_g.shape[:2])
    delta_s = _delta(lh_g).reshape(-1, slots.shape[1])  # a table with -inf keeps stage 1 dense
    scale_s = 2 * float(np.abs(lh_g).max(initial=0))
    scale_c = scale + 2 * float(np.abs(lh_g[np.isfinite(lh_g)]).max(initial=0))
    dense_s = keys.size * lh_g.size <= _DENSE_ELEMENTS or not np.isfinite(scale_s)
    dense = live.size * deg * lh_g.shape[0] * lh_g.shape[1] <= _DENSE_ELEMENTS
    n_keys, cw, _ = tables.lg.shape
    n_expanded = (
        n_keys * int(np.isfinite(tables.lh).sum(axis=1)[slots].sum())
        + cw * tables.lh.shape[0] * int(np.isfinite(tables.lf).sum())
        + tables.slots.shape[1] * int(np.isfinite(tables.lg).sum())
    )
    return _Prev(
        keys, slots, lh_g, starts, delta_s, scale_s, dense_s, lf_rows, _delta(lf_rows), scale, not fin.all(),
        dense, pred, lf_pred, n_expanded, lf_rows.max(initial=-np.inf), lh_g.max(axis=(0, 2)), scale_c,
    )


class _Layout(NamedTuple):
    """What every step reads and no frame changes."""

    tables: _LogTables
    live: np.ndarray  # (L,) the keys some finite transition reaches
    first: _Prev  # frame 1 reads frame 0: every key and bass
    rest: _Prev  # later frames read the live keys at the bass slots
    slot_t: np.ndarray  # (Cw, S) column of each bass slot among stage 1's targets
    lg_live: np.ndarray  # (L, c, c_prev) chord transitions into the live keys
    dense: bool  # stage 3 takes every previous chord on every frame
    drop: np.ndarray  # (L * c_prev, 1) the stage-3 bound's drop, +inf where it holds none,
    scale: np.ndarray  # and its magnitude, for the slack
    drop_max: np.ndarray  # (L, 1) each live key's largest drop,
    scale_max: np.ndarray  # and scale, for the chord bound
    lg_from: np.ndarray  # (L * c_prev, c) chord transitions out of each (live key, previous chord)
    key_idx: np.ndarray  # (L, 1, 1)
    key_u: np.ndarray  # (L, Cw, S) flat index of each cell's row (k, u) in a stage-2 output's (L, U)
    cells: np.ndarray  # (L, Cw, S) flat index of each cell's (k, u, c) in a stage-2 output
    bp_dtype: np.dtype  # holds a flat (row, chord, slot) index of any v
    emission: Callable  # frame t's (Cw, S) term lr + emis_c[t] + emis_b[t], summed in that order


def _layout(tables: _LogTables) -> _Layout:
    n_keys, cw, _ = tables.lg.shape
    n_bass = tables.lh.shape[0]
    live = np.flatnonzero(np.isfinite(tables.lf).any(axis=0))
    targets = np.unique(tables.slots)  # stage-1 target basses
    first = _prev_layout(tables, np.arange(n_keys), np.tile(np.arange(n_bass), (cw, 1)), live, targets)
    rest = _prev_layout(tables, live, tables.slots, live, targets)
    lg_from = (tables.lg if live.size == n_keys else tables.lg[live]).reshape(-1, cw)  # a view when all are live
    dense = lg_from.size * tables.slots.shape[1] <= _DENSE_ELEMENTS
    lg_live = lg_from.reshape(live.size, cw, cw).transpose(0, 2, 1)
    if dense:  # dense stage 3 reads it on every frame, so it is transposed once per decode
        lg_live = np.ascontiguousarray(lg_live)
    slot_t = np.searchsorted(targets, tables.slots)
    first, rest = (prev._replace(fused=_fused_layout(prev, lg_live, slot_t)) for prev in (first, rest))
    colmin = lg_live.min(axis=1)
    gmax = lg_live.max(axis=(1, 2), initial=-np.inf)[:, None]
    drop = np.full_like(colmin, np.inf)
    np.subtract(gmax, colmin, out=drop, where=np.isfinite(colmin))
    scale = np.abs(colmin) + np.abs(gmax)
    key_idx = np.arange(live.size)[:, None, None]
    key_u = key_idx * targets.size + slot_t
    cells = key_u * cw + np.arange(cw)[:, None]
    bp_dtype = np.min_scalar_type(n_keys * cw * n_bass - 1)
    n = max(1, _BLOCK_ELEMENTS // 64 // tables.slots.size)  # frames a block of `emission` holds (it outlives a step)
    block = functools.lru_cache(maxsize=1)(
        lambda t0: tables.lr + tables.emis_c[t0 : t0 + n, :, None] + tables.emis_b[t0 : t0 + n][:, tables.slots]
    )
    return _Layout(
        tables, live, first, rest, slot_t, lg_live, dense, drop.reshape(-1, 1), scale.reshape(-1, 1),
        drop.max(axis=1, keepdims=True), scale.max(axis=1, keepdims=True), lg_from, key_idx, key_u, cells, bp_dtype,
        lambda t: block(t - t % n)[t % n],
    )


def _step(layout: _Layout, v: np.ndarray, t: int):
    """Frame t's v (L, Cw, S) from frame t - 1's, and frame t's
    backpointers: the flat (row, chord, slot) index in frame t - 1's v of
    the previous state each best path comes from, per cell (L, Cw, S) or
    per stage-3 row (L, U) (module docstring)."""
    prev = layout.first if t == 1 else layout.rest
    if prev.fused is not None:
        return _fused_step(layout, prev, t, *_stage1(prev, v)[:2])
    kept = _chord_bound(layout, prev, v) if _CHORD_BOUND else None
    if kept is not None:
        return _stage3(layout, prev, t, *kept)
    stage_b, from_s, tail = _stage1(prev, v)
    stage_k, rows = _stage2(layout, prev, stage_b, tail)
    return _stage3(layout, prev, t, stage_k, rows, from_s)


def _chord_bound(layout: _Layout, prev: _Prev, v):
    """The previous chords that stage 3's bound can keep (module
    docstring), ascending, and stages 1 and 2 on them alone: (stage_k,
    rows, from_s, chords); None where more than Cw / _GATHER_COST of them,
    or all, may be kept."""
    if not len(prev.pred):  # no live key: the frame dies
        return None
    per_key = prev.pred.shape[1] == 1  # each live key has one predecessor
    if per_key:
        ub = v.take(prev.pred[:, 0], axis=0).max(axis=-1)  # (L, Cw)
        ub += prev.lf_pred[:, 0, 0]
    else:  # (1, Cw), over the rows first, which numpy reduces far faster than the short slot axis
        ub = v.max(axis=0).max(axis=-1)[None]
        ub += prev.out_max
    ub += prev.lh_max
    chords = ub.max(axis=0).argmax(keepdims=True)
    if per_key:
        stage_k, rows, from_s = _stages12(layout, prev, v, chords)
        col = stage_k[..., 0]
    else:
        col = _one_path(prev, v, chords[0])
    lb = col - 1e-9 * (1 + np.abs(col) + layout.scale_max) - layout.drop_max
    lb = lb.min(axis=1, keepdims=True) if per_key else lb.min(keepdims=True)
    if lb.min() == -np.inf:  # a row that the column does not bound may keep every chord
        return None
    with np.errstate(invalid="ignore"):  # a dead chord's -inf + inf, which it does not keep
        keep = (ub + 1e-9 * (1 + np.abs(ub) + prev.scale_c) >= lb).any(axis=0)
    n = np.count_nonzero(keep)
    if n == len(keep) or n * _GATHER_COST > len(keep):
        return None
    if n > 1 or not per_key:
        chords = np.flatnonzero(keep)
        stage_k, rows, from_s = _stages12(layout, prev, v, chords)
    return stage_k, rows, from_s, chords


def _one_path(prev: _Prev, v, c):
    """(L, U): the value of one path into each stage-3 row (l, u) through
    previous chord c, summed as stages 1 and 2 sum, so at most c's exact
    stage-2 column: each previous row d at its best slot s(d), and each
    live key l from the row d_l of largest v[d, c, s(d)] + lf[d, l]."""
    vc = v[:, c]  # (Kp, Sp)
    s = vc.argmax(axis=1)
    best = vc.take(s + _row_starts(vc.shape))  # (Kp,)
    d = (prev.lf_rows + best).argmax(axis=1)  # (L,)
    col = prev.lh_g[:, c].take(s.take(d), axis=1).T  # (L, U) lh_g[u, c, s(d_l)]
    col += best.take(d)[:, None]
    col += prev.lf_rows.take(d + _row_starts(prev.lf_rows.shape))[:, None]
    return col


def _stages12(layout: _Layout, prev: _Prev, v, chords):
    """Stages 1 and 2, dense, on the previous chords `chords` alone:
    (stage_k, rows, from_s) with the chords on the last axis. With more
    than one predecessor per live key, stage 2 reduces (N, L, D), each
    column n = (u, c)'s predecessor rows on the last axis, whose argmax is
    the lowest maximizing row, as the rank form's."""
    n_u, sp = len(prev.lh_g), v.shape[-1]
    sub = prev._replace(
        lh_g=prev.lh_g[:, chords], starts=_row_starts((len(v), n_u, len(chords), sp)), dense_s=True, dense=True
    )
    stage_b, from_s, _ = _stage1(sub, v[:, chords])
    n_live, deg = prev.pred.shape
    if deg == 1:
        return *_stage2(layout, sub, stage_b), from_s
    val = stage_b.reshape(len(stage_b), -1).T.take(prev.pred, axis=1)  # (N, L, D)
    val += prev.lf_pred[..., 0, 0]
    at = val.argmax(axis=-1)  # (N, L)
    shape = (n_live, n_u, len(chords))
    stage_k = np.ascontiguousarray(val.take(at + _row_starts(val.shape)).T).reshape(shape)  # stage 3 reads it flat
    from_row = prev.pred.take(at + _row_starts(prev.pred.shape)).T.reshape(shape)
    return stage_k, lambda at=None: from_row if at is None else from_row.take(at), from_s


def _fused_step(layout: _Layout, prev: _Prev, t, stage_b, from_s):
    """Stages 2 and 3 as one argmax per target cell over its previous
    chords at its key's one predecessor, summed as the staged form sums
    them; returns frame t's v and backpointers (module docstring)."""
    f = prev.fused
    val = stage_b.reshape(-1, stage_b.shape[-1]).take(f.rows, axis=0)
    val += f.lf
    val += f.lg
    at = val.argmax(axis=1)
    v = val.take(at + f.starts).reshape(layout.key_u.shape)
    v += layout.emission(t)
    backptr = (f.bp + from_s.reshape(-1)).take(f.flat + at)  # at the winner's flat index in stage 1's output
    return v, backptr.astype(layout.bp_dtype).reshape(v.shape)


def _bound(x, drop, scale, base=0, alone=False):
    """The exact bound over x's last axis (module docstring): each cell's
    first maximum, at and mx (with a last axis of 1), and the entries it
    keeps, none in a dead cell; drop's rows, and scale's when it is an
    array, are read at base + at, or a callable drop gives its rows from
    at. With alone, keep is None when as many entries as live cells are
    kept: each live cell keeps its maximum alone."""
    at = x.argmax(axis=-1)
    mx = x.take(at + _row_starts(x.shape))[..., None]
    row = at + base
    if np.ndim(scale):
        scale = scale.take(row, axis=0)
    drop = drop(at) if callable(drop) else drop.take(row, axis=0)
    alive = mx > -np.inf
    with np.errstate(invalid="ignore"):  # a dead cell's inf - inf
        keep = x >= np.where(alive, mx - 1e-9 * (1 + np.abs(mx) + scale), np.inf) - drop
    if alone and np.count_nonzero(keep) == np.count_nonzero(alive):
        keep = None
    return at, mx, keep


def _stage1(prev: _Prev, v):
    """Collapse the previous bass over the last axis of (Kp, U, Cw, Sp),
    to the lowest maximizing slot (bass); returns the (Kp, U, Cw) maxima,
    the slots and None. Unless dense, a frame whose bound keeps only each
    cell's maximizing slot s0 takes it at every target bass, in stage 2's
    column order, and returns s0 as the slots and, for stage 2's bound,
    the tail: s0 and the cells' maxima mx, each as (Cw, Kp) (module
    docstring)."""
    if not prev.dense_s:
        base = _row_starts(v.shape[1:])  # each chord's first row c * Sp in delta_s
        s0, mx, keep = _bound(v, prev.delta_s, prev.scale_s, base, alone=True)
        if keep is None:
            s0_t, mx_t = s0.T.copy(), mx[..., 0].T.copy()  # (Cw, Kp), stage 2's column order
            stage_b = prev.lh_g.reshape(len(prev.lh_g), -1).take(s0_t + base[:, None], axis=1)  # (U, Cw, Kp)
            stage_b += mx_t
            return stage_b.transpose(2, 0, 1), s0, (s0_t, mx_t)
    tmp = v[:, None] + prev.lh_g
    from_s = tmp.argmax(axis=-1)
    return tmp.reshape(-1)[from_s + prev.starts], from_s, None


def _stage2(layout: _Layout, prev: _Prev, stage_b, tail=None):
    """Collapse the previous key: returns the (L, U, Cw) maxima and a reader
    of the stage_b rows they come from, the first maximizing predecessor, at
    the flat indices at or, with none, at every cell. Pruned, over the rows
    the bound keeps (per chord from stage 1's tail, per column without
    one); dense, over axis 1 of (L, D, U, Cw) in key blocks, where the
    largest rank (D down to 1) equal to the max marks that predecessor."""
    if not prev.dense:
        cols = np.ascontiguousarray(stage_b.reshape(len(stage_b), -1).T)  # (N, Kp), as stage 1's tail wrote it
        cand = _stage2_candidates(prev, cols, tail)
        if cand.shape[0] * _GATHER_COST <= prev.pred.shape[1]:
            return _stage2_pruned(prev, cols, cand, stage_b.shape[1:])
    n_live, deg = prev.pred.shape
    stage_k = np.empty((n_live, *stage_b.shape[1:]))
    from_row = np.empty(stage_k.shape, dtype=prev.pred.dtype)
    if deg == 1:  # every cell's row is its key's one predecessor
        np.add(stage_b.take(prev.pred[:, 0], axis=0), prev.lf_pred[:, 0], out=stage_k)
        from_row[...] = prev.pred[:, :, None]
    else:
        rank = np.arange(deg, 0, -1, dtype=np.min_scalar_type(deg))[:, None, None]
        block = max(1, _BLOCK_ELEMENTS // (deg * stage_b[0].size))
        for k0 in range(0, n_live, block):
            ks = slice(k0, k0 + block)
            tmp = stage_b.take(prev.pred[ks], axis=0)
            tmp += prev.lf_pred[ks]
            mx = tmp.max(axis=1, out=stage_k[ks])
            from_row[ks] = prev.pred[layout.key_idx[ks], deg - (np.equal(tmp, mx[:, None]) * rank).max(axis=1)]
    return stage_k, lambda at=None: from_row if at is None else from_row.take(at)


def _stage2_candidates(prev: _Prev, cols, tail=None):
    """(D, N) rows of each stage-2 column n = (u, c) of cols (N, Kp) that
    the bound keeps, ascending, padded to the widest column with repeats of
    its maximizing row d0, which is all a dead column keeps. With stage 1's
    tail (s0, mx), the bound runs once per chord c over the rows' mx[c]
    (module docstring), and each chord's rows, padded with its best row,
    serve its U columns."""
    if tail is None:
        x, drop, scale = cols, prev.delta, prev.scale
    else:
        s0, x = tail
        sp = prev.slots.shape[1]
        chord = _row_starts((len(s0), sp))  # (Cw,) each chord's first row c * Sp in delta_s

        def drop(a):  # delta[a, p] + delta_s[c * Sp + s0[a, c], s0[p, c]] at each chord's best row a
            row = chord + s0.take(a + _row_starts(s0.shape))
            return prev.delta.take(a, axis=0) + prev.delta_s.take((row * sp)[:, None] + s0)

        scale = prev.scale + prev.scale_s
    d0, _, keep = _bound(x, drop, scale)
    at, rows = np.divmod(np.flatnonzero(keep), keep.shape[1])
    count = np.bincount(at, minlength=len(x))
    cand = np.tile(d0, (max(1, int(count.max(initial=0))), 1))
    cand[np.arange(at.size) - (np.cumsum(count) - count)[at], at] = rows
    return cand if tail is None else np.tile(cand, len(cols) // len(x))


def _stage2_pruned(prev: _Prev, cols, cand, shape):
    """Stage 2 over the candidate rows cand (D, N) of cols (N, Kp), the
    (U, Cw) = shape columns: the maximum of (L, D, N), and a reader of the
    lowest maximizing rows by D masked copies, lowest row last, over the
    sums at the cells it reads."""
    val = prev.lf_rows.take(cand, axis=1)
    val += cols.take(cand + _row_starts(cols.shape))
    stage_k = val.max(axis=1)
    n_cols, shape = cand.shape[1], (len(val), *shape)

    def rows(at=None):
        if at is None:
            c, sums, mx, k = cand[:, None], val.transpose(1, 0, 2), stage_k, np.arange(len(val))[:, None]
        else:  # val's (k, d, n) at each flat (k, n) and every d
            k, n = np.divmod(at, n_cols)
            c, mx = cand.take(n, axis=1), stage_k.take(at)
            sums = val.take(np.add.outer(np.arange(len(cand)) * n_cols, at + k * (len(cand) - 1) * n_cols))
        row = np.array(np.broadcast_to(c[-1], mx.shape))
        for j in range(len(c) - 2, -1, -1):
            np.copyto(row, c[j], where=sums[j] == mx)
        if prev.gaps:  # a dead cell comes from its key's first predecessor, as in the dense form
            np.copyto(row, prev.pred[:, 0].take(k), where=mx == -np.inf)
        return row.reshape(shape) if at is None else row

    return stage_k.reshape(shape), rows


def _stage3_candidates(stage_k, drop, scale):
    """(L, U, D) previous chords of each stage-3 row (k, u) that the bound
    keeps, ascending, padded to the widest row with chords it drops."""
    cw = stage_k.shape[-1]
    cp0, _, keep = _bound(stage_k, drop, scale, np.arange(len(stage_k))[:, None] * cw, alone=True)
    if keep is None:
        return cp0[..., None]
    n = keep.sum(axis=-1)
    cand = (cp0[..., None] + np.arange(n.max())) % cw
    cand[n > 1] = np.argsort(~keep[n > 1], axis=-1, kind="stable")[:, : cand.shape[-1]]
    return cand


def _stage3(layout: _Layout, prev: _Prev, t, stage_k, rows, from_s, chords=None):
    """Collapse the previous chord, dense over every previous chord or in
    row form over the candidates cand (L, U, D) that the bound keeps, in key
    blocks under the element budget; returns frame t's v and backpointers.
    The last axis of stage_k holds the previous chords `chords` (all when
    None), through which it bounds and gathers."""
    tables = layout.tables
    n_live, cw, s = layout.live.size, tables.working.size, tables.slots.shape[1]
    n = stage_k.shape[-1]
    chord = (lambda c: c) if chords is None else chords.take  # the previous chord at a position of that axis
    cand = None
    if not layout.dense:
        drop, scale = layout.drop, layout.scale
        if chords is not None:  # the bound's rows at those chords
            drop, scale = (x.reshape(n_live, cw).take(chords, axis=1).reshape(-1, 1) for x in (drop, scale))
        cand = _stage3_candidates(stage_k, drop, scale)
    if cand is not None and cand.shape[2] * _GATHER_COST > cw:
        cand = None  # gathering this many would cost more than every chord
    if cand is not None and cand.shape[2] == 1:  # a row's cells share one previous state: pack and keep it once
        at = _row_starts(stage_k.shape)[..., None] + cand  # (L, U, 1) in stage 2's output
        prev_c = chord(cand)
        best = layout.lg_from.take(prev_c[..., 0] + layout.key_idx[..., 0] * cw, axis=0)  # (L, U, Cw)
        best += stage_k.take(at)
        packed = _pack(prev, rows(at), from_s, at, layout.key_idx, prev_c).astype(layout.bp_dtype)
        v = best.take(layout.cells)
        v += layout.emission(t)
        return v, packed[..., 0]
    from_row = rows()
    lg_live = layout.lg_live if chords is None or cand is not None else layout.lg_live.take(chords, axis=2)
    # elements per (k, c, S) cell: n dense; in row form, 3 D and 24 for the tie path and packing
    block = max(1, _BLOCK_ELEMENTS // (cw * s * (n if cand is None else 3 * cand.shape[2] + 24)))
    v = np.empty((n_live, cw, s))
    backptr = np.empty(v.shape, dtype=layout.bp_dtype)
    for k0 in range(0, n_live, block):
        ks = slice(k0, k0 + block)
        if cand is None:
            best, from_c = _stage3_dense(layout, ks, stage_k, from_row, lg_live)
        else:
            best, from_c = _stage3_rows(layout, ks, stage_k, cand, chord(cand), from_row)
        v[ks] = best + layout.emission(t)
        at = layout.key_u[ks] * n + from_c
        backptr[ks] = _pack(prev, from_row.take(at), from_s, at, layout.key_idx[ks], chord(from_c))
    return v, backptr


def _stage3_rows(layout: _Layout, ks, stage_k, cand, prev_c, from_row):
    """Row-form stage 3 on the keys ks: the maxima over D of (k, U, D, Cw)
    and the positions in cand of their previous chords prev_c (module
    docstring), at the (k, c, S) cells."""
    cand, cw = cand[ks], layout.lg_from.shape[1]
    val = layout.lg_from.take(prev_c[ks] + layout.key_idx[ks] * cw, axis=0)
    val += stage_k.take(_row_starts(stage_k.shape)[ks][..., None] + cand)[..., None]
    best = val.max(axis=2)
    eq = val == best[:, :, None]
    from_c = np.repeat(cand[:, :, -1:], cw, axis=2)
    for j in range(cand.shape[2] - 2, -1, -1):
        np.copyto(from_c, cand[:, :, j, None], where=eq[:, :, j])
    # a live cell reaches its maximum at one candidate unless it ties, and a
    # dead one at all D
    if np.count_nonzero(eq) > best.size + (cand.shape[2] - 1) * np.count_nonzero(best == -np.inf):
        k, u, c = np.nonzero((np.count_nonzero(eq, axis=2) > 1) & (best > -np.inf))
        at = cand[k, u]  # (M, D)
        from_c[k, u, c] = _lowest_tied(from_row[ks][k[:, None], u[:, None], at], at, eq[k, u, :, c])
    cells = layout.cells[: len(cand)]
    return best.take(cells), from_c.take(cells)


def _pack(prev: _Prev, row, from_s, at, k, from_c):
    """Backpointers of the stage-2 cells at flat indices at of (L, U, n),
    n the chords it holds, with stage-2 rows row, on live keys k with
    previous chords from_c: the flat (row, chord, slot) index in the
    previous v of each best state."""
    flat = row * len(prev.slots) + from_c  # (row, chord) of the previous v
    # stage 1's tail gives one slot per (row, chord), its dense form one per (row, u, position on the chord axis)
    slot = from_s.take(flat if from_s.ndim == 2 else (row - k) * from_s[0].size + at)
    return flat * prev.slots.shape[1] + slot


def _stage3_dense(layout: _Layout, ks, stage_k, from_row, lg_live):
    """Dense stage 3 on the keys ks: per (k, c, S) cell, the maximum over
    the previous chords of stage_k's last axis, whose transitions lg_live
    holds, and the position of its previous chord, the lowest in (previous
    key, chord) order among tied maxima."""
    slot_t = layout.slot_t
    val = stage_k[ks].take(slot_t, axis=1)  # (k, c, S, n)
    val += lg_live[ks, :, None]
    from_c = val.argmax(axis=-1)
    row_starts = _row_starts(val.shape)
    at = from_c + row_starts
    best = val.reshape(-1)[at]
    # a cell ties when its live maximum survives knocking out the argmax;
    # argmax took the lowest previous chord, but the canonical order is
    # previous key first, so a tie is re-picked
    np.put(val, at, -np.inf)
    second = val.reshape(-1)[val.argmax(axis=-1) + row_starts]
    ties = np.isfinite(best) & (second == best)
    if ties.any():
        np.put(val, at, best)
        tied = _lowest_tied(from_row[ks].take(slot_t, axis=1), np.arange(val.shape[-1]), val == best[..., None])
        from_c = np.where(ties, tied, from_c)
    return best, from_c


def _lowest_tied(rows, chords, tied):
    """The chord of the lowest (stage-2 row, chord) among the tied entries
    of the last axis, the canonical order: rows ascend with keys."""
    return np.where(tied, rows * 256 + chords, _TIE_BIG).min(axis=-1) % 256


def _backtrace(layout: _Layout, backptr: list, v: np.ndarray):
    """(keys, chord positions, basses, log_prob) of the path that ends at
    the final frame's lowest maximizing cell and follows backptr[t], frame
    t's backpointers per cell or per stage-3 row, back to frame 0."""
    first, rest, cw = layout.first, layout.rest, layout.tables.working.size
    rows, chords, slots = np.empty((3, len(backptr)), dtype=np.int64)  # cells of each frame's v
    r, c, j = np.unravel_index(int(np.argmax(v)), v.shape)
    log_prob = float(v[r, c, j])
    for t in range(len(backptr) - 1, -1, -1):
        rows[t], chords[t], slots[t] = r, c, j
        if t > 0:
            sp, bp = (first if t == 1 else rest).slots.shape[1], backptr[t]
            r, rem = divmod(int(bp[r, layout.slot_t[c, j]] if bp.ndim == 2 else bp[r, c, j]), cw * sp)
            c, j = divmod(rem, sp)
    keys = np.r_[first.keys[rows[:1]], rest.keys[rows[1:]]]
    basses = np.r_[first.slots[chords[:1], slots[:1]], rest.slots[chords[1:], slots[1:]]]
    return keys, chords, basses, log_prob


def _viterbi_tables(tables: _LogTables):
    """Staged Viterbi over prepared log tables; dimensions come from the
    table shapes. Returns (keys, chord_positions, basses, log_prob,
    n_expanded) with chord positions indexing the working set."""
    layout = _layout(tables)
    v = (
        tables.lpi_k[:, None, None]
        + (tables.lpi_c + tables.emis_c[0])[None, :, None]
        + (tables.lpi_b + tables.emis_b[0])[None, None, :]
    )
    T = tables.emis_c.shape[0]
    backptr = [None] * T  # frame t's backpointers; frame 0 has none
    top = np.maximum.reduce  # skips ndarray.max's Python wrapper, a microsecond of a tight step
    for t in range(T):
        if t > 0:
            v, backptr[t] = _step(layout, v, t)
        if not math.isfinite(top(v, axis=None, initial=-np.inf)):
            raise NoAdmissiblePathError(t)
    n_expanded = 0 if T == 1 else layout.first.n_expanded + (T - 2) * layout.rest.n_expanded
    return (*_backtrace(layout, backptr, v), n_expanded)


def viterbi_joint(
    m: HpModel, constraints: Constraints, treble: Chromagram, bass: Chromagram
) -> DecodePath:
    """Exact argmax (key, chord, bass) path under the constrained tables.

    Identical to flat Viterbi over the product space, but each step
    maximizes stage-by-stage per the factored transition. Raises
    NoAdmissiblePathError naming the first frame at which every state
    became impossible.
    """
    tables = _build_tables(m, constraints, treble, bass)
    keys, chord_pos, basses, log_prob, n_expanded = _viterbi_tables(tables)
    return DecodePath(keys, tables.working[chord_pos], basses, log_prob, n_expanded)
