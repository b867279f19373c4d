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

Each stage keeps the axis it maximizes over where numpy reduces it without
a transposed copy. Stages 1 and 3 put it last and contiguous: stage 1 works
on (previous key, target bass, chord, previous slot) and stage 3 on (key,
chord, slot, previous chord), so the chord transitions are transposed once
per decode and the stage outputs are already in the order the next stage
reads. Stage 2, (key, predecessor, target bass, previous chord), takes the
max over its middle axis in one ufunc reduction and finds the first
predecessor that reaches it by comparison. A stage-3 cell ties when its
maximum survives knocking out the argmax, and only then is the tie
repaired.

Stage 3 runs dense, over every previous chord, when its tensor fits one
block (tight decodes) or a frame keeps over a quarter of the chords (as when
unseen chords share one Gaussian and tie); otherwise each row (k, u) takes
only the previous chords an exact bound keeps. With mx the row's maximum,
at cp0, chord c's cell is at least mx + lg[k, cp0, c] and chord cp adds at
most max lg[k], so cp below mx + min_c lg[k, cp0, c] - max lg[k] cannot
win or tie; a slack of 1e-9 * (1 + |mx| + |min| + |max|) dwarfs the float
roundings (each under 2**-53 of that sum). A -inf minimum keeps the row
whole, a dead row one chord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import N_BASS, N_KEYS
from .chroma import Chromagram
from .model import ChordOnlyHmm, HpModel, gaussian_logpdf_frames

_TIE_BIG = np.int32(2**30)
# Stage 3's block budget in elements, and its form rules (module docstring)
_STAGE3_BLOCK_ELEMENTS = 2**18
_STAGE3_DENSE_ELEMENTS = _STAGE3_BLOCK_ELEMENTS
_STAGE3_GATHER_COST = 4  # a gathered element costs about four dense ones


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
    counts = m.chord_bass_counts
    order = np.lexsort((np.arange(N_BASS)[None, :].repeat(counts.shape[0], 0), -counts), axis=1)
    return np.sort(order[:, :s], axis=1)


def prune_chord_to_bass(m: HpModel, tau: int) -> np.ndarray:
    """Chord-to-bass table keeping only each chord's tau top-counted basses."""
    slots = top_bass_states(m, tau)
    out = np.zeros_like(m.bass_given_chord)
    np.put_along_axis(out, slots, np.take_along_axis(m.bass_given_chord, slots, axis=1), axis=1)
    return out


# --- chord-only first pass ------------------------------------------------------


def forward_backward(hmm: ChordOnlyHmm, obs: np.ndarray) -> np.ndarray:
    """Per-frame state posteriors of the chord-only HMM, scaled probability
    domain (Rabiner 1989, sec. V.A). obs: (T, 24) treble+bass chroma.

    Each forward step rescales after combining log(alpha[t-1] @ A) + log_e[t],
    so an unreachable state with a dominant emission cannot underflow the
    others. Backward: post[t] = alpha[t] * (A @ (post[t+1] / pred[t+1])), 0/0 = 0."""
    log_e = gaussian_logpdf_frames(obs, hmm.means, hmm.covs)
    T, n = log_e.shape
    alpha = np.empty((T, n))
    pred = np.empty((T, n))  # pred[t] = alpha[t-1] @ A, the one-step prediction
    pred[0] = hmm.init
    with np.errstate(divide="ignore"):
        for t in range(T):
            if t > 0:
                pred[t] = alpha[t - 1] @ hmm.trans
            x = np.log(pred[t]) + log_e[t]
            peak = x.max()
            if not np.isfinite(peak):
                raise ValueError(f"no admissible chord state at frame {t}")
            alpha[t] = np.exp(x - peak)
            alpha[t] /= alpha[t].sum()
    post = np.empty((T, n))
    post[-1] = alpha[-1]
    denom = np.where(pred > 0, pred, 1.0)  # post is 0 where pred is, and 0/1 = 0
    for t in range(T - 2, -1, -1):
        post[t] = alpha[t] * (hmm.trans @ (post[t + 1] / denom[t + 1]))
        post[t] /= post[t].sum()
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
    lg: np.ndarray  # (24, Cw, Cw) chord transitions per key
    lh: np.ndarray  # (13, 13) bass transitions
    lr: np.ndarray  # (Cw, 13) bass given chord
    slots: np.ndarray  # (Cw, S) admissible bass targets per chord
    working: np.ndarray  # (Cw,) chord states in original alphabet indices
    emis_c: np.ndarray  # (T, Cw)
    emis_b: np.ndarray  # (T, 13)


def _build_tables(
    m: HpModel, constraints: Constraints, treble: Chromagram, bass: Chromagram
) -> _LogTables:
    if treble.n_frames != bass.n_frames:
        raise ValueError("treble and bass chromagrams must have equal frame counts")
    t_frames = treble.values.T
    b_frames = bass.values.T
    n_frames = t_frames.shape[0]

    key_trans = (
        prune_key_transitions(m, constraints.gamma) if constraints.gamma is not None else m.key_trans
    )
    bass_given_chord = (
        prune_chord_to_bass(m, constraints.tau) if constraints.tau is not None else m.bass_given_chord
    )
    slots = top_bass_states(m, constraints.tau)

    # The chord alphabet constraint zeroes transitions whose endpoints fall
    # outside the first-pass chord set, which for two or more frames is the
    # same as restricting the chord state space; a single frame has no
    # transitions to prune, so it keeps the full alphabet.
    if constraints.cac and n_frames >= 2:
        working = chord_alphabet_constraint(
            m.cac, np.concatenate([t_frames, b_frames], axis=1), m.alphabet.no_chord
        )
    else:
        working = np.arange(m.n_chords, dtype=np.int64)

    with np.errstate(divide="ignore"):
        lpi_k = np.log(m.init_key)
        lpi_c = np.log(m.init_chord[working])
        lpi_b = np.log(m.init_bass)
        lf = np.log(key_trans)
        lh = np.log(m.bass_trans)
        lr = np.log(bass_given_chord[working])
        # chord_trans_for_key(k) at the working set, for every key at once
        rel = m.alphabet.key_shift_table()[:, working]  # (24, Cw)
        mode = np.arange(N_KEYS)[:, None, None] // 12
        lg = np.log(m.chord_trans_rel[mode, rel[:, :, None], rel[:, None, :]])

    emis_c = gaussian_logpdf_frames(
        t_frames,
        m.chord_emis_mean[working],
        m.chord_emis_cov[working],
        lambda row: f"chord {working[row]} ({m.alphabet.label_at(working[row])})",
    )
    emis_b = gaussian_logpdf_frames(b_frames, m.bass_emis_mean, m.bass_emis_cov)
    return _LogTables(
        lpi_k, lpi_c, lpi_b, lf, lg, lh, lr, slots[working], working, emis_c, emis_b
    )


def _prev_layout(tables: _LogTables, keys, slots, live, targets):
    """How one step reads the previous frame's v: its rows are `keys`, its
    bass axis holds `slots` (Cw, Sp). Returns (keys, slots, lh_g, starts,
    pred, lf_pred, rank, n_b):
    - lh_g (U, Cw, Sp): the bass transition from each chord's previous
      slot to each target bass, previous slot last;
    - starts (Kp, U, Cw): the flat index of the first element of each
      stage-1 row, so that starts + argmax addresses the row's maximum;
    - pred (L, D): per live target key, the rows with a finite transition
      into it, ascending and padded with -inf transitions to the largest
      in-degree D, and lf_pred (L, D, 1, 1) those transitions;
    - rank (D, 1, 1): D down to 1, which marks the first maximizing
      predecessor;
    - n_b: the step's stage-1 expanded transitions, counted over all keys
      and target basses."""
    fin = np.isfinite(tables.lf[np.ix_(keys, live)]).T  # (L, Kp)
    deg = max(1, int(fin.sum(axis=1).max(initial=0)))
    pred = np.argsort(~fin, axis=1, kind="stable")[:, :deg]
    lf_pred = tables.lf[keys[pred], live[:, None]][:, :, None, None]
    rank = np.arange(deg, 0, -1, dtype=np.min_scalar_type(deg))[:, None, None]
    lh_g = np.ascontiguousarray(tables.lh[slots][:, :, targets].transpose(2, 0, 1))
    starts = np.arange(0, lh_g.size * keys.size, slots.shape[1]).reshape(keys.size, *lh_g.shape[:2])
    n_b = tables.lf.shape[0] * int(np.isfinite(tables.lh).sum(axis=1)[slots].sum())
    return keys, slots, lh_g, starts, pred, lf_pred, rank, n_b


def _stage3_candidates(stage_k, lower, scale):
    """(L, U, D) previous chords of each stage-3 row (k, u) that the bound
    keeps, ascending, padded to the widest row with chords it drops."""
    cp0 = stage_k.argmax(axis=-1)[..., None]
    mx = stage_k.max(axis=-1, keepdims=True)
    k = np.arange(len(stage_k))[:, None, None]
    thr = mx + lower[k, cp0] - 1e-9 * (1 + np.abs(mx) + scale[k, cp0])
    keep = stage_k >= np.where(mx > -np.inf, thr, np.inf)
    n = keep.sum(axis=-1)
    cand = (cp0 + np.arange(max(1, n.max(initial=0)))) % stage_k.shape[-1]
    cand[n > 1] = np.argsort(~keep[n > 1], axis=-1, kind="stable")[:, : cand.shape[-1]]
    return cand


def _viterbi_tables(tables: _LogTables):
    """Staged Viterbi over prepared log tables; dimensions come from the
    table shapes. Returns (keys, chord_positions, basses, log_prob,
    n_expanded) with chord positions indexing the working set."""
    T = tables.emis_c.shape[0]
    n_keys = tables.lf.shape[0]
    n_bass = tables.lh.shape[0]
    cw = tables.working.size
    s = tables.slots.shape[1]

    v = (
        tables.lpi_k[:, None, None]
        + (tables.lpi_c + tables.emis_c[0])[None, :, None]
        + (tables.lpi_b + tables.emis_b[0])[None, None, :]
    )
    if not np.isfinite(v.max()):
        raise NoAdmissiblePathError(0)

    live = np.flatnonzero(np.isfinite(tables.lf).any(axis=0))
    targets = np.unique(tables.slots)  # stage-1 target basses
    slot_t = np.searchsorted(targets, tables.slots)  # (Cw, S) columns of targets
    first = _prev_layout(tables, np.arange(n_keys), np.tile(np.arange(n_bass), (cw, 1)), live, targets)
    rest = _prev_layout(tables, live, tables.slots, live, targets)
    # Flat (k, c, b) backpointers in full coordinates; dead cells keep a
    # zero backpointer, and no surviving path ever follows one.
    backptr = np.zeros((T, live.size, cw, s), dtype=np.min_scalar_type(n_keys * cw * n_bass - 1))
    lr_slots = np.take_along_axis(tables.lr, tables.slots, axis=1)
    lg_live = np.ascontiguousarray(tables.lg[live].transpose(0, 2, 1))  # (L, c, c_prev)
    dense = live.size * cw * s * cw <= _STAGE3_DENSE_ELEMENTS
    # the bound's terms per (key, previous chord); -inf: no bound
    colmin = lg_live.min(axis=1)
    gmax = lg_live.max(axis=(1, 2), initial=-np.inf)[:, None]
    lower = np.full_like(colmin, -np.inf)
    np.subtract(colmin, gmax, out=lower, where=np.isfinite(colmin))
    scale = np.abs(colmin) + np.abs(gmax)
    lg_rows = (np.arange(live.size * cw) * cw).reshape(live.size, cw, 1, 1)
    key_idx = np.arange(live.size)[:, None, None]
    chord_ids = np.arange(cw)
    n_expanded = 0
    fin_f = int(np.isfinite(tables.lf).sum())
    fin_g = int(np.isfinite(tables.lg).sum())

    for t in range(1, T):
        keys_p, slots_p, lh_g, starts, pred, lf_pred, rank, n_b = first if t == 1 else rest
        # stage 1: collapse previous bass over the last axis of the
        # (Kp, U, Cw, Sp) tensor (lowest maximizing slot wins; slots ascend,
        # so that is the lowest bass)
        tmp = v[:, None] + lh_g
        from_s = tmp.argmax(axis=-1)  # (Kp, U, Cw) previous slot
        stage_b = tmp.reshape(-1)[from_s + starts]
        n_expanded += n_b

        # stage 2: collapse previous key over each live key's predecessors;
        # the max reduces axis 1 without a transposed copy, and the largest
        # rank among the entries equal to it marks the first one
        tmp = np.take(stage_b, pred, axis=0)  # (L, D, U, Cw)
        tmp += lf_pred
        stage_k = tmp.max(axis=1)
        from_d = rank.shape[0] - (np.equal(tmp, stage_k[:, None]) * rank).max(axis=1)
        from_row = pred[key_idx, from_d]  # (L, U, Cw)
        n_expanded += cw * n_bass * fin_f

        # stage 3: collapse previous chord over the last axis of (k, c, S, W) at
        # the bass slots; W: every previous chord or the candidates kept
        extra = lr_slots + tables.emis_c[t][:, None] + tables.emis_b[t][tables.slots]
        v = np.empty((live.size, cw, s))
        if not dense:
            cand = _stage3_candidates(stage_k, lower, scale)  # (L, U, D)
            sk = np.take_along_axis(stage_k, cand, axis=-1)
        wide = dense or cand.shape[2] * _STAGE3_GATHER_COST > cw
        # elements per (k, c, S) cell: Cw dense; pruned, 3 D and 24 for the tail
        block = max(1, _STAGE3_BLOCK_ELEMENTS // (cw * s * (cw if wide else 3 * cand.shape[2] + 24)))
        for k0 in range(0, live.size, block):
            ks = slice(k0, k0 + block)
            if wide:
                val = np.take(stage_k[ks], slot_t, axis=1)  # (k, c, S, c_prev)
                val += lg_live[ks, :, None]
            else:
                # (k, c, S, D) flat lg_live index; % cw is the previous chord
                at_lg = np.take(cand[ks], slot_t, axis=1) + lg_rows[ks]
                val = np.take(sk[ks], slot_t, axis=1)
                val += lg_live.reshape(-1)[at_lg]
            from_c = val.argmax(axis=-1)
            row_starts = np.arange(0, val.size, val.shape[-1]).reshape(from_c.shape)
            at = from_c + row_starts
            best = val.reshape(-1)[at]
            # a cell ties when its maximum survives knocking out the argmax;
            # a tie at a live maximum needs re-picking, as argmax took the
            # lowest previous chord but the canonical order is previous key
            # first; dead cells (-inf) need no repair
            np.put(val, at, -np.inf)
            second = val.reshape(-1)[val.argmax(axis=-1) + row_starts]
            ties = np.isfinite(best) & (second == best)
            if not wide:
                from_c = at_lg.reshape(-1)[at] % cw
            if ties.any():
                np.put(val, at, best)
                order = keys_p[from_row[ks]] * 256 + chord_ids  # (k, U, c_prev)
                order = order if wide else np.take_along_axis(order, cand[ks], axis=-1)
                composite = np.where(val == best[..., None], np.take(order, slot_t, axis=1), _TIE_BIG)
                from_c = np.where(ties, composite.min(axis=-1) % 256, from_c)
            row = from_row[ks][key_idx[: len(from_c)], slot_t, from_c]
            bbar = slots_p[from_c, from_s[row, slot_t, from_c]]
            v[ks] = best + extra
            backptr[t, ks] = (keys_p[row] * cw + from_c) * n_bass + bbar
        n_expanded += s * fin_g

        if not np.isfinite(v.max(initial=-np.inf)):
            raise NoAdmissiblePathError(t)

    keys_v, slots_v = (first if T == 1 else rest)[:2]
    r, c, pos = np.unravel_index(int(np.argmax(v)), v.shape)
    log_prob = float(v[r, c, pos])
    key_row = np.zeros(n_keys, dtype=np.int64)
    key_row[live] = np.arange(live.size)
    slot_of = np.zeros((cw, n_bass), dtype=np.int64)
    np.put_along_axis(slot_of, tables.slots, np.arange(s)[None], axis=1)
    k, b = int(keys_v[r]), int(slots_v[c, pos])
    keys, chords, basses = np.empty((3, T), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        keys[t], chords[t], basses[t] = k, c, b
        if t > 0:
            k, rem = divmod(int(backptr[t, key_row[k], c, slot_of[c, b]]), cw * n_bass)
            c, b = divmod(rem, n_bass)
    return keys, chords, basses, log_prob, n_expanded


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


def score_path(
    m: HpModel,
    constraints: Constraints,
    treble: Chromagram,
    bass: Chromagram,
    keys,
    chords,
    basses,
) -> float:
    """Joint log-probability of a given state path under the same
    constraint-applied tables the decoder uses."""
    tables = _build_tables(m, constraints, treble, bass)
    pos = {c: i for i, c in enumerate(tables.working.tolist())}
    keys = np.asarray(keys)
    chords = np.asarray(chords)
    basses = np.asarray(basses)
    if any(c not in pos for c in chords.tolist()):
        return -np.inf
    cw_idx = np.array([pos[c] for c in chords.tolist()])
    lp = (
        tables.lpi_k[keys[0]]
        + tables.lpi_c[cw_idx[0]]
        + tables.lpi_b[basses[0]]
        + tables.emis_c[0, cw_idx[0]]
        + tables.emis_b[0, basses[0]]
    )
    for t in range(1, keys.size):
        lp += (
            tables.lf[keys[t - 1], keys[t]]
            + tables.lg[keys[t], cw_idx[t - 1], cw_idx[t]]
            + tables.lr[cw_idx[t], basses[t]]
            + tables.lh[basses[t - 1], basses[t]]
            + tables.emis_c[t, cw_idx[t]]
            + tables.emis_b[t, basses[t]]
        )
        if basses[t] not in tables.slots[cw_idx[t]]:
            lp = -np.inf
    return float(lp)
