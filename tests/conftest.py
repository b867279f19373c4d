"""Shared fixture builders and brute-force oracles."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import chordscribe
from chordscribe.annotations import FrameLabels, make_alphabet
from chordscribe.chroma import Chromagram


def stdout_at_one_and_two_blas_threads(script: str) -> list[str]:
    """What `script` prints, run in a fresh interpreter with
    OPENBLAS_NUM_THREADS 1 and then 2."""
    src = str(Path(chordscribe.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
        outputs.append(out.stdout.strip())
    return outputs


def frame_grid(n, dt=0.5):
    starts = np.arange(n) * dt
    return starts, starts + dt


def make_chromagram(values, band="treble", dt=0.5):
    """values: (T, 12) rows -> Chromagram."""
    values = np.asarray(values, dtype=float)
    starts, ends = frame_grid(values.shape[0], dt)
    return Chromagram(values.T, starts, ends, band)


def make_frame_labels(key, chord, bass, dt=0.5):
    key = np.asarray(key)
    starts, ends = frame_grid(key.size, dt)
    return FrameLabels(key, np.asarray(chord), np.asarray(bass), starts, ends)


def transpose_key(state: int, semitones: int) -> int:
    """Shift a key's tonic by a semitone count, keeping its mode; unlabeled
    (negative) states are fixed points."""
    if state < 0:
        return state
    return (state + semitones) % 12 + 12 * (state // 12)


def shift_chord(alphabet, state: int, semitones: int) -> int:
    """Transpose a chord state's root, one state at a time; no-chord and
    unlabeled (negative) states are fixed points. The reference for
    Alphabet.key_shift_table."""
    if state < 0 or state == alphabet.no_chord:
        return state
    return (state // 12) * 12 + (state % 12 + semitones) % 12


def transpose_labels(fl, semitones, alphabet):
    """Shift chord roots, key tonics, and bass pitch classes by a semitone
    count; modes/qualities, no-chord, no-bass, and unlabeled frames are
    fixed points."""
    if not 0 <= semitones <= 11:
        raise ValueError("semitones must be in 0..11")
    chord = np.array([shift_chord(alphabet, c, semitones) for c in fl.chord], dtype=np.int64)
    key = np.array([transpose_key(k, semitones) for k in fl.key], dtype=np.int64)
    bass = np.where((fl.bass >= 0) & (fl.bass < 12), (fl.bass + semitones) % 12, fl.bass)
    return FrameLabels(key, chord, bass, fl.starts.copy(), fl.ends.copy())


def chord_template(pcs, high=0.9, low=0.1):
    v = np.full(12, low)
    for p in pcs:
        v[p] = high
    return v


def bass_template(pc, high=0.95, low=0.05):
    v = np.full(12, low)
    if pc < 12:
        v[pc] = high
    return v


def synthetic_frames(chords, basses, alphabet_kind="majmin25", noise=0.02, rng=None):
    """Template-plus-noise chroma rows for given chord/bass state paths."""
    from chordscribe.annotations import chord_pitch_classes

    rng = rng or np.random.default_rng(0)
    alphabet = make_alphabet(alphabet_kind)
    treble = []
    bass = []
    for c, b in zip(chords, basses):
        pcs = chord_pitch_classes(alphabet.symbol_at(c))
        treble.append(chord_template(pcs) + noise * rng.standard_normal(12))
        bass.append(bass_template(b) + noise * rng.standard_normal(12))
    return np.clip(treble, 0, 1), np.clip(bass, 0, 1)


# --- brute-force decoding oracles ---------------------------------------------


def enumerate_best_path(log_init, log_trans, log_emis):
    """Exhaustive Viterbi oracle over a flat state space.

    log_init: (S,), log_trans: (S, S), log_emis: (T, S). Returns
    (best_logprob, best_path). Among equal-probability optima the path
    minimizing the *reversed* state-index sequence lexicographically wins,
    matching a forward DP whose argmaxes take the lowest index.
    """
    n_states = log_init.size
    T = log_emis.shape[0]
    best_lp = -np.inf
    best_key = None
    best_path = None
    for path in itertools.product(range(n_states), repeat=T):
        lp = log_init[path[0]] + log_emis[0, path[0]]
        for t in range(1, T):
            lp += log_trans[path[t - 1], path[t]] + log_emis[t, path[t]]
        key = tuple(reversed(path))
        if lp > best_lp or (lp == best_lp and best_key is not None and key < best_key):
            best_lp = lp
            best_key = key
            best_path = path
    return best_lp, list(best_path) if best_path is not None else None


def flat_viterbi(log_init, log_trans, log_emis):
    """Plain product-state Viterbi; argmax first-occurrence everywhere, so
    ties resolve to the lowest flat state / predecessor index."""
    T, n = log_emis.shape
    v = log_init + log_emis[0]
    backptr = np.zeros((T, n), dtype=np.int64)
    for t in range(1, T):
        score = v[:, None] + log_trans
        v = score.max(axis=0) + log_emis[t]
        backptr[t] = score.argmax(axis=0)
    final = int(np.argmax(v))
    lp = float(v[final])
    path = [final]
    for t in range(T - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    return lp, path[::-1]


def random_log_tables(rng, n_keys=2, n_chords=3, n_bass=2, T=4, sparsity=0.0, slot_cap=None):
    """Random _LogTables (optionally with -inf holes and bass slot caps)
    plus the equivalent flat-product tables for the oracles."""
    from chordscribe.decode import _LogTables

    def dirich(shape):
        x = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        if sparsity > 0:
            mask = rng.random(x.shape) < sparsity
            x = np.where(mask, 0.0, x)
        with np.errstate(divide="ignore"):
            return np.log(x)

    s = slot_cap or n_bass
    slots = np.sort(
        np.array([rng.choice(n_bass, size=s, replace=False) for _ in range(n_chords)]), axis=1
    )
    lr = np.take_along_axis(dirich((n_chords, n_bass)), slots, axis=1)

    tables = _LogTables(
        lpi_k=dirich((n_keys,)),
        lpi_c=dirich((n_chords,)),
        lpi_b=dirich((n_bass,)),
        lf=dirich((n_keys, n_keys)),
        lg=dirich((n_keys, n_chords, n_chords)),
        lh=dirich((n_bass, n_bass)),
        lr=lr,
        slots=slots,
        working=np.arange(n_chords, dtype=np.int64),
        emis_c=np.log(rng.random((T, n_chords)) + 1e-3),
        emis_b=np.log(rng.random((T, n_bass)) + 1e-3),
    )
    return tables, tables_to_flat(tables)


def wide_lr(tables):
    """(Cw, n_bass) bass-given-chord table of the flat product space: the
    decoder's lr at each chord's bass slots, -inf off them."""
    out = np.full((tables.working.size, tables.lh.shape[0]), -np.inf)
    np.put_along_axis(out, tables.slots, tables.lr, axis=1)
    return out


def chord_trans_for_key(m, key_state):
    """Absolute chord transition table under a concrete key."""
    perm = m.alphabet.key_shift_table()[key_state]
    return m.chord_trans_rel[key_state // 12][np.ix_(perm, perm)]


def tables_to_flat(tables):
    """Expand factored log tables into flat product-state (init, trans, emis)."""
    lr = wide_lr(tables)
    n_keys = tables.lf.shape[0]
    n_bass = tables.lh.shape[0]
    n_chords = tables.working.size
    T = tables.emis_c.shape[0]
    n = n_keys * n_chords * n_bass

    def flat(k, c, b):
        return (k * n_chords + c) * n_bass + b

    log_init = np.empty(n)
    log_emis = np.empty((T, n))
    log_trans = np.empty((n, n))
    for k in range(n_keys):
        for c in range(n_chords):
            for b in range(n_bass):
                log_init[flat(k, c, b)] = tables.lpi_k[k] + tables.lpi_c[c] + tables.lpi_b[b]
                log_emis[:, flat(k, c, b)] = tables.emis_c[:, c] + tables.emis_b[:, b]
    for kp in range(n_keys):
        for cp in range(n_chords):
            for bp in range(n_bass):
                for k in range(n_keys):
                    for c in range(n_chords):
                        for b in range(n_bass):
                            log_trans[flat(kp, cp, bp), flat(k, c, b)] = (
                                tables.lf[kp, k]
                                + tables.lg[k, cp, c]
                                + lr[c, b]
                                + tables.lh[bp, b]
                            )
    return log_init, log_trans, log_emis


def split_flat_path(path, n_chords, n_bass):
    keys, chords, basses = [], [], []
    for s in path:
        k, rem = divmod(s, n_chords * n_bass)
        c, b = divmod(rem, n_bass)
        keys.append(k)
        chords.append(c)
        basses.append(b)
    return keys, chords, basses


def enumerate_best_path_vec(log_init, log_trans, log_emis):
    """Vectorized exhaustive oracle; same tie rule as enumerate_best_path
    (ties: lexicographically smallest reversed state sequence)."""
    n = log_init.size
    T = log_emis.shape[0]
    grids = np.meshgrid(*([np.arange(n)] * T), indexing="ij")
    paths = np.stack(grids, axis=-1).reshape(-1, T)
    lp = log_init[paths[:, 0]] + log_emis[0, paths[:, 0]]
    for t in range(1, T):
        lp = lp + log_trans[paths[:, t - 1], paths[:, t]] + log_emis[t, paths[:, t]]
    best = lp.max()
    if not np.isfinite(best):
        return best, None
    tied = paths[lp == best]
    # np.lexsort's last key is primary, so passing columns t0..t_{T-1}
    # sorts by the final state first: reversed-lexicographic order
    order = np.lexsort(tied.T)
    return float(best), tied[order[0]].tolist()


def brute_force_posteriors(log_init, log_trans, log_emis):
    """Per-frame state marginals by path enumeration."""
    n_states = log_init.size
    T = log_emis.shape[0]
    joint = np.zeros((T, n_states))
    total = 0.0
    for path in itertools.product(range(n_states), repeat=T):
        lp = log_init[path[0]] + log_emis[0, path[0]]
        for t in range(1, T):
            lp += log_trans[path[t - 1], path[t]] + log_emis[t, path[t]]
        p = np.exp(lp)
        total += p
        for t, s in enumerate(path):
            joint[t, s] += p
    return joint / total
