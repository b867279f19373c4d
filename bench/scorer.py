"""Independent joint log-probability of a (key, chord, bass) path.

Written from the model definition, not from the decoder: it reads the
HpModel tables and applies the pruning rules itself, and it calls neither
`score_path` nor the decoder's table builder.

    log p = log p(k0) + log p(c0) + log p(b0) + e_c(0, c0) + e_b(0, b0)
          + sum_t [ log p(k_t | k_t-1) + log p(c_t | c_t-1, k_t)
                    + log p(b_t | c_t) + log p(b_t | b_t-1)
                    + e_c(t, c_t) + e_b(t, b_t) ]

Pruning zeroes entries without renormalizing:
- gamma: a key transition survives only if its training count > gamma;
- tau: p(b | c) survives only for the tau basses with the highest
  chord-to-bass counts, ties going to the lower bass index;
- CAC: a chord transition survives only if both of its chords are in the
  chord-only first pass's max-posterior states plus no-chord.

`check_against_enumeration` validates this scorer on tiny random models
by exhaustive path enumeration.
"""

from __future__ import annotations

import itertools

import numpy as np

N_KEYS = 24
N_BASS = 13


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(x, dtype=np.float64))


def gaussian_log_density(frames, means, covs):
    """(T, n) log N(frame | mean_s, cov_s), via slogdet and a linear solve."""
    frames = np.asarray(frames, dtype=np.float64)
    d = frames.shape[1]
    out = np.empty((frames.shape[0], means.shape[0]))
    for s in range(means.shape[0]):
        sign, logdet = np.linalg.slogdet(covs[s])
        if sign <= 0:
            raise ValueError(f"covariance of state {s} is not positive definite")
        diff = frames - means[s]
        maha = np.sum(diff * np.linalg.solve(covs[s], diff.T).T, axis=1)
        out[:, s] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
    return out


def shift_chord(state: int, semitones: int, n_chords: int) -> int:
    """Transpose a chord state. States are block*12 + root, with no-chord
    as the last state (the documented alphabet layout)."""
    if state == n_chords - 1:
        return state
    return (state // 12) * 12 + (state % 12 + semitones) % 12


def chord_trans_under_key(m, key: int) -> np.ndarray:
    """Absolute p(c' | c, key) from the key-relative table of the key's mode."""
    n = m.n_chords
    tonic, mode = key % 12, key // 12
    rel_index = np.array([shift_chord(c, -tonic, n) for c in range(n)])
    return m.chord_trans_rel[mode][np.ix_(rel_index, rel_index)]


def top_basses(counts_row, tau: int) -> list[int]:
    """The tau basses with the highest counts; ties to the lower index."""
    return sorted(range(len(counts_row)), key=lambda b: (-counts_row[b], b))[:tau]


def max_posterior_states(hmm, obs) -> np.ndarray:
    """Per-frame argmax of the chord-only HMM's posteriors, computed by a
    scaled forward-backward in the probability domain."""
    log_e = gaussian_log_density(obs, hmm.means, hmm.covs)
    e = np.exp(log_e - log_e.max(axis=1, keepdims=True))
    a = np.asarray(hmm.trans, dtype=np.float64)
    T, n = e.shape
    alpha = np.empty((T, n))
    alpha[0] = hmm.init * e[0]
    for t in range(T):
        if t > 0:
            alpha[t] = (alpha[t - 1] @ a) * e[t]
        total = alpha[t].sum()
        if not total > 0:
            raise ValueError(f"chord-only forward pass died at frame {t}")
        alpha[t] /= total
    beta = np.ones((T, n))
    for t in range(T - 2, -1, -1):
        beta[t] = a @ (e[t + 1] * beta[t + 1])
        beta[t] /= beta[t].sum()
    return np.argmax(alpha * beta, axis=1)


def cac_set(m, treble_rows, bass_rows) -> np.ndarray:
    """Chord states of the first pass plus no-chord, ascending."""
    obs = np.concatenate([treble_rows, bass_rows], axis=1)
    states = max_posterior_states(m.cac, obs)
    return np.union1d(states, [m.n_chords - 1])


class PathScorer:
    """Constraint-applied log tables of one song, and path scores on them.

    treble_rows, bass_rows: (T, 12) chroma frames. gamma and tau follow the
    decoder's settings (None disables); cac=True applies the chord set.
    """

    def __init__(self, m, treble_rows, bass_rows, gamma=None, tau=None, cac=False):
        n_chords = m.n_chords
        key_trans = np.array(m.key_trans, dtype=np.float64)
        if gamma is not None:
            key_trans[m.key_trans_counts <= gamma] = 0.0
        bass_given_chord = np.array(m.bass_given_chord, dtype=np.float64)
        if tau is not None:
            kept = np.zeros_like(bass_given_chord)
            for c in range(n_chords):
                top = top_basses(m.chord_bass_counts[c], tau)
                kept[c, top] = bass_given_chord[c, top]
            bass_given_chord = kept
        chord_trans = np.stack([chord_trans_under_key(m, k) for k in range(N_KEYS)])
        self.chord_set = None
        if cac:
            self.chord_set = cac_set(m, treble_rows, bass_rows)
            outside = np.ones(n_chords, dtype=bool)
            outside[self.chord_set] = False
            chord_trans[:, outside, :] = 0.0
            chord_trans[:, :, outside] = 0.0
        self.init_key = _log(m.init_key)
        self.init_chord = _log(m.init_chord)
        self.init_bass = _log(m.init_bass)
        self.key_trans = _log(key_trans)
        self.chord_trans = _log(chord_trans)
        self.bass_given_chord = _log(bass_given_chord)
        self.bass_trans = _log(m.bass_trans)
        self.emis_chord = gaussian_log_density(treble_rows, m.chord_emis_mean, m.chord_emis_cov)
        self.emis_bass = gaussian_log_density(bass_rows, m.bass_emis_mean, m.bass_emis_cov)

    def score(self, keys, chords, basses):
        """Log-probability of one path (1-d arrays) or of many ((N, T))."""
        k, c, b = (np.atleast_2d(np.asarray(x, dtype=np.int64)) for x in (keys, chords, basses))
        frames = np.arange(k.shape[1])
        lp = (
            self.init_key[k[:, 0]]
            + self.init_chord[c[:, 0]]
            + self.init_bass[b[:, 0]]
            + self.emis_chord[frames, c].sum(axis=1)
            + self.emis_bass[frames, b].sum(axis=1)
            + self.key_trans[k[:, :-1], k[:, 1:]].sum(axis=1)
            + self.chord_trans[k[:, 1:], c[:, :-1], c[:, 1:]].sum(axis=1)
            + self.bass_given_chord[c[:, 1:], b[:, 1:]].sum(axis=1)
            + self.bass_trans[b[:, :-1], b[:, 1:]].sum(axis=1)
        )
        return float(lp[0]) if np.ndim(keys) == 1 else lp


# --- self-check by exhaustive enumeration --------------------------------------------


def _random_spd(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return a @ a.transpose(0, 2, 1) / d + 0.05 * np.eye(d)


def tiny_model(rng):
    """A random majmin25 model whose reachable states are confined to two
    keys (one per mode), three chords and two basses, so every admissible
    path can be enumerated. Returns (model, keys, chords, basses)."""
    from chordscribe.annotations import make_alphabet
    from chordscribe.model import ChordOnlyHmm, HpModel

    alphabet = make_alphabet("majmin25")
    n = alphabet.size
    keys = [int(rng.integers(0, 12)), int(rng.integers(12, 24))]
    chords = sorted(rng.choice(n, size=3, replace=False).tolist())
    basses = sorted(rng.choice(N_BASS, size=2, replace=False).tolist())

    def dist(size, support):
        out = np.zeros(size)
        out[support] = rng.dirichlet(np.ones(len(support)))
        return out

    key_trans = np.zeros((N_KEYS, N_KEYS))
    key_counts = np.zeros((N_KEYS, N_KEYS))
    for k in keys:
        key_trans[k] = dist(N_KEYS, keys)
        key_counts[k, keys] = rng.integers(0, 4, size=len(keys))
    rel = np.zeros((2, n, n))
    for k in keys:
        tonic, mode = k % 12, k // 12
        rel_chords = [shift_chord(c, -tonic, n) for c in chords]
        for c in rel_chords:
            rel[mode, c] = dist(n, rel_chords)
    bass_given_chord = np.zeros((n, N_BASS))
    for c in chords:
        bass_given_chord[c] = dist(N_BASS, basses)
    bass_trans = np.zeros((N_BASS, N_BASS))
    for b in basses:
        bass_trans[b] = dist(N_BASS, basses)
    model = HpModel(
        alphabet=alphabet,
        init_key=dist(N_KEYS, keys),
        init_chord=dist(n, chords),
        init_bass=dist(N_BASS, basses),
        key_trans=key_trans,
        chord_trans_rel=rel,
        bass_given_chord=bass_given_chord,
        bass_trans=bass_trans,
        chord_emis_mean=rng.random((n, 12)),
        chord_emis_cov=_random_spd(rng, n, 12),
        bass_emis_mean=rng.random((N_BASS, 12)),
        bass_emis_cov=_random_spd(rng, N_BASS, 12),
        key_trans_counts=key_counts,
        chord_bass_counts=rng.integers(0, 3, size=(n, N_BASS)).astype(np.float64),
        cac=ChordOnlyHmm(
            init=rng.dirichlet(np.ones(n)),
            trans=rng.dirichlet(np.ones(n), size=n),
            means=rng.random((n, 24)),
            covs=_random_spd(rng, n, 24),
        ),
    )
    return model, keys, chords, basses


def check_against_enumeration(seed: int, n_models: int = 24) -> list[str]:
    """Enumerate every path of tiny random models and compare the best
    scorer value and its path with `viterbi_joint`. Returns the problems
    found (empty when the scorer and the decoder agree)."""
    from chordscribe.chroma import Chromagram
    from chordscribe.decode import Constraints, NoAdmissiblePathError, viterbi_joint

    rng = np.random.default_rng(seed)
    settings = list(itertools.product((None, 0, 2), (None, 1, 2), (False, True)))
    problems = []
    for i in range(n_models):
        model, keys, chords, basses = tiny_model(rng)
        gamma, tau, cac = settings[i % len(settings)]
        T = int(rng.integers(1, 5))
        treble, bass = rng.random((T, 12)), rng.random((T, 12))
        scorer = PathScorer(model, treble, bass, gamma, tau, cac)
        states = list(itertools.product(keys, chords, basses))
        combos = np.array(list(itertools.product(range(len(states)), repeat=T)))
        paths = np.array(states)[combos]  # (N, T, 3)
        scores = scorer.score(paths[..., 0], paths[..., 1], paths[..., 2])
        best = scores.max()
        starts = np.arange(T) * 0.5
        args = (
            Chromagram(treble.T, starts, starts + 0.5, "treble"),
            Chromagram(bass.T, starts, starts + 0.5, "bass"),
        )
        label = f"tiny model {i} (gamma={gamma}, tau={tau}, cac={cac}, T={T})"
        try:
            path = viterbi_joint(model, Constraints(gamma, tau, cac), *args)
        except NoAdmissiblePathError:
            if np.isfinite(best):
                problems.append(f"{label}: decoder found no path, enumeration found {best}")
            continue
        if not np.isfinite(best) or abs(path.log_prob - best) > 1e-9:
            problems.append(f"{label}: decoder {path.log_prob}, enumeration {best}")
            continue
        runner_up = np.sort(scores)[-2] if scores.size > 1 else -np.inf
        winner = paths[int(np.argmax(scores))]
        if best - runner_up > 1e-9 and not (
            np.array_equal(winner[:, 0], path.keys)
            and np.array_equal(winner[:, 1], path.chords)
            and np.array_equal(winner[:, 2], path.basses)
        ):
            problems.append(f"{label}: decoder path differs from the enumerated best")
    return problems
