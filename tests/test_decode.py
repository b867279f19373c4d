import contextlib
import copy
import dataclasses
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import (
    enumerate_best_path,
    brute_force_posteriors,
    chord_trans_for_key,
    flat_viterbi,
    make_chromagram,
    make_frame_labels,
    random_log_tables,
    split_flat_path,
    synthetic_frames,
    tables_to_flat,
    wide_lr,
)

import chordscribe.model
from chordscribe import decode
from chordscribe.annotations import derive_bass, make_alphabet, parse_chord_symbol
from chordscribe.decode import (
    Constraints,
    NoAdmissiblePathError,
    _viterbi_tables,
    chord_alphabet_constraint,
    forward_backward,
    prune_key_transitions,
    top_bass_states,
    viterbi_joint,
)
from chordscribe.model import ChordOnlyHmm, TrainConfig, gaussian_logpdf_frames, load_model, save_model, train


def toy_model():
    """Small trained model with deterministic synthetic emissions."""
    chords = [0, 0, 7, 7, 5, 5, 0, 24]
    basses = [0, 0, 7, 11, 5, 5, 0, 12]
    keys = [0] * 8
    t, b = synthetic_frames(chords, basses, rng=np.random.default_rng(11))
    return (
        train(
            [(make_chromagram(t), make_chromagram(b, "bass"), make_frame_labels(keys, chords, basses))],
            TrainConfig(alpha=0.05),
        ),
        make_chromagram(t),
        make_chromagram(b, "bass"),
        (keys, chords, basses),
    )


@pytest.fixture(scope="module")
def trained():
    return toy_model()


class TestPruneKeyTransitions:
    def _with_counts(self, trained, counts):
        m = copy.deepcopy(trained[0])
        m.key_trans_counts = np.zeros((24, 24))
        for (i, j), n in counts.items():
            m.key_trans_counts[i, j] = n
        return m

    def test_threshold_zeroes_rare_transitions(self, trained):
        m = self._with_counts(trained, {(0, 0): 50, (0, 7): 5, (0, 6): 1})
        pruned = prune_key_transitions(m, 2)
        assert pruned[0, 6] == 0.0
        assert pruned[0, 0] == m.key_trans[0, 0]
        assert pruned[0, 7] == m.key_trans[0, 7]

    def test_gamma_zero_keeps_observed(self, trained):
        m = self._with_counts(trained, {(0, 0): 3, (7, 7): 1})
        pruned = prune_key_transitions(m, 0)
        assert pruned[0, 0] == m.key_trans[0, 0]
        assert pruned[7, 7] == m.key_trans[7, 7]
        assert pruned[0, 1] == 0.0  # unobserved dies even at gamma=0

    def test_no_renormalization(self, trained):
        m = self._with_counts(trained, {(0, 0): 5})
        pruned = prune_key_transitions(m, 0)
        assert pruned[0].sum() < 1.0


def prune_chord_to_bass(m, tau):
    """Chord-to-bass table keeping only each chord's tau top-counted basses."""
    slots = top_bass_states(m, tau)
    out = np.zeros_like(m.bass_given_chord)
    np.put_along_axis(out, slots, np.take_along_axis(m.bass_given_chord, slots, axis=1), axis=1)
    return out


def score_path(m, constraints, treble, bass, keys, chords, basses):
    """Joint log-probability of a given state path under the same
    constraint-applied tables the decoder uses."""
    tables = decode._build_tables(m, constraints, treble, bass)
    pos = {c: i for i, c in enumerate(tables.working.tolist())}
    if any(c not in pos for c in np.asarray(chords).tolist()):
        return -np.inf
    return score_table_path(tables, keys, [pos[c] for c in np.asarray(chords).tolist()], basses)


def score_table_path(tables, keys, cw_idx, basses):
    """Joint log-probability of a state path under log tables, chords given
    as working-set positions."""
    lr = wide_lr(tables)
    keys, cw_idx, basses = np.asarray(keys), np.asarray(cw_idx), np.asarray(basses)
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
            + lr[cw_idx[t], basses[t]]
            + tables.lh[basses[t - 1], basses[t]]
            + tables.emis_c[t, cw_idx[t]]
            + tables.emis_b[t, basses[t]]
        )
    return float(lp)


class TestPruneChordToBass:
    def test_tau_13_is_identity(self, trained):
        m = trained[0]
        np.testing.assert_array_equal(prune_chord_to_bass(m, 13), m.bass_given_chord)

    def test_tau_3_keeps_triad_tones(self, trained):
        m = copy.deepcopy(trained[0])
        m.chord_bass_counts = np.zeros((25, 13))
        m.chord_bass_counts[0, [0, 4, 7]] = [30, 10, 3]  # root >> 3rd >> 5th
        m.chord_bass_counts[0, 2] = 1
        pruned = prune_chord_to_bass(m, 3)
        assert set(np.flatnonzero(pruned[0] > 0)) <= {0, 4, 7}
        np.testing.assert_array_equal(top_bass_states(m, 3)[0], [0, 4, 7])

    def test_tau_1_keeps_single_bass(self, trained):
        m = trained[0]
        slots = top_bass_states(m, 1)
        assert slots.shape == (25, 1)
        pruned = prune_chord_to_bass(m, 1)
        assert np.all((pruned > 0).sum(axis=1) <= 1)

    def test_count_ties_break_to_lower_bass(self, trained):
        m = copy.deepcopy(trained[0])
        m.chord_bass_counts = np.zeros((25, 13))
        m.chord_bass_counts[3, [2, 9]] = 4  # equal counts
        m.chord_bass_counts[3, 5] = 9
        np.testing.assert_array_equal(top_bass_states(m, 2)[3], [2, 5])


def _forward_backward_indexed(hmm, obs):
    """`decode.forward_backward` as an indexed loop that multiplies with
    np.matmul and reduces with ndarray.max and .sum: the reference its bits
    are pinned to."""
    log_e = gaussian_logpdf_frames(obs, hmm.means, hmm.covs, held=hmm.gaussians)
    T, n = log_e.shape
    alpha, pred, post, x = np.empty((T, n)), np.empty((T, n)), np.empty((T, n)), np.empty(n)
    pred[0] = hmm.init
    with np.errstate(divide="ignore"):
        for t in range(T):
            if t > 0:
                np.matmul(alpha[t - 1], hmm.trans, out=pred[t])
            np.add(np.log(pred[t], out=x), log_e[t], out=x)
            np.exp(np.subtract(x, x.max(), out=x), out=alpha[t])
            np.divide(alpha[t], alpha[t].sum(), out=alpha[t])
    post[-1] = alpha[-1]
    denom = np.where(pred > 0, pred, 1.0)
    for t in range(T - 2, -1, -1):
        np.matmul(hmm.trans, np.divide(post[t + 1], denom[t + 1], out=x), out=post[t])
        np.multiply(post[t], alpha[t], out=post[t])
        np.divide(post[t], post[t].sum(), out=post[t])
    return post


class TestMaxGammaDecode:
    """The first pass's max-posterior decode: forward_backward, then the
    argmax of each frame."""

    def _hmm(self, rng, n=3, d=2):
        means = rng.random((n, d))
        covs = np.tile(np.eye(d) * 0.05, (n, 1, 1))
        init = rng.dirichlet(np.ones(n))
        trans = rng.dirichlet(np.ones(n), size=n)
        return ChordOnlyHmm(init, trans, means, covs)

    def test_single_frame_argmax(self):
        rng = np.random.default_rng(0)
        hmm = self._hmm(rng)
        obs = rng.random((1, 2))
        post = forward_backward(hmm, obs)
        states = post.argmax(axis=1)
        from chordscribe.model import gaussian_logpdf_frames

        direct = np.log(hmm.init) + gaussian_logpdf_frames(obs, hmm.means, hmm.covs)[0]
        assert states[0] == int(np.argmax(direct))
        np.testing.assert_allclose(post[0], np.exp(direct - np.logaddexp.reduce(direct)), atol=1e-12)

    def test_posteriors_match_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            hmm = self._hmm(rng)
            obs = rng.random((4, 2))
            post = forward_backward(hmm, obs)
            from chordscribe.model import gaussian_logpdf_frames

            log_e = gaussian_logpdf_frames(obs, hmm.means, hmm.covs)
            with np.errstate(divide="ignore"):
                ref = brute_force_posteriors(np.log(hmm.init), np.log(hmm.trans), log_e)
            np.testing.assert_allclose(post, ref, atol=1e-9)
            assert post.tobytes() == _forward_backward_indexed(hmm, obs).tobytes()

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(2)
        hmm = self._hmm(rng, n=5, d=3)
        obs = rng.random((20, 3))
        post = forward_backward(hmm, obs)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert post.tobytes() == _forward_backward_indexed(hmm, obs).tobytes()

    def test_trained_first_pass_equals_reference_bit_for_bit(self, trained):
        # a trained chord-only HMM, which decodes through its held factors
        m, treble, bass, _ = trained
        obs = np.concatenate([treble.values.T, bass.values.T], axis=1)
        assert forward_backward(m.cac, obs).tobytes() == _forward_backward_indexed(m.cac, obs).tobytes()

    def test_uniform_symmetric_ties_pick_lowest(self):
        n = 4
        hmm = ChordOnlyHmm(
            np.full(n, 1 / n),
            np.full((n, n), 1 / n),
            np.zeros((n, 2)),
            np.tile(np.eye(2), (n, 1, 1)),
        )
        post = forward_backward(hmm, np.zeros((6, 2)))
        states = post.argmax(axis=1)
        np.testing.assert_allclose(post, 1 / n, atol=1e-12)
        assert np.all(states == 0)


class TestChordAlphabetConstraint:
    def test_contains_used_states_and_no_chord(self):
        rng = np.random.default_rng(3)
        n = 6
        means = np.eye(n)[:, :4] * 0.8 + 0.1
        hmm = ChordOnlyHmm(
            np.full(n, 1 / n),
            rng.dirichlet(np.ones(n), size=n),
            means,
            np.tile(np.eye(4) * 0.02, (n, 1, 1)),
        )
        obs = np.vstack([means[1], means[1], means[3], means[3]])
        admissible = chord_alphabet_constraint(hmm, obs, no_chord=n - 1)
        assert {1, 3} <= set(admissible.tolist())
        assert n - 1 in admissible
        assert np.all(np.diff(admissible) > 0)

    def test_single_state_output(self):
        n = 3
        hmm = ChordOnlyHmm(
            np.array([0.98, 0.01, 0.01]),
            np.eye(n) * 0.98 + 0.01,
            np.zeros((n, 2)),
            np.tile(np.eye(2), (n, 1, 1)),
        )
        admissible = chord_alphabet_constraint(hmm, np.zeros((5, 2)), no_chord=2)
        assert set(admissible.tolist()) == {0, 2}


class Form(NamedTuple):
    """How `stage_form` forces the decoder's form rule."""

    gather_cost: int  # `decode._GATHER_COST`: 0 takes whatever a bound keeps, _DENSE every bound's dense fallback
    fused_elements: int  # `decode._FUSED_ELEMENTS`: -1 never fuses
    dense_stage1: bool  # `decode._prev_layout` sets dense_s, so stage 1 takes no tail
    chord_bound: str  # "off" keeps no subset, "any" takes every subset, "on" as gather_cost says


_DENSE = 2**62

# The chord bound is off in the dense and fused forms, and on in the pruned
# form and in "chord bound on" (dense stages otherwise), both of which take
# the chords it keeps whenever it keeps fewer than all. A pruned form with
# the bound off is not among them: test_backpointer_format_pinned admits
# row-form backpointers under "pruned" alone. The pruned stages 1 and 2 run
# on every frame where the bound keeps every chord (most frames of the small
# random tables) and in the stage tests that call them directly.
STAGE_FORMS = {
    "dense": Form(_DENSE, -1, True, "off"),
    "pruned": Form(0, -1, False, "on"),
    "fused": Form(_DENSE, 2**20, True, "off"),
    "chord bound on": Form(_DENSE, -1, True, "any"),
}


@contextlib.contextmanager
def stage_form(form):
    """Force stages 1, 2 and 3 dense (every previous bass, key and chord)
    or pruned (the ones their bounds keep) on every frame, whatever the
    table sizes, or stage 1 dense and stages 2 and 3 fused into one argmax
    per cell wherever each live key has one predecessor and the fused table
    holds at most 2**20 elements, dense elsewhere; a stage-2 bound runs only
    after stage 1's one-slot tail where a live key has several predecessors,
    and stage 1 stays dense under every form when a bass transition is -inf.
    Where the form turns the chord bound on, a frame that it bounds runs
    stages 1 and 2 dense on the previous chords it keeps, and stage 3 on
    those. The dense forms are the bounds' own fallbacks, taken on every
    frame."""
    f = STAGE_FORMS[form]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode, "_GATHER_COST", f.gather_cost)
        patch.setattr(decode, "_FUSED_ELEMENTS", f.fused_elements)
        if f.dense_stage1:
            prev_layout = decode._prev_layout
            patch.setattr(decode, "_prev_layout", lambda *args: prev_layout(*args)._replace(dense_s=True))
        chord_bound = decode._chord_bound
        if f.chord_bound == "off":
            patch.setattr(decode, "_chord_bound", lambda layout, prev, v: None)
        elif f.chord_bound == "any":

            def any_subset(layout, prev, v):
                with pytest.MonkeyPatch.context() as inner:
                    inner.setattr(decode, "_GATHER_COST", 0)
                    return chord_bound(layout, prev, v)

            patch.setattr(decode, "_chord_bound", any_subset)
        yield


def _frame0_v(tables):
    """Frame 0's v, as `_viterbi_tables` starts it: every key and bass."""
    return (
        tables.lpi_k[:, None, None]
        + (tables.lpi_c + tables.emis_c[0])[None, :, None]
        + (tables.lpi_b + tables.emis_b[0])[None, None, :]
    )


def _step_cells(layout, v, t):
    """decode._step, with the backpointers per (live key, chord, bass slot)
    cell: a one-candidate stage 3's (L, U) table, one entry per row (k, u),
    expanded through slot_t; an (L, Cw, S) table as it is."""
    v, bp = decode._step(layout, v, t)
    return v, bp[:, layout.slot_t] if bp.ndim == 2 else bp


def _took_stage1_tail(from_s):
    """Whether stage 1 took its one-slot tail, which returns each cell's
    maximizing slot once, (Kp, Cw), not per target bass."""
    return from_s.ndim == 2


@contextlib.contextmanager
def chord_bounds():
    """For each call of `decode._chord_bound` while open, whether it kept a
    subset of the previous chords, on which stages 1 to 3 then ran (or fell
    back to the stages over every previous chord)."""
    calls, real = [], decode._chord_bound

    def spy(layout, prev, v):
        kept = real(layout, prev, v)
        calls.append(kept is not None)
        return kept

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode, "_chord_bound", spy)
        yield calls


@contextlib.contextmanager
def stages12_runs():
    """The previous chords of each call of `decode._stages12` while open."""
    calls, real = [], decode._stages12

    def spy(layout, prev, v, chords):
        calls.append(chords.tolist())
        return real(layout, prev, v, chords)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode, "_stages12", spy)
        yield calls


@contextlib.contextmanager
def per_chord_bounds():
    """For each call of `decode._stage2_candidates`, which bounds stage 2's
    rows per chord from stage 1's tail, while open: its predecessors per
    live key, D."""
    calls, real = [], decode._stage2_candidates

    def spy(prev, tail):
        calls.append(prev.pred.shape[1])
        return real(prev, tail)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode, "_stage2_candidates", spy)
        yield calls


def _assert_matches_enumeration(tables, flat, trial):
    n_chords, n_bass = tables.working.size, tables.lh.shape[0]
    ref_lp, ref_path = enumerate_best_path(*flat)
    for form in STAGE_FORMS:
        if not np.isfinite(ref_lp):
            with stage_form(form), pytest.raises(NoAdmissiblePathError):
                _viterbi_tables(tables)
            continue
        with stage_form(form):
            keys, chords, basses, lp, _ = _viterbi_tables(tables)
        assert lp == pytest.approx(ref_lp, abs=1e-9), f"trial {trial}, {form}"
        rk, rc, rb = split_flat_path(ref_path, n_chords, n_bass)
        assert keys.tolist() == rk and chords.tolist() == rc and basses.tolist() == rb


_LOG_TABLE_NAMES = ("lpi_k", "lpi_c", "lpi_b", "lf", "lg", "lh", "lr", "emis_c", "emis_b")


def _integer_log_tables(tables, rng):
    """Replace every finite log entry with -1 or -2, so that paths tie."""
    for name in _LOG_TABLE_NAMES:
        arr = getattr(tables, name)
        arr[:] = np.where(np.isfinite(arr), -rng.integers(1, 3, size=arr.shape), arr)


def _wide_integer_tables(rng, n_keys, n_chords, n_bass, T, slot_cap):
    """_LogTables with every finite log entry -1 or -2 and a tenth of the
    transition entries -inf, so that stage-3 maxima tie across many
    previous chords."""

    def ints(shape, holes=0.1):
        x = -rng.integers(1, 3, size=shape).astype(float)
        x[rng.random(shape) < holes] = -np.inf
        return x

    slots = np.sort([rng.choice(n_bass, size=slot_cap, replace=False) for _ in range(n_chords)], axis=1)
    lr = ints((n_chords, slot_cap))
    return decode._LogTables(
        lpi_k=ints(n_keys, 0.0),
        lpi_c=ints(n_chords, 0.0),
        lpi_b=ints(n_bass, 0.0),
        lf=ints((n_keys, n_keys)),
        lg=ints((n_keys, n_chords, n_chords)),
        lh=ints((n_bass, n_bass)),
        lr=lr,
        slots=slots,
        working=np.arange(n_chords, dtype=np.int64),
        emis_c=ints((T, n_chords), 0.0),
        emis_b=ints((T, n_bass), 0.0),
    )


def _dead_transition_case(tables, t0=5, a=0, b=1):
    """Frame t0 favours chord a by about 100 nats and frame t0 + 1 chord b
    by about 200, but a -> b is -inf in every key: so a is the maximum of
    the stage-3 rows at t0 + 1, and b's winner there lies about 100 nats
    below it."""
    tables.emis_c[t0] = -100.0
    tables.emis_c[t0, a] = -1.0
    tables.emis_c[t0 + 1] = -200.0
    tables.emis_c[t0 + 1, b] = -1.0
    tables.lg[:, a, b] = -np.inf
    return tables


def _offset_tables(tables, offset):
    """Every chord transition made finite (-1), then every log table shifted
    by offset; -inf entries stay -inf."""
    tables.lg[~np.isfinite(tables.lg)] = -1.0
    for name in _LOG_TABLE_NAMES:
        getattr(tables, name)[:] += offset
    return tables


def _flat_tables(tables):
    """tables_to_flat by broadcasting, summing in the same order."""
    n_keys, n_chords, _ = tables.lg.shape
    n_bass = tables.lh.shape[0]
    n = n_keys * n_chords * n_bass
    log_init = (tables.lpi_k[:, None, None] + tables.lpi_c[:, None] + tables.lpi_b).ravel()
    emis = tables.emis_c[:, :, None] + tables.emis_b[:, None, :]  # (T, c, b)
    log_emis = np.broadcast_to(emis[:, None], (emis.shape[0], n_keys, *emis.shape[1:])).reshape(-1, n)
    log_trans = (
        tables.lf[:, None, None, :, None, None]  # (k_prev, c_prev, b_prev, k, c, b)
        + tables.lg.transpose(1, 0, 2)[None, :, None, :, :, None]
        + wide_lr(tables)
        + tables.lh[None, None, :, None, None, :]
    )
    return log_init, log_trans.reshape(n, n), log_emis


class TestViterbiOracle:
    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n_keys, n_chords, n_bass = rng.choice([(2, 3, 2), (1, 4, 3), (3, 2, 2), (2, 2, 3)])
            T = int(rng.integers(1, 6))
            sparsity = float(rng.choice([0.0, 0.2]))
            slot_cap = int(rng.integers(1, n_bass + 1))
            tables, flat = random_log_tables(
                rng, n_keys, n_chords, n_bass, T, sparsity=sparsity, slot_cap=slot_cap
            )
            _assert_matches_enumeration(tables, flat, trial)

    @pytest.mark.parametrize("keys_per_block", [None, 2])
    def test_key_blocks_match_enumeration(self, monkeypatch, keys_per_block):
        # Stage 3, and the dense stage 2, take the target keys in blocks
        # under an element budget. Two keys a stage-3 block of the dense form
        # over three or five keys leaves a partial last block (the pruned
        # form, which counts more arrays a key, takes one key a block, and
        # the dense stage 2 one or two); None keeps the default budget,
        # where all keys share one. Odd trials use integer log tables, so the
        # tie repair, and stage 2's lowest-row rule, run on blocks.
        rng = np.random.default_rng(12)
        for trial in range(40):
            n_keys, n_chords, n_bass = rng.choice([(3, 2, 2), (5, 2, 2), (3, 3, 2)])
            T = int(rng.integers(1, 4))
            slot_cap = int(rng.integers(1, n_bass + 1))
            tables, flat = random_log_tables(
                rng, n_keys, n_chords, n_bass, T, sparsity=0.2 * (trial % 4 == 0), slot_cap=slot_cap
            )
            if trial % 2:
                _integer_log_tables(tables, rng)
                flat = tables_to_flat(tables)
            if keys_per_block:
                budget = keys_per_block * n_chords * n_chords * slot_cap
                monkeypatch.setattr(decode, "_BLOCK_ELEMENTS", budget)
            _assert_matches_enumeration(tables, flat, trial)

    def test_key_sparse_models_match_enumeration(self, monkeypatch):
        # After frame 0 the decoder keeps only keys with a finite incoming
        # transition. Each target key gets a random in-degree from 0 to
        # n_keys, so some keys are live only at frame 0 and some live keys
        # lose every predecessor after frame 1. Odd trials use integer log
        # tables, so previous keys tie. Each trial runs at the default block
        # budget and at one key a block, where the dense stage 2's blocks
        # hold keys with different predecessors.
        rng = np.random.default_rng(14)
        for trial in range(60):
            n_keys, n_chords, n_bass = rng.choice([(3, 2, 2), (4, 3, 1), (6, 2, 1), (4, 1, 3)])
            T = int(rng.integers(1, 5))
            slot_cap = int(rng.integers(1, n_bass + 1))
            tables, _ = random_log_tables(rng, n_keys, n_chords, n_bass, T, slot_cap=slot_cap)
            for k in range(n_keys):
                cut = rng.permutation(n_keys)[: n_keys - int(rng.integers(0, n_keys + 1))]
                tables.lf[cut, k] = -np.inf
            if trial % 2:
                _integer_log_tables(tables, rng)
            for budget in (decode._BLOCK_ELEMENTS, 1):
                monkeypatch.setattr(decode, "_BLOCK_ELEMENTS", budget)
                _assert_matches_enumeration(tables, tables_to_flat(tables), trial)

    def test_no_live_key_dies_at_frame_1(self):
        rng = np.random.default_rng(15)
        tables, _ = random_log_tables(rng, 3, 2, 2, T=3)
        tables.lf[:] = -np.inf
        with pytest.raises(NoAdmissiblePathError, match="frame 1"):
            _viterbi_tables(tables)

    def test_no_live_key_single_frame_decodes(self):
        rng = np.random.default_rng(15)
        tables, _ = random_log_tables(rng, 3, 2, 2, T=1)
        tables.lf[:] = -np.inf
        _assert_matches_enumeration(tables, tables_to_flat(tables), 0)

    def test_matches_flat_viterbi(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tables, flat = random_log_tables(rng, 3, 4, 3, T=12, slot_cap=2)
            ref_lp, ref_path = flat_viterbi(*flat)
            rk, rc, rb = split_flat_path(ref_path, 4, 3)
            for form in STAGE_FORMS:
                with stage_form(form):
                    keys, chords, basses, lp, _ = _viterbi_tables(tables)
                assert lp == pytest.approx(ref_lp, abs=1e-9)
                assert keys.tolist() == rk and chords.tolist() == rc and basses.tolist() == rb

    @pytest.mark.parametrize("slot_cap", [13, 3])
    @pytest.mark.parametrize("keys_per_block", [None, 2])
    def test_wide_tables_match_flat_viterbi(self, monkeypatch, slot_cap, keys_per_block):
        # 30 chords and 13 basses reach the layouts the small oracles never
        # do: every stage tensor is wider than its reduced axis, and with
        # integer tables most stage-3 maxima tie; on this seed, both slot
        # widths decode a path that a stage 3 without the tie repair gets
        # wrong. Two keys a block splits the four keys (one or two for the
        # pruned form, which budgets more arrays a key).
        # Two more inputs aim at its bound. In the first, the row maximum's
        # previous chord has a -inf transition into the chord that frame 6
        # needs, whose winner lies about 100 nats below the row maximum. The
        # second offsets every log table of the integer trials, with their
        # chord transitions made finite so that the bound prunes, by -1e6:
        # ties stay exact at large magnitudes.
        rng = np.random.default_rng(20)
        small = _wide_integer_tables(rng, 2, 3, 2, 3, 2)
        for ours, ref in zip(_flat_tables(small), tables_to_flat(small)):
            np.testing.assert_array_equal(ours, ref)
        n_keys, n_chords, n_bass = 4, 30, 13
        if keys_per_block:
            monkeypatch.setattr(decode, "_BLOCK_ELEMENTS", keys_per_block * n_chords**2 * slot_cap)
        trials = [_wide_integer_tables(rng, n_keys, n_chords, n_bass, 12, slot_cap) for _ in range(4)]
        trials.append(_dead_transition_case(copy.deepcopy(trials[0])))
        trials += [_offset_tables(copy.deepcopy(tables), -1e6) for tables in trials[:4]]
        for trial, tables in enumerate(trials):
            ref_lp, ref_path = flat_viterbi(*_flat_tables(tables))
            rk, rc, rb = split_flat_path(ref_path, n_chords, n_bass)
            for form in STAGE_FORMS:
                with stage_form(form):
                    keys, chords, basses, lp, _ = _viterbi_tables(tables)
                assert lp == ref_lp, f"trial {trial}, {form}"
                assert keys.tolist() == rk and chords.tolist() == rc and basses.tolist() == rb

    def test_pruned_stage3_keeps_float_ties_below_the_bound(self):
        # Chord 0 sits one ulp below the bound's threshold for the row whose
        # maximum is chord 1, yet in floats its path into chord 0 ties chord
        # 1's, and the tie goes to chord 0; the slack keeps it.
        mx, m, g = -12.3, -2.3, -0.1  # row max, chord 1's column min, max lg
        a = np.nextafter(mx + (m - g), -np.inf)
        assert a + g == mx + m
        tables = decode._LogTables(
            lpi_k=np.zeros(1),
            lpi_c=np.zeros(2),
            lpi_b=np.zeros(1),
            lf=np.zeros((1, 1)),
            lg=np.array([[[g, -0.2], [m, -0.5]]]),
            lh=np.zeros((1, 1)),
            lr=np.zeros((2, 1)),
            slots=np.zeros((2, 1), dtype=np.int64),
            working=np.arange(2),
            emis_c=np.array([[a, mx], [0.0, -1000.0]]),
            emis_b=np.zeros((2, 1)),
        )
        for form in STAGE_FORMS:
            with stage_form(form):
                keys, chords, basses, lp, _ = _viterbi_tables(tables)
            assert chords.tolist() == [0, 0] and lp == a + g, form

    def test_chord_bound_keeps_what_stage3_keeps_at_its_edge(self):
        # Chord 0's stage-2 value equals stage 3's threshold for the row
        # whose maximum is chord 1, so stage 3's bound keeps it; its chord
        # bound, summed in the other order, rounds one ulp below that
        # threshold, and the bound's own slack keeps it. The bound's
        # threshold carries stage 3's slack, 2e-6 nats here (chord
        # transitions of magnitude 1000), not only its own. Chord 2, 100 nats
        # down, is dropped.
        lh, lf, v_0, v_1 = -2.0964955186557264, -1.227872129539401, -14.00000201832437, -14.0
        mx = (v_1 + lh) + lf
        thr = mx - 1e-9 * (1 + abs(mx) + 2000.0)
        assert (v_0 + lh) + lf == thr > (v_0 + lf) + lh
        tables = decode._LogTables(
            lpi_k=np.zeros(1),
            lpi_c=np.zeros(3),
            lpi_b=np.zeros(1),
            lf=np.full((1, 1), lf),
            lg=np.full((1, 3, 3), -1000.0),
            lh=np.full((1, 1), lh),
            lr=np.zeros((3, 1)),
            slots=np.zeros((3, 1), dtype=np.int64),
            working=np.arange(3),
            emis_c=np.array([[v_0, v_1, v_1 - 100.0], [0.0, 0.0, 0.0]]),
            emis_b=np.zeros((2, 1)),
        )
        layout, v = decode._layout(tables), _frame0_v(tables)
        stage_b, _, tail = decode._stage1(layout.first, v)
        stage_k, _ = decode._stage2(layout, layout.first, stage_b, tail)
        assert stage_k[0, 0, :2].tolist() == [thr, mx]
        assert decode._stage3_candidates(stage_k, layout.drop, layout.scale).ravel().tolist() == [0, 1]
        with stage_form("chord bound on"):  # the default rule takes no subset of over a quarter of the chords
            assert decode._chord_bound(layout, layout.first, v)[3].tolist() == [0, 1]

    def test_pruned_stage2_keeps_float_ties_below_the_bound(self):
        # Key 1 holds the frame-0 maximum mx, and key 0 sits one ulp below
        # the stage-2 threshold mx - (q - p) that key 1 sets for key 0's
        # row, yet in floats its path into key 0 ties key 1's, and the tie
        # goes to key 0; the slack keeps it. Key 1 is reached by nothing.
        mx, p, q = -12.3, -2.3, -0.1  # key 1's v, key 1 -> 0, key 0 -> 0
        a = np.nextafter(mx + (p - q), -np.inf)
        assert a + q == mx + p and a < mx - (q - p)
        tables = decode._LogTables(
            lpi_k=np.array([a, mx]),
            lpi_c=np.zeros(1),
            lpi_b=np.zeros(1),
            lf=np.array([[q, -np.inf], [p, -np.inf]]),
            lg=np.zeros((2, 1, 1)),
            lh=np.zeros((1, 1)),
            lr=np.zeros((1, 1)),
            slots=np.zeros((1, 1), dtype=np.int64),
            working=np.arange(1),
            emis_c=np.zeros((2, 1)),
            emis_b=np.zeros((2, 1)),
        )
        for form in STAGE_FORMS:
            with stage_form(form):
                keys, chords, basses, lp, _ = _viterbi_tables(tables)
            assert keys.tolist() == [0, 0] and lp == a + q, form

    def test_pruned_stage1_keeps_float_ties_below_the_bound(self):
        # Bass 1 holds the frame-0 maximum mx, and bass 0 sits one ulp below
        # the stage-1 threshold mx - (q - p) that bass 1 sets for it, yet in
        # floats its path into bass 0 ties bass 1's, and the tie goes to the
        # lower bass; the slack keeps it. Into bass 1, bass 1 wins by far.
        mx, p, q = -12.3, -2.3, -0.1  # bass 1's v, bass 1 -> 0, bass 0 -> 0
        a = np.nextafter(mx + (p - q), -np.inf)
        assert a + q == mx + p and a < mx - (q - p)
        tables = decode._LogTables(
            lpi_k=np.zeros(1),
            lpi_c=np.zeros(1),
            lpi_b=np.array([a, mx]),
            lf=np.zeros((1, 1)),
            lg=np.zeros((1, 1, 1)),
            lh=np.array([[q, -5.0], [p, -1.0]]),
            lr=np.zeros((1, 2)),
            slots=np.array([[0, 1]]),
            working=np.arange(1),
            emis_c=np.zeros((2, 1)),
            emis_b=np.array([[0.0, 0.0], [0.0, -1000.0]]),
        )
        for form in STAGE_FORMS:
            with stage_form(form):
                keys, chords, basses, lp, _ = _viterbi_tables(tables)
            assert basses.tolist() == [0, 0] and lp == a + q, form

    def test_stage1_stays_dense_when_a_bass_transition_is_minus_inf(self):
        # Bass 0 holds the frame-0 maximum, but it cannot move to bass 1,
        # which frame 1 needs: the best path there comes from bass 1. Taking
        # each cell's maximizing slot at every target would lose that path,
        # so a -inf bass transition keeps stage 1 dense.
        tables = decode._LogTables(
            lpi_k=np.zeros(1),
            lpi_c=np.zeros(1),
            lpi_b=np.array([0.0, -5.0]),
            lf=np.zeros((1, 1)),
            lg=np.zeros((1, 1, 1)),
            lh=np.array([[0.0, -np.inf], [-1.0, -1.0]]),
            lr=np.zeros((1, 2)),
            slots=np.array([[0, 1]]),
            working=np.arange(1),
            emis_c=np.zeros((2, 1)),
            emis_b=np.array([[0.0, 0.0], [-1000.0, 0.0]]),
        )
        ref_lp, ref_path = flat_viterbi(*tables_to_flat(tables))
        assert split_flat_path(ref_path, 1, 2)[2] == [1, 1] and ref_lp == -6.0
        for form in STAGE_FORMS:
            with stage_form(form):
                layout = decode._layout(tables)
                v = tables.lpi_b[None, None] + tables.emis_b[0]
                assert not _took_stage1_tail(decode._stage1(layout.first, v)[1]), form
                keys, chords, basses, lp, _ = _viterbi_tables(tables)
            assert basses.tolist() == [1, 1] and lp == ref_lp, form

    def test_tie_break_on_quantized_tables(self):
        # integer-valued log tables make ties exact; the decoder must agree
        # with enumeration's reversed-lexicographic rule on every one
        rng = np.random.default_rng(9)
        n_ties = 0
        for trial in range(120):
            tables, flat = random_log_tables(rng, 2, 2, 2, T=int(rng.integers(2, 5)))
            for name in ("lpi_k", "lpi_c", "lpi_b", "lf", "lg", "lh", "emis_c", "emis_b"):
                arr = getattr(tables, name)
                arr[:] = -rng.integers(1, 4, size=arr.shape).astype(float)
            tables.lr[:] = -rng.integers(1, 4, size=tables.lr.shape).astype(float)
            flat = tables_to_flat(tables)
            ref_lp, ref_path = enumerate_best_path(*flat)
            rk, rc, rb = split_flat_path(ref_path, 2, 2)
            for form in STAGE_FORMS:
                with stage_form(form):
                    keys, chords, basses, lp, _ = _viterbi_tables(tables)
                assert lp == ref_lp
                assert keys.tolist() == rk and chords.tolist() == rc and basses.tolist() == rb
            n_ties += 1
        assert n_ties == 120

    def test_flat_key_prior_frame_1_falls_back(self):
        # Every key equally likely and a first frame whose emissions tie
        # every chord and bass, as a silent intro does: frame 0's v differs
        # only by the chord and bass priors, so at frame 1 the chord bound
        # keeps more than Cw / 4 previous chords and the step runs the
        # stages over every chord; later frames, whose chord emissions
        # spread over hundreds of nats, take the chords it keeps. The path
        # and log-prob equal flat Viterbi's at the default budgets and in
        # every form.
        rng = np.random.default_rng(36)
        n_keys, n_chords, n_bass = 3, 8, 3
        for trial in range(4):
            tables, _ = random_log_tables(rng, n_keys, n_chords, n_bass, T=8)
            tables.lpi_k[:] = -np.log(n_keys)
            tables.emis_c[0], tables.emis_b[0] = -2.0, -1.0
            tables.emis_c[1:] = rng.normal(scale=100.0, size=tables.emis_c[1:].shape)
            ref_lp, ref_path = flat_viterbi(*tables_to_flat(tables))
            rk, rc, rb = split_flat_path(ref_path, n_chords, n_bass)
            with chord_bounds() as subset:
                got = {"default budgets": _viterbi_tables(tables)}
            assert subset[0] is False and any(subset[1:]), f"trial {trial}: {subset}"
            for form in STAGE_FORMS:
                with stage_form(form):
                    got[form] = _viterbi_tables(tables)
            for form, (keys, chords, basses, lp, _) in got.items():
                assert lp == pytest.approx(ref_lp, abs=1e-9), f"trial {trial}, {form}"
                assert keys.tolist() == rk and chords.tolist() == rc and basses.tolist() == rb

    def test_uniform_model_picks_lowest_states(self):
        rng = np.random.default_rng(10)
        tables, _ = random_log_tables(rng, 2, 3, 2, T=5)
        for name in _LOG_TABLE_NAMES:
            getattr(tables, name)[:] = -1.0
        keys, chords, basses, _, _ = _viterbi_tables(tables)
        assert np.all(keys == 0) and np.all(chords == 0) and np.all(basses == 0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_fuzz_forms_agree_and_match_flat_viterbi(data):
    # Mid-sized random models, between the enumeration oracles' 12 states and
    # the hand-built form cases: 1-4 keys (D > 1 wherever a key keeps
    # several predecessors), 4-24 chords, 1-5 basses and 2-12 frames, with
    # -inf holes, bass slot caps and key transitions cut at random. Tables
    # are real; integer (`_integer_log_tables`), whose sums are exact; or
    # tenths (integer tables times 0.1), whose sums tie in exact arithmetic
    # but not always in floats, the case each bound's slack is for. Chord
    # and bass emissions spread over hundreds of nats or not, so that the
    # chord bound keeps subsets and stage 1 takes its one-slot tail; some
    # frames are flat, as a silent one is, and tie every chord and bass.
    # Every frame's v and backpointers, from the dense form's previous v,
    # are the same bytes in every form and at the default rule. On integer
    # tables the path and log-prob are flat Viterbi's, tie-break included;
    # on the others the log-prob is within 1e-9 of flat Viterbi's, and the
    # path scores it.
    draw = data.draw
    n_keys, n_chords, n_bass, T = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (4, 24), (1, 5), (2, 12)))
    kind = draw(st.sampled_from(["real", "tenths", "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparsity, slot_cap = draw(st.sampled_from([0.0, 0.2])), draw(st.integers(1, n_bass))
    tables, _ = random_log_tables(rng, n_keys, n_chords, n_bass, T, sparsity, slot_cap)
    tables.lf[rng.random(tables.lf.shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = -np.inf
    if kind != "real":
        _integer_log_tables(tables, rng)
    if kind == "tenths":
        for name in _LOG_TABLE_NAMES:
            getattr(tables, name)[:] *= 0.1
    tables.emis_c *= draw(st.sampled_from([1, 100]))
    tables.emis_b *= draw(st.sampled_from([1, 100]))
    flat = np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)))
    tables.emis_c[flat] = tables.emis_c[flat].max(axis=1, keepdims=True)
    tables.emis_b[flat] = tables.emis_b[flat].max(axis=1, keepdims=True)

    forms = (None, *STAGE_FORMS)  # None: the default rule
    layouts = {}
    for form in forms:
        with stage_form(form) if form else contextlib.nullcontext():
            layouts[form] = decode._layout(tables)
    v = _frame0_v(tables)
    for t in range(1, T):
        out = {}
        for form in forms:
            with stage_form(form) if form else contextlib.nullcontext():
                out[form] = _step_cells(layouts[form], v, t)
        v, bp = out["dense"]
        for form in forms:
            assert v.tobytes() == out[form][0].tobytes(), f"frame {t}, {form}"
            assert bp.tobytes() == out[form][1].tobytes(), f"frame {t}, {form}"
        if not np.isfinite(v).any():
            break
    ref_lp, ref_path = flat_viterbi(*_flat_tables(tables))
    if ref_lp == -np.inf:
        with pytest.raises(NoAdmissiblePathError):
            _viterbi_tables(tables)
        return
    keys, chords, basses, lp, _ = _viterbi_tables(tables)
    if kind == "integer":
        assert lp == ref_lp
        assert (keys.tolist(), chords.tolist(), basses.tolist()) == split_flat_path(ref_path, n_chords, n_bass)
    else:
        assert lp == pytest.approx(ref_lp, abs=1e-9)
        assert score_table_path(tables, keys, chords, basses) == pytest.approx(lp, abs=1e-9)


def _flat_cells(keys, slots, n_chords, n_bass):
    """Flat (key, chord, bass) index of each cell of a v whose rows are
    `keys` and whose bass axis holds `slots`."""
    return (keys[:, None, None] * n_chords + np.arange(n_chords)[:, None]) * n_bass + slots


_FORMS_DEAD_CHORD = {"bass-tail": 1, "one-predecessor": 1, "dead-chord-0": 0}
# key l's predecessors under gamma-several-predecessors, as rows of (to, from): one, two and three (D = 3)
_SEVERAL_PREDECESSORS = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 1]]) > 0


def _forms_case_tables(case):
    """The 10-frame, 4-key, 30-chord, 13-bass tables of one case of
    `TestStep.test_forms_agree_bit_for_bit` (described there)."""
    rng = np.random.default_rng(34)
    n_keys, n_chords, n_bass, T = 4, 30, 13, 10
    if case.startswith("integer"):
        tables = _wide_integer_tables(rng, n_keys, n_chords, n_bass, T, 3)
    else:
        tables, _ = random_log_tables(
            rng, n_keys, n_chords, n_bass, T,
            sparsity=0.1 * (case not in ("random", "gamma", "gamma-several-predecessors", "dead-chord-0")),
            slot_cap=3,
        )
        tables.emis_c[:] = rng.normal(scale=100.0, size=tables.emis_c.shape)
    if case == "bass-tail":
        tables.lh[~np.isfinite(tables.lh)] = -5.0
        tables.emis_b[:] = rng.normal(scale=1e4, size=tables.emis_b.shape)
    dead_chord = _FORMS_DEAD_CHORD.get(case)
    if dead_chord is not None:
        tables.lpi_c[dead_chord] = tables.lg[:, :, dead_chord] = -np.inf
    if case.endswith("one-predecessor") or case == "gamma":
        lf = np.eye(n_keys)[[1, 0, 3, 2]] > 0
        tables.lf[~lf] = -np.inf
    if case == "gamma-several-predecessors":
        tables.lf[~_SEVERAL_PREDECESSORS.T] = -np.inf
    return tables


class TestStep:
    @pytest.mark.parametrize(
        "case",
        [
            "random", "integer", "key-tie", "partial-reach", "bass-tail", "slot-tail", "one-predecessor",
            "weak-key", "weak-key-gamma", "weak-row", "chord-tie", "dead-column",
        ],
    )  # fmt: skip
    def test_one_step_matches_flat_maximum(self, case):
        # One frame on its own, from a drawn previous v: at frame 1, which
        # reads every key and bass, and at frame 2, which reads the live
        # keys at the bass slots. Odd random and integer trials leave one
        # key without a predecessor. Integer tables and v tie exactly, so
        # each backpointer must be the lowest (key, chord, bass)
        # predecessor. Two cases aim at the stage-2 bound. Key-tie: two
        # previous keys a < b have equal transitions and equal rows of v,
        # above every other row, so each cell they reach ties between them
        # and must come from a. Partial-reach: key b is reached from every
        # key but a, whose row of v is the largest, so the bound (+inf for
        # that pair) must drop no row that reaches b. Bass-tail aims at the
        # stage-1 bound: every bass transition is finite and v spreads over
        # hundreds of nats, so the pruned form mostly takes stage 1's
        # one-slot tail. Slot-tail takes it too, but from cells whose maxima
        # lie within a few nats of each other, each at a drawn slot a
        # thousand nats above the cell's other slots: stage 2's per-chord
        # bound must then keep every row that the bass transitions out of its
        # slot can lift to a column's maximum. One-predecessor: each key is
        # reached from one drawn key alone, so the dense stage 2 has a single
        # predecessor to take. The last five aim at the chord bound: v holds
        # two chords, s and w, within a few hundred nats of the top, the
        # others a thousand below, so the bound keeps a subset of the
        # previous chords (finite chord transitions). Weak-key: live key l
        # is reached from row b alone, 100 nats down, whose v lies 300 nats
        # below the others' and favours w, which every other row ranks below
        # s, so w reaches a maximum only in l's rows and the bound must keep
        # it. Weak-key-gamma gives each key one predecessor, as gamma does:
        # row b precedes key l alone, and another row every other key, so
        # the bound runs per key, and it must keep w for l however far l's
        # transition lies below the others'. Weak-row: every key has one
        # predecessor row, every chord every bass, and s is up only at its
        # first slot, whose bass moves to one target bass u1 alone (0, -200
        # to the others, -60 from every other bass): s tops the rows (k, u1)
        # and w, 50 nats down at every slot, all other rows, so the bound
        # per key must take the lowest threshold over the key's rows.
        # Chord-tie: s and w share their bass slots and v's columns on
        # integer tables, so every stage-3 row ties between them, and the
        # lower one must win where the chord transitions tie too.
        # Dead-column: weak-key-gamma with s, the chord of the largest
        # bound, dead in row b, so that the column of s cannot bound l's
        # rows and the step runs the stages over every chord.
        rng = np.random.default_rng(33)
        tied = case in ("integer", "key-tie", "chord-tie")
        steps = tails = subsets = 0
        for trial in range(30):
            n_keys, n_chords, n_bass = rng.choice([(3, 4, 3), (4, 5, 2), (2, 6, 4)])
            slot_cap = int(rng.integers(1, n_bass + 1)) if case != "weak-row" else n_bass
            sparsity = 0.2 * (trial % 3 == 0) if case in ("random", "integer") else 0.0
            tables, _ = random_log_tables(rng, n_keys, n_chords, n_bass, 3, sparsity, slot_cap)
            if trial % 2 and case in ("random", "integer"):
                tables.lf[:, rng.integers(n_keys)] = -np.inf
            if case in ("key-tie", "partial-reach"):
                a, b = np.sort(rng.choice(n_keys, 2, replace=False))
            if case == "partial-reach":
                tables.lf[a, b] = -np.inf
            chord_bound = case in ("weak-key", "weak-key-gamma", "weak-row", "chord-tie", "dead-column")
            if chord_bound:
                chord_s, chord_w = np.sort(rng.choice(n_chords, 2, replace=False))
                weak, b, other = rng.permutation(n_keys)[:3] if n_keys > 2 else (0, *rng.permutation(2))
            if case == "weak-key":
                tables.lf[:, weak] = -np.inf
                tables.lf[b, weak] = -100.0
            if case == "chord-tie":
                tables.slots[chord_w], tables.lr[chord_w] = tables.slots[chord_s], tables.lr[chord_s]
            if case in ("weak-key-gamma", "dead-column"):  # row b precedes key `weak` alone, `other` the rest
                tables.lf[:] = -np.inf
                tables.lf[other], tables.lf[b, weak] = -1.0, -100.0
                tables.lf[other, weak] = -np.inf
            if case == "weak-row":
                tables.lf[:] = -np.inf
                tables.lf[other] = -1.0
                u1 = rng.integers(n_bass)
                tables.lh[:] = -60.0
                tables.lh[tables.slots[chord_s, 0]] = -200.0
                tables.lh[tables.slots[chord_s, 0], u1] = 0.0
            if tied:
                _integer_log_tables(tables, rng)
            if case == "key-tie":
                tables.lf[b] = tables.lf[a]
            if case == "one-predecessor":
                reach = np.zeros(tables.lf.shape, dtype=bool)
                reach[rng.integers(n_keys, size=n_keys), np.arange(n_keys)] = True
                tables.lf[~reach] = -np.inf
            _, log_trans, log_emis = _flat_tables(tables)
            layout = decode._layout(tables)
            assert case != "one-predecessor" or layout.first.pred.shape[1] == layout.rest.pred.shape[1] == 1
            cells = _flat_cells(layout.live, tables.slots, n_chords, n_bass)
            # with no live key every path dies at frame 1, so frame 2 never runs
            for t, prev in ((1, layout.first), (2, layout.rest))[: 1 + bool(layout.live.size)]:
                prev_cells = _flat_cells(prev.keys, prev.slots, n_chords, n_bass)
                draw = rng.integers(-3, 0, prev_cells.shape) if tied else rng.normal(size=prev_cells.shape)
                if case == "bass-tail":
                    draw *= 100.0
                if case == "slot-tail":
                    top = rng.integers(prev_cells.shape[-1], size=prev_cells.shape[:-1])
                    draw[np.arange(prev_cells.shape[-1]) != top[..., None]] -= 1e3
                v_prev = np.where(rng.random(prev_cells.shape) < 0.1, -np.inf, draw)
                rows = {int(k): r for r, k in enumerate(prev.keys)}
                if case == "key-tie":
                    v_prev[rows[a]] = v_prev[rows[b]] = 0.0
                if case == "partial-reach":
                    v_prev[rows[a]] += 10.0
                if chord_bound:
                    level = np.full((len(v_prev), n_chords, 1), -1e3)
                    level[:, chord_s], level[:, chord_w] = 0.0, -50.0 * (case != "chord-tie")
                    if case in ("weak-key", "weak-key-gamma", "dead-column"):
                        level[rows[b], chord_s], level[rows[b], chord_w] = -350.0, -300.0
                    if case == "dead-column":
                        level[rows[b], chord_s] = -np.inf
                    if case == "chord-tie":
                        draw[:, chord_w] = draw[:, chord_s]
                    v_prev = draw + level
                    if case == "weak-row":
                        v_prev[:, chord_s, 1:] = -1e3
                score = np.full(log_trans.shape[0], -np.inf)
                score[prev_cells] = v_prev
                score = score[:, None] + log_trans  # (previous state, state)
                want = score.max(axis=0) + log_emis[t]
                outside = np.ones(want.size, dtype=bool)
                outside[cells] = False
                assert np.all(want[outside] == -np.inf), f"trial {trial}: a state outside the layout lives"
                top = score >= score.max(axis=0) - 1e-9
                lowest = np.argmax(top, axis=0)
                if case == "key-tie":  # a and b both reach every live cell's maximum
                    key_of = np.arange(top.shape[0]) // (n_chords * n_bass)
                    both = top[key_of == a].any(axis=0) & top[key_of == b].any(axis=0)
                    assert np.all(both[cells][np.isfinite(want[cells])])
                for form in STAGE_FORMS:
                    with stage_form(form), chord_bounds() as subset:
                        formed = decode._layout(tables)
                        formed_prev = formed.first if t == 1 else formed.rest
                        v, backptr = _step_cells(formed, v_prev, t)
                        if form == "pruned":
                            tails += _took_stage1_tail(decode._stage1(formed_prev, v_prev)[1])
                            subsets += subset == [True]
                    one_pred = formed_prev.pred.shape[1] == 1
                    assert (formed_prev.fused is not None) == (form == "fused" and one_pred), form
                    np.testing.assert_allclose(v, want[cells], rtol=0, atol=1e-9)
                    live = np.isfinite(v)
                    got = prev_cells.ravel()[backptr[live]]
                    assert got.tolist() == lowest[cells][live].tolist(), f"trial {trial}, t={t}, {form}"
                steps += 1
        if case in ("bass-tail", "slot-tail"):
            assert tails >= steps // 2, (tails, steps)
        if case in ("weak-key", "weak-key-gamma", "weak-row", "chord-tie"):  # the bound keeps s and w alone
            assert subsets == steps, (subsets, steps)
        if case == "dead-column":
            assert subsets == 0

    @pytest.mark.parametrize(
        "case",
        [
            "random", "integer", "bass-tail", "one-predecessor", "integer-one-predecessor", "gamma",
            "gamma-several-predecessors", "dead-chord-0",
        ],
    )  # fmt: skip
    def test_forms_agree_bit_for_bit(self, case):
        # Every frame's v and backpointers, and the outputs of stages 1 and
        # 2, dead cells included, equal between the dense, the pruned and
        # the fused forms. The random tables' chord emissions spread over
        # hundreds of nats, as a trained model's do, so most frames keep one
        # previous chord per stage-3 row and pack their backpointers once per row;
        # the integer tables, with -inf holes in every transition table, tie
        # everywhere and leave keys that some rows do not reach. Bass-tail
        # spreads the bass emissions over thousands of nats and keeps every
        # bass transition finite, so most frames keep one previous bass per
        # stage-1 cell and take the one-slot tail, whose stage 2 bounds its
        # rows once per chord, with -inf holes in the other tables and one
        # chord impossible throughout, whose dead cells keep slot 0 as in the
        # dense form (the chord's -inf column keeps stage 3's rows whole).
        # Stage 2 reads stage 1's outputs, the tail included, as `_step`
        # passes them. Each of these reaches a key from up to four
        # keys, so the fused form runs them staged. The one-predecessor
        # cases keep each key's transition from one key, so the fused step
        # runs every frame: on the sparse random tables with one chord
        # impossible but without bass-tail's spread bass emissions, where
        # adding lf and lg in the other order changes bits and the dead
        # cells take the fused step's previous states, and on the integer
        # tables, where it breaks ties between previous chords. The forms
        # with the chord bound take stages 1 to 3 on the previous chords it
        # keeps, on most random frames (one bound for all keys) and most
        # gamma frames (the random tables with one predecessor per key, one
        # bound per key). Gamma-several-predecessors prunes the random
        # tables' key transitions as a gamma above 0 does, leaving keys with
        # one, two and three predecessors (D = 3, so rows miss some keys):
        # the bound takes its one path through the chord of largest bound
        # and runs stages 1 and 2 once, on the chords it keeps, on most
        # frames. Wherever a key has more than one predecessor, a bounded
        # frame runs `_stages12` once. Dead-chord-0's chord 0 is impossible
        # throughout, so each previous chord's -inf transition into it keeps
        # stage 3's rows whole, the chord bound keeps every chord, and chord
        # 0's dead cells come from chord 0 as in the dense form.
        tables = _forms_case_tables(case)
        T = len(tables.emis_c)
        one_pred = case.endswith("one-predecessor") or case == "gamma"
        deg = 1 if one_pred else 3 if case == "gamma-several-predecessors" else 4
        dead_chord = _FORMS_DEAD_CHORD.get(case)
        layouts = {}
        for form in STAGE_FORMS:
            with stage_form(form):
                layouts[form] = decode._layout(tables)
        assert layouts["fused"].rest.pred.shape[1] == deg
        v = _frame0_v(tables)
        one_candidate = one_slot = fused = dead = 0
        subsets = dict.fromkeys(STAGE_FORMS, 0)
        for t in range(1, T):
            out, stage1, stage2 = {}, {}, {}
            for form, layout in layouts.items():
                prev = layout.first if t == 1 else layout.rest
                with stage_form(form), per_chord_bounds() as per_chord, chord_bounds() as subset, stages12_runs() as s:
                    stage_b, from_s, tail = decode._stage1(prev, v)
                    stage1[form] = stage_b, from_s
                    stage2[form] = decode._stage2(layout, prev, stage_b, tail)
                    out[form] = _step_cells(layout, v, t)
                # `_step` bounds the previous chords unless it fuses; the bound keeps nothing where the form turns it off
                assert len(subset) == (prev.fused is None), f"frame {t}, {form}"
                assert not any(subset) or STAGE_FORMS[form].chord_bound != "off", f"frame {t}, {form}"
                if prev.pred.shape[1] > 1:  # one pass of stages 1 and 2 on a bounded frame, none on another
                    assert len(s) == (subset == [True]), f"frame {t}, {form}"
                assert (tail is not None) == (form == "pruned" and _took_stage1_tail(from_s)), f"frame {t}, {form}"
                # ours, and `_step`'s where the chord bound kept every chord or too many: stage 2 bounds its rows
                # after the tail where keys have several predecessors (and at least _GATHER_COST, 0 when pruned)
                bounded = tail is not None and prev.pred.shape[1] > 1
                assert len(per_chord) == bounded * (1 + (subset == [False])), f"frame {t}, {form}"
                fused += form == "fused" and prev.fused is not None
                subsets[form] += subset == [True]
            one_slot += _took_stage1_tail(stage1["pruned"][1])
            if _took_stage1_tail(stage1["pruned"][1]):  # compare its slots broadcast over the target basses
                stage_b, s0 = stage1["pruned"]
                stage1["pruned"] = stage_b, np.broadcast_to(s0[:, None], stage_b.shape)
            for stage, got in (("stage 1", stage1), ("stage 2", stage2)):
                for form in STAGE_FORMS:
                    for dense, other in zip(got["dense"], got[form]):
                        assert dense.dtype == other.dtype and np.array_equal(dense, other), f"frame {t}, {stage}"
            stage_k, layout = stage2["pruned"][0], layouts["pruned"]
            one_candidate += decode._stage3_candidates(stage_k, layout.drop, layout.scale).shape[2] == 1
            v, bp = out["dense"]
            dead += np.count_nonzero(v == -np.inf)
            for form in STAGE_FORMS:
                assert v.tobytes() == out[form][0].tobytes(), f"frame {t}, {form}"
                assert bp.dtype == out[form][1].dtype and np.array_equal(bp, out[form][1]), f"frame {t}, {form}"
        assert fused == (T - 1 if one_pred else 0) and (dead > 0 or not case.endswith("one-predecessor"))
        if case.startswith("integer"):
            assert layouts["pruned"].rest.gaps
        elif case == "random":
            assert one_candidate >= (T - 1) // 2
        elif case == "bass-tail":
            assert one_slot >= (T - 1) // 2
        if case == "gamma-several-predecessors":
            assert layouts["pruned"].rest.gaps
        if case in ("random", "gamma", "gamma-several-predecessors"):
            assert subsets["pruned"] >= (T - 1) // 2 and subsets["chord bound on"] >= (T - 1) // 2, subsets
        if case == "dead-chord-0":
            assert subsets["pruned"] == subsets["chord bound on"] == 0, subsets
        if dead_chord is not None:
            assert not np.isfinite(v[:, dead_chord]).any()

    @pytest.mark.parametrize("case", ["bass-tail", "gamma-several-predecessors"])
    def test_stage2_bound_runs_after_the_tail_where_it_can_prune(self, case):
        # At the default rule, stage 2 bounds its rows (once per chord, from
        # stage 1's one-slot tail) on exactly the frames whose stage 1 took
        # the tail and whose live keys have at least _GATHER_COST
        # predecessors: with fewer, even one kept row would cost more than
        # all of them. Both cases take bass-tail's tables, on whose frames
        # stage 1 takes the tail and the chord bound keeps every chord. Its
        # keys have four predecessors (D = 4), so stage 2 bounds every
        # frame; gamma-several-predecessors' key transitions, with bass-tail's
        # -inf holes, leave two (D = 2), so stage 2 bounds none.
        tables = _forms_case_tables("bass-tail")
        if case == "gamma-several-predecessors":
            tables.lf[~_SEVERAL_PREDECESSORS.T] = -np.inf
        layout, v = decode._layout(tables), _frame0_v(tables)
        assert layout.rest.pred.shape[1] == (4 if case == "bass-tail" else 2) and decode._GATHER_COST == 4
        tails, stage1 = [], decode._stage1

        def spy(prev, v):
            out = stage1(prev, v)
            tails.append(out[2] is not None)
            return out

        with pytest.MonkeyPatch.context() as patch, per_chord_bounds() as per_chord:
            patch.setattr(decode, "_stage1", spy)
            for t in range(1, len(tables.emis_c)):
                v = decode._step(layout, v, t)[0]
        assert tails == [True] * (len(tables.emis_c) - 1), tails
        assert per_chord == ([4] * len(tails) if case == "bass-tail" else []), per_chord

    def test_fused_step_needs_one_predecessor_per_key(self):
        # Rows a < b reach key 0 with stage-2 sums one ulp apart just below
        # 1, and key 0's chord transition 2 carries both sums across 2, where
        # they round to the same 3. The staged form takes the strict stage-2
        # maximum, row b, where one argmax over both rows' sums with lg
        # would take row a; so a layout with two predecessors for a key
        # builds no fused step, even under the fused form.
        x_b = np.nextafter(1.0, 0.0)
        x_a, g = np.nextafter(x_b, 0.0), 2.0
        assert x_a < x_b and x_a + g == x_b + g
        tables = decode._LogTables(
            lpi_k=np.array([x_a, x_b]),
            lpi_c=np.zeros(1),
            lpi_b=np.zeros(1),
            lf=np.array([[0.0, -np.inf], [0.0, -np.inf]]),
            lg=np.full((2, 1, 1), g),
            lh=np.zeros((1, 1)),
            lr=np.zeros((1, 1)),
            slots=np.zeros((1, 1), dtype=np.int64),
            working=np.arange(1),
            emis_c=np.zeros((2, 1)),
            emis_b=np.zeros((2, 1)),
        )
        for form in STAGE_FORMS:
            with stage_form(form):
                layout = decode._layout(tables)
                keys, chords, basses, lp, _ = _viterbi_tables(tables)
            assert layout.first.pred.shape[1] == 2 and layout.first.fused is None, form
            assert keys.tolist() == [1, 0] and lp == x_b + g, form


class TestViterbiJoint:
    def test_single_frame_argmax(self, trained):
        m, treble, bass, _ = trained
        t1 = make_chromagram(treble.values.T[:1])
        b1 = make_chromagram(bass.values.T[:1], "bass")
        path = viterbi_joint(m, Constraints(), t1, b1)
        from chordscribe.model import gaussian_logpdf_frames

        with np.errstate(divide="ignore"):
            score = (
                np.log(m.init_key)[:, None, None]
                + np.log(m.init_chord)[None, :, None]
                + np.log(m.init_bass)[None, None, :]
                + gaussian_logpdf_frames(treble.values.T[:1], m.chord_emis_mean, m.chord_emis_cov)[
                    0
                ][None, :, None]
                + gaussian_logpdf_frames(bass.values.T[:1], m.bass_emis_mean, m.bass_emis_cov)[0][
                    None, None, :
                ]
            )
        k, c, b = np.unravel_index(np.argmax(score), score.shape)
        assert (path.keys[0], path.chords[0], path.basses[0]) == (k, c, b)
        assert path.log_prob == pytest.approx(float(score[k, c, b]), abs=1e-9)

    def test_recovers_training_sequence(self, trained):
        m, treble, bass, (keys, chords, basses) = trained
        path = viterbi_joint(m, Constraints(), treble, bass)
        assert np.mean(np.array(path.chords) == np.array(chords)) >= 0.9
        assert np.mean(np.array(path.basses) == np.array(basses)) >= 0.9

    def test_model_level_flat_equivalence(self, trained):
        # restrict chords via cac so the flat product space stays small
        m, treble, bass, _ = trained
        constraints = Constraints(cac=True)
        path = viterbi_joint(m, constraints, treble, bass)
        from chordscribe.decode import _build_tables

        tables = _build_tables(m, constraints, treble, bass)
        ref_lp, ref_path = flat_viterbi(*tables_to_flat(tables))
        assert path.log_prob == pytest.approx(ref_lp, abs=1e-9)
        rk, rc, rb = split_flat_path(ref_path, tables.working.size, 13)
        assert path.keys.tolist() == rk
        assert [tables.working[c] for c in rc] == path.chords.tolist()
        assert path.basses.tolist() == rb

    def test_constrained_never_beats_unconstrained(self, trained):
        m, treble, bass, _ = trained
        free = viterbi_joint(m, Constraints(), treble, bass)
        tight = viterbi_joint(m, Constraints(gamma=0, tau=3, cac=True), treble, bass)
        assert tight.log_prob <= free.log_prob + 1e-9

    def test_monotonicity_in_gamma_and_tau(self, trained):
        m, treble, bass, _ = trained
        lps, counts = [], []
        for tau in (13, 6, 3, 1):
            p = viterbi_joint(m, Constraints(tau=tau), treble, bass)
            lps.append(p.log_prob)
            counts.append(p.expanded_transitions)
        assert all(a >= b - 1e-9 for a, b in zip(lps, lps[1:]))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

        lps, counts = [], []
        for gamma in (None, 0, 2):
            p = viterbi_joint(m, Constraints(gamma=gamma), treble, bass)
            lps.append(p.log_prob)
            counts.append(p.expanded_transitions)
        assert all(a >= b - 1e-9 for a, b in zip(lps, lps[1:]))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_expanded_transitions_pinned(self):
        # A reported count: pinned so that a change in how the decoder lays
        # out its states cannot redefine it.
        m, treble, bass, _ = toy_model()
        free = viterbi_joint(m, Constraints(), treble, bass)
        tight = viterbi_joint(m, Constraints(gamma=0, tau=3, cac=True), treble, bass)
        assert (free.expanded_transitions, tight.expanded_transitions) == (3_385_200, 47_116)

    def test_ground_truth_is_lower_bound(self, trained):
        m, treble, bass, (keys, chords, basses) = trained
        path = viterbi_joint(m, Constraints(), treble, bass)
        gt = score_path(m, Constraints(), treble, bass, keys, chords, basses)
        assert path.log_prob >= gt - 1e-9

    def test_decoded_path_score_consistency(self, trained):
        m, treble, bass, _ = trained
        for constraints in (Constraints(), Constraints(gamma=0, tau=3, cac=True)):
            path = viterbi_joint(m, constraints, treble, bass)
            back = score_path(m, constraints, treble, bass, path.keys, path.chords, path.basses)
            assert back == pytest.approx(path.log_prob, abs=1e-9)

    def test_no_admissible_path_names_frame(self, trained):
        m, treble, bass, _ = trained
        m = copy.deepcopy(m)
        m.key_trans_counts = np.zeros((24, 24))  # gamma prunes everything
        with pytest.raises(NoAdmissiblePathError, match="frame 1"):
            viterbi_joint(m, Constraints(gamma=5), treble, bass)

    def test_bad_covariance_names_chord_not_working_row(self, trained):
        # The chord alphabet constraint decodes over a working set, so the
        # bad chord's row in the emission arrays differs from its index.
        m, treble, bass, _ = trained
        m = copy.deepcopy(m)
        bad = 7  # G:maj, a chord of the toy song
        working = chord_alphabet_constraint(
            m.cac, np.concatenate([treble.values.T, bass.values.T], axis=1), m.alphabet.no_chord
        )
        row = int(np.flatnonzero(working == bad)[0])
        assert row != bad
        m.chord_emis_cov[bad] = -np.eye(12)
        with pytest.raises(ValueError, match=r"covariance of chord 7 \(G:maj\) is not positive definite"):
            viterbi_joint(m, Constraints(cac=True), treble, bass)

    @pytest.fixture
    def loaded(self, trained, tmp_path):
        save_model(trained[0], tmp_path / "model.txt")
        return load_model(tmp_path / "model.txt")

    @staticmethod
    def _count_factorizations(monkeypatch):
        calls = []
        for name in ("cholesky", "inv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        return calls

    def test_held_emissions_equal_one_off_call_bit_for_bit(self, trained, loaded, monkeypatch):
        # The Gaussians train and load_model keep give every column the bits
        # of a one-off call on copies of the rows: the full tables, a CAC
        # working subset and rows that share the fallback Gaussian.
        m, treble, bass, _ = trained
        obs = np.concatenate([treble.values.T, bass.values.T], axis=1)
        working = chord_alphabet_constraint(m.cac, obs, m.alphabet.no_chord)
        fallback = np.flatnonzero(np.all(m.chord_emis_mean == 0.5, axis=1))
        assert 1 < working.size < m.n_chords and fallback.size > 2
        subset = np.union1d(working, fallback[:3])
        for model in (m, loaded):
            cases = [
                (treble.values.T, model.chord_emis_mean, model.chord_emis_cov, model.chord_emis_gaussians, rows)
                for rows in (slice(None), working, subset)
            ] + [
                (bass.values.T, model.bass_emis_mean, model.bass_emis_cov, model.bass_emis_gaussians, slice(None)),
                (obs, model.cac.means, model.cac.covs, model.cac.gaussians, slice(None)),
            ]
            for frames, means, covs, held, rows in cases:
                want = gaussian_logpdf_frames(frames, means[rows].copy(), covs[rows].copy())
                calls = self._count_factorizations(monkeypatch)
                got = gaussian_logpdf_frames(frames, means, covs, rows=rows, held=held)
                monkeypatch.undo()
                assert calls == [] and got.tobytes() == want.tobytes()
            shared = gaussian_logpdf_frames(treble.values.T, model.chord_emis_mean, model.chord_emis_cov, rows=subset,
                                            held=model.chord_emis_gaussians)[:, np.isin(subset, fallback)]  # fmt: skip
            assert shared.shape[1] == 3 and (shared == shared[:, :1]).all()

    def test_decode_after_load_runs_no_factorization(self, trained, loaded, monkeypatch):
        m, treble, bass, _ = trained
        calls = self._count_factorizations(monkeypatch)
        for constraints in (Constraints(), Constraints(gamma=0, tau=3, cac=True)):
            viterbi_joint(loaded, constraints, treble, bass)
        assert calls == []
        # a deep copy's tables are writeable, so its decode factors them
        viterbi_joint(copy.deepcopy(loaded), Constraints(cac=True), treble, bass)
        assert calls.count("cholesky") == 3  # the first pass, the chord and the bass tables

    def test_decode_after_pickle_runs_no_factorization(self, trained, loaded, monkeypatch):
        # An unpickled model's tables are new and writeable; it marks the ones
        # its Gaussians hold read-only again, so a decode (as in a worker
        # process that receives the model by pickle) uses the held factors.
        m, treble, bass, _ = trained
        calls, real = [], chordscribe.model._factor
        for model in (m, loaded):
            unpickled = pickle.loads(pickle.dumps(model))
            for constraints in (Constraints(), Constraints(gamma=0, tau=3, cac=True)):
                want = viterbi_joint(model, constraints, treble, bass)
                monkeypatch.setattr(chordscribe.model, "_factor", lambda *a: calls.append(a) or real(*a))
                got = viterbi_joint(unpickled, constraints, treble, bass)
                monkeypatch.undo()
                assert repr(got.log_prob) == repr(want.log_prob) and got.chords.tolist() == want.chords.tolist()
        assert calls == []

    def test_edited_copy_survives_pickle_and_copy(self, trained):
        # A deep copy's tables are writeable and may be edited while its held
        # Gaussians still hold the old factors: pickling drops those, so the
        # unpickled model decodes the edited tables, and a shallow copy
        # leaves the tables it shares writeable.
        m, treble, bass, _ = trained
        edited = copy.deepcopy(m)
        edited.chord_emis_cov *= 1.5
        edited.cac.covs *= 1.5
        shallow = copy.copy(edited)
        unpickled = pickle.loads(pickle.dumps(edited))
        assert edited.chord_emis_cov.flags.writeable and edited.cac.covs.flags.writeable
        for constraints in (Constraints(cac=True), Constraints(gamma=0, tau=3, cac=True)):
            want, old = (viterbi_joint(x, constraints, treble, bass) for x in (edited, m))
            assert repr(want.log_prob) != repr(old.log_prob)
            for got in (viterbi_joint(x, constraints, treble, bass) for x in (unpickled, shallow)):
                assert repr(got.log_prob) == repr(want.log_prob) and got.chords.tolist() == want.chords.tolist()

    def test_replaced_table_is_the_one_decoded(self, trained):
        # dataclasses.replace carries the held Gaussians over, but they are
        # not the new table's: the decode factors the table it is given.
        m, treble, bass, _ = trained
        bad = m.chord_emis_cov.copy()
        bad[7] = -np.eye(12)
        with pytest.raises(ValueError, match=r"covariance of chord 7 \(G:maj\) is not positive definite"):
            viterbi_joint(dataclasses.replace(m, chord_emis_cov=bad), Constraints(cac=True), treble, bass)
        wider, wider_cac = m.chord_emis_cov * 1.5, m.cac.covs * 1.5
        for table in (wider, wider_cac):
            table.setflags(write=False)  # read-only, as the tables of held Gaussians are
        replaced = dataclasses.replace(m, chord_emis_cov=wider, cac=dataclasses.replace(m.cac, covs=wider_cac))
        edited = copy.deepcopy(m)  # writeable copies, factored per decode
        edited.chord_emis_cov[...], edited.cac.covs[...] = wider, wider_cac
        for constraints in (Constraints(cac=True), Constraints(gamma=0, tau=3, cac=True)):
            got, want, old = (viterbi_joint(x, constraints, treble, bass) for x in (replaced, edited, m))
            assert repr(got.log_prob) == repr(want.log_prob) != repr(old.log_prob)
            assert got.chords.tolist() == want.chords.tolist()
        obs = np.concatenate([treble.values.T, bass.values.T], axis=1)
        got, want, old = (forward_backward(x.cac, obs).tobytes() for x in (replaced, edited, m))
        assert got == want != old

    def test_edit_in_place_after_a_decode(self, trained, loaded):
        # A model that keeps Gaussians refuses an edit of their tables; a
        # deep copy, whose tables are writeable, decodes the edited table.
        m, treble, bass, _ = trained
        for model in (m, loaded):
            before = viterbi_joint(model, Constraints(cac=True), treble, bass)
            for table in (model.chord_emis_mean, model.chord_emis_cov, model.bass_emis_cov, model.cac.covs):
                with pytest.raises(ValueError, match="read-only"):
                    table[7] = 1.0
            assert repr(viterbi_joint(model, Constraints(cac=True), treble, bass).log_prob) == repr(before.log_prob)
        copied = copy.deepcopy(loaded)
        viterbi_joint(copied, Constraints(cac=True), treble, bass)
        copied.chord_emis_cov[7] = -np.eye(12)
        with pytest.raises(ValueError, match=r"covariance of chord 7 \(G:maj\) is not positive definite"):
            viterbi_joint(copied, Constraints(cac=True), treble, bass)

    def test_chord_tables_gathered_at_working_set(self, trained):
        m, treble, bass, _ = trained
        m = copy.deepcopy(m)
        m.chord_trans_rel = np.random.default_rng(6).random(m.chord_trans_rel.shape)
        m.chord_trans_rel[:, 3, 5] = 0.0  # a -inf cell
        sizes = []
        for constraints in (Constraints(gamma=0, tau=3, cac=True), Constraints()):
            tables = decode._build_tables(m, constraints, treble, bass)
            w = tables.working
            want = np.stack([chord_trans_for_key(m, k)[np.ix_(w, w)] for k in range(24)])
            pruned = prune_chord_to_bass(m, constraints.tau or 13)[w]
            with np.errstate(divide="ignore"):
                assert tables.lg.tobytes() == np.log(want).tobytes()
                assert wide_lr(tables).tobytes() == np.log(pruned).tobytes()
            sizes.append(w.size)
        assert 1 < sizes[0] < sizes[1] == m.n_chords  # a proper working set, then all chords

    def test_chord_tables_held_once_when_every_key_is_live(self, trained):
        # lg is C-ordered, so a layout whose keys are all live reads its rows
        # as a view of it; the toy model's songs stay in C, so under gamma=0
        # one key is live and its rows are gathered
        m, treble, bass, _ = trained
        for constraints, n_live in ((Constraints(), 24), (Constraints(gamma=0), 1)):
            tables = decode._build_tables(m, constraints, treble, bass)
            layout = decode._layout(tables)
            assert tables.lg.flags.c_contiguous and layout.live.size == n_live
            assert np.shares_memory(layout.lg_from, tables.lg) == (n_live == 24)
            assert layout.lg_from.tobytes() == tables.lg[layout.live].tobytes()

    def test_frame_count_mismatch(self, trained):
        m, treble, bass, _ = trained
        short = make_chromagram(bass.values.T[:-1], "bass")
        with pytest.raises(ValueError):
            viterbi_joint(m, Constraints(), treble, short)

    def test_constraints_validation(self):
        with pytest.raises(ValueError):
            Constraints(tau=0)
        with pytest.raises(ValueError):
            Constraints(tau=14)
        with pytest.raises(ValueError):
            Constraints(gamma=-1)


def _fallback_tie_case():
    """A full121 model trained on two songs of four chords (keys C and G),
    so that 115 of its 121 chord states share the fallback Gaussian, and a
    12-frame song whose flat frames (every chroma bin 0.5) tie those
    states' emissions exactly."""
    a121 = make_alphabet("full121")
    rng = np.random.default_rng(41)

    def song(labels, key):
        chords = [a121.index_of(parse_chord_symbol(lab)) for lab in labels]
        basses = [derive_bass(a121.symbol_at(c)) for c in chords]
        t, b = synthetic_frames(chords, basses, "full121", rng=rng)
        return t, b, make_frame_labels([key] * len(chords), chords, basses)

    songs = []
    for key, labels in ((0, ("C:maj", "G:maj", "A:min", "N")), (7, ("G:maj", "D:maj", "E:min", "N"))):
        t, b, frame_labels = song(np.repeat(labels, [4, 4, 4, 2]).tolist() * 2, key)
        songs.append((make_chromagram(t), make_chromagram(b, "bass"), frame_labels))
    model = train(songs, TrainConfig(alphabet="full121", alpha=0.1))
    t, b, _ = song(["N"] * 4 + ["G:maj"] * 4 + ["N"] * 4, 0)
    flat = np.r_[0:4, 8:12]
    t[flat] = 0.5
    b[flat] = 0.5
    return model, make_chromagram(t), make_chromagram(b, "bass")


@pytest.mark.parametrize(
    ("constraints", "keys", "log_prob"),
    [
        (Constraints(), [0] * 9 + [1] * 3, "173.14618045901557"),
        (Constraints(tau=3), [0] * 9 + [1] * 3, "173.14618045901557"),
        (Constraints(gamma=0, tau=3, cac=True), [0] * 12, "173.081805782094"),
    ],
    ids=["free", "tau3", "tight"],
)
def test_fallback_emission_ties_pinned(constraints, keys, log_prob):
    # Values recorded before the stage tensors were laid out with the
    # reduced axis last, and the tight ones before stages 2 and 3 were
    # fused. Stage 3 ties on two thirds of its blocks here; the pin fails if
    # stage 1, stage 2 or the final frame takes the last maximum instead of
    # the first, or if the tie repair (or the fused argmax) takes the
    # highest tied previous chord.
    model, treble, bass = _fallback_tie_case()
    fallback = np.all(model.chord_emis_mean == 0.5, axis=1)
    assert fallback.sum() == 115
    for form in STAGE_FORMS:
        with stage_form(form):
            path = viterbi_joint(model, constraints, treble, bass)
        assert path.keys.tolist() == keys
        assert path.chords.tolist() == [1] * 4 + [7] * 4 + [1] * 4
        assert path.basses.tolist() == [1] * 4 + [7] * 4 + [1] * 4
        assert repr(path.log_prob) == log_prob


def test_stage3_rows_break_cross_key_ties_as_the_dense_form():
    # The pruned form takes stage 3 in row form on every frame, where the
    # fallback Gaussian leaves 115 previous chords in each row and ties
    # them. On some frames a cell's maximum is reached from several
    # candidates whose lowest chord does not come from the lowest previous
    # key, so the first maximum over D is not the winner; and no bass moves
    # to bass 3, so every row (k, 3) is dead. Each frame's v, backpointers
    # and their dtype equal the dense form's byte for byte.
    model, treble, bass = _fallback_tie_case()
    tables = decode._build_tables(model, Constraints(), treble, bass)
    tables.lh[:, 3] = -np.inf
    layouts = {}
    for form in ("dense", "pruned"):
        with stage_form(form):
            layouts[form] = decode._layout(tables)
    layout = layouts["pruned"]
    v = _frame0_v(tables)
    wide = cross = dead = 0
    for t in range(1, treble.n_frames):
        prev = layout.first if t == 1 else layout.rest
        with stage_form("pruned"):
            stage_k, from_row = decode._stage2(layout, prev, decode._stage1(prev, v)[0])
            cand = decode._stage3_candidates(stage_k, layout.drop, layout.scale)
            v_rows, bp_rows = _step_cells(layout, v, t)
        with stage_form("dense"):
            v, bp = _step_cells(layouts["dense"], v, t)
        assert v.tobytes() == v_rows.tobytes(), f"frame {t}"
        assert bp.dtype == bp_rows.dtype and bp.tobytes() == bp_rows.tobytes(), f"frame {t}"
        wide += cand.shape[2] > 1
        dead += np.count_nonzero(stage_k.max(axis=-1) == -np.inf)
        key_of = np.take_along_axis(from_row, cand, axis=-1)[..., None]  # (L, U, D, 1) each candidate's row
        for k in range(len(cand)):
            val = tables.lg[layout.live[k]][cand[k]] + np.take_along_axis(stage_k[k], cand[k], axis=-1)[..., None]
            best = val.max(axis=1, keepdims=True)
            tied = (val == best) & (best > -np.inf)  # (U, D, Cw)
            first = np.take_along_axis(key_of[k], tied.argmax(axis=1)[:, None], axis=1)
            cross += np.count_nonzero(first > np.where(tied, key_of[k], 99).min(axis=1, keepdims=True))
    assert wide > 0 and cross > 0 and dead > 0, (wide, cross, dead)


def test_pruned_stage2_takes_the_lowest_maximizing_rows():
    # After stage 1's one-slot tail (every bass transition finite, v spread
    # over a million nats), the pruned stage 2 bounds its rows once per
    # chord and takes, at every cell, the row the dense form takes: the
    # lowest maximizing one, and for a dead cell its key's first
    # predecessor. Random tables with -inf key transitions leave keys that
    # some rows do not reach, and one chord impossible at the previous frame
    # kills its columns.
    rng = np.random.default_rng(35)
    gaps = dead = 0
    for trial in range(12):
        tables, _ = random_log_tables(rng, 6, 5, 4, 3, sparsity=0.3, slot_cap=2)
        tables.lh[:] = rng.normal(size=tables.lh.shape)
        with stage_form("pruned"):
            layout = decode._layout(tables)
            prev = layout.rest
            v = rng.normal(scale=1e6, size=(prev.keys.size, *prev.slots.shape))
            v[:, rng.integers(prev.slots.shape[0])] = -np.inf
            stage_b, from_s, tail = decode._stage1(prev, v)
            stage_k, from_row = decode._stage2_pruned(prev, stage_b, decode._stage2_candidates(prev, tail))
        assert _took_stage1_tail(from_s) and tail is not None
        sums = prev.lf_rows[:, :, None] + stage_b.reshape(len(stage_b), -1)  # (L, Kp, N)
        want = np.where(stage_k.reshape(len(sums), -1) > -np.inf, sums.argmax(axis=1), prev.pred[:, :1])
        assert np.array_equal(from_row, want.reshape(stage_k.shape)), f"trial {trial}"
        gaps += prev.gaps
        dead += np.count_nonzero(stage_k == -np.inf)
    assert gaps > 0 and dead > 0, (gaps, dead)


def _exact_column_bound(layout, prev, v):
    """The chord bound with the chord c* of largest bound's exact stage-2
    column, from dense stages 1 and 2 over every previous chord, in place of
    `decode._one_path`: (c*, that column (L, U), the chords it keeps, or
    None where a row's column is -inf). The reference the one-path bound is
    checked against."""
    ub = v.max(axis=0).max(axis=-1)[None] + prev.out_max + prev.lh_max
    c = int(ub.max(axis=0).argmax())
    dense = prev._replace(dense_s=True)  # and stage 2 dense under the "chord bound on" form
    col = decode._stage2(layout, dense, decode._stage1(dense, v)[0])[0][..., c]
    lb = (col - 1e-9 * (1 + np.abs(col) + layout.scale_max) - layout.drop_max).min()
    if lb == -np.inf:
        return c, col, None
    with np.errstate(invalid="ignore"):
        return c, col, np.flatnonzero((ub + 1e-9 * (1 + np.abs(ub) + prev.scale_c) >= lb).any(axis=0))


@pytest.mark.parametrize("kind", ["random", "integer"])
def test_one_path_bound_lies_under_the_exact_column(kind):
    # On random oracle tables whose keys have several predecessors (D > 1),
    # with -inf key transitions that leave rows missing some keys, and
    # chord emissions spread over hundreds of nats so that the bound keeps
    # few chords: at every frame, the one path's column through c* is at
    # most c*'s exact stage-2 column at every (l, u), with no slack, so the
    # one-path bound keeps every chord the exact column keeps. The integer
    # tables tie paths exactly. The chord and bass transitions are finite,
    # so that stage 3's bound holds in every row and the one path, which
    # takes each row's best slot, reaches every target bass.
    rng = np.random.default_rng(36)
    frames = subsets = below = 0
    for trial in range(12):
        n_keys, n_chords, n_bass = rng.choice([(3, 12, 3), (4, 20, 2), (2, 16, 4)])
        tables, _ = random_log_tables(rng, n_keys, n_chords, n_bass, 6, slot_cap=2)
        tables.lf[rng.random(tables.lf.shape) < 0.3] = -np.inf
        if kind == "integer":
            _integer_log_tables(tables, rng)
            tables.emis_c[:] = -rng.integers(1, 300, size=tables.emis_c.shape)
        else:
            tables.emis_c[:] = rng.normal(scale=100.0, size=tables.emis_c.shape)
        with stage_form("chord bound on"):
            layout = decode._layout(tables)
            v = _frame0_v(tables)
            for t in range(1, len(tables.emis_c)):
                prev = layout.first if t == 1 else layout.rest
                if len(prev.pred) and prev.pred.shape[1] > 1:
                    c, exact, want = _exact_column_bound(layout, prev, v)
                    one = decode._one_path(prev, v, c)
                    assert one.shape == exact.shape and np.all(one <= exact), f"trial {trial}, frame {t}"
                    below += np.count_nonzero(one < exact)
                    kept = decode._chord_bound(layout, prev, v)
                    if want is None or len(want) == n_chords:
                        assert kept is None, f"trial {trial}, frame {t}"
                    elif kept is not None:
                        assert set(want.tolist()) <= set(kept[3].tolist()), f"trial {trial}, frame {t}"
                        subsets += 1
                    frames += 1
                v = decode._step(layout, v, t)[0]
    assert subsets >= frames // 2 > 0 and below > 0, (subsets, frames, below)


@pytest.mark.parametrize("seed", range(3))
def test_subset_stage2_equals_rank_form_bit_for_bit(seed):
    # `_stages12` runs stage 2 over the last axis of (N, L, D), each column's
    # predecessor rows; on chord subsets its maxima and rows equal the dense
    # rank form's bit for bit, with keys of fewer predecessors than the
    # widest (-inf padding, D < Kp), a chord dead in v (dead columns, which
    # take the key's first predecessor) and integer tables and v, whose rows
    # tie exactly (the lowest maximizing row wins).
    rng = np.random.default_rng(37 + seed)
    padded = dead = tied = 0
    for trial in range(8):
        tables = _wide_integer_tables(rng, 5, 8, 6, 2, 3)
        layout = decode._layout(tables)
        for prev in (layout.first, layout.rest):
            if len(prev.pred) == 0 or prev.pred.shape[1] == 1:
                continue
            v = -rng.integers(1, 4, size=(len(prev.keys), *prev.slots.shape)).astype(float)
            gone = rng.integers(len(prev.slots))
            v[:, gone] = -np.inf
            chords = np.union1d(rng.choice(len(prev.slots), size=rng.integers(1, 4), replace=False), [gone])
            stage_k, from_row, from_s = decode._stages12(layout, prev, v, chords)
            shape = (len(prev.keys), len(prev.lh_g), len(chords), v.shape[-1])
            sub = prev._replace(lh_g=prev.lh_g[:, chords], starts=decode._row_starts(shape), dense_s=True)
            stage_b, want_s, _ = decode._stage1(sub, v[:, chords])
            with stage_form("dense"):
                want_k, want_rows = decode._stage2(layout, sub, stage_b)
            assert stage_k.shape == want_k.shape and stage_k.tobytes() == want_k.tobytes(), f"trial {trial}"
            assert from_row.dtype == want_rows.dtype and np.array_equal(from_row, want_rows), f"trial {trial}"
            assert np.array_equal(from_s, want_s), f"trial {trial}"
            sums = stage_b.take(prev.pred, axis=0) + prev.lf_pred  # (L, D, U, n)
            padded += np.count_nonzero(prev.lf_pred == -np.inf)
            dead += np.count_nonzero(want_k == -np.inf)
            tied += np.count_nonzero((sums == want_k[:, None]).sum(axis=1)[want_k > -np.inf] > 1)
    assert padded > 0 and dead > 0 and tied > 0, (padded, dead, tied)


def _delta_reference(x):
    """`decode._delta` as one reduction of the 4-D difference tensor."""
    with np.errstate(invalid="ignore"):
        return np.fmax.reduce(x[..., None, :] - x[..., None], axis=0, initial=-np.inf)


@pytest.mark.parametrize("seed", range(4))
def test_delta_equals_4d_reduction_bit_for_bit(seed):
    # the drop tables of both stage-1 layouts and of stage 2's lf_rows, on
    # tables with -inf entries (whose differences are NaN or +inf), and a
    # table of a free full121 decode's stage-1 shape, whose first axis
    # takes several blocks
    rng = np.random.default_rng(seed)
    tables, _ = random_log_tables(rng, 4, 5, 4, T=3, sparsity=0.4, slot_cap=3)
    layout = decode._layout(tables)
    for prev in (layout.first, layout.rest):
        assert np.isneginf(prev.lh_g).any() and np.isneginf(prev.lf_rows).any()
        want_s = _delta_reference(prev.lh_g).reshape(-1, prev.slots.shape[1])
        assert prev.delta_s.tobytes() == want_s.tobytes()
        assert prev.delta.tobytes() == _delta_reference(prev.lf_rows).tobytes()
    wide = np.where(rng.random((13, 121, 13)) < 0.4, -np.inf, rng.normal(size=(13, 121, 13)))
    assert decode._DELTA_ELEMENTS // (wide[0].size * wide.shape[-1]) < len(wide) / 2  # rows a block
    assert decode._delta(wide).tobytes() == _delta_reference(wide).tobytes()


@pytest.mark.parametrize(
    ("constraints", "fused"),
    [(Constraints(), False), (Constraints(tau=3), False), (Constraints(gamma=0, tau=3, cac=True), True)],
    ids=["free", "tau3", "tight"],
)
def test_only_tight_decodes_fuse_stages_2_and_3(constraints, fused):
    # At the default budgets a tight layout (one predecessor per key) takes
    # the fused step on every frame; a free or tau-only full121 one stays
    # staged.
    model, treble, bass = _fallback_tie_case()
    layout = decode._layout(decode._build_tables(model, constraints, treble, bass))
    assert (layout.first.fused is not None, layout.rest.fused is not None) == (fused, fused)


def test_gamma_only_staged_one_predecessor_pinned():
    # The model's songs stay in C and G, so under gamma=0 each of the two
    # live keys has itself as its one predecessor (D = 1), but the fused
    # table (2 x 121 x 13 x 121) is over its budget: stages 2 and 3 run
    # staged, stage 2 dense. Values recorded before stage 2 lost its
    # one-predecessor branch.
    model, treble, bass = _fallback_tie_case()
    constraints = Constraints(gamma=0)
    layout = decode._layout(decode._build_tables(model, constraints, treble, bass))
    assert layout.live.tolist() == [0, 7]
    for prev in (layout.first, layout.rest):
        assert prev.fused is None and prev.pred.shape[1] == 1
    path = viterbi_joint(model, constraints, treble, bass)
    assert path.keys.tolist() == [0] * 12
    assert path.chords.tolist() == [1] * 4 + [7] * 4 + [1] * 4
    assert path.basses.tolist() == [1] * 4 + [7] * 4 + [1] * 4
    assert repr(path.log_prob) == "173.081805782094"


def _frame_model_case():
    """The acceptance suite's full121 frame model and a 30-frame song of it,
    whose chord-only first pass keeps six chords."""
    from test_acceptance import _frame_song, _full121_frame_model

    rng = np.random.default_rng(2025)
    model, a121, vocab = _full121_frame_model(rng)
    treble, bass, _, _ = _frame_song(rng, vocab, a121, 30)
    return model, treble, bass


@pytest.mark.parametrize(
    ("case", "constraints", "cells", "rows", "default_rows"),
    [
        (_fallback_tie_case, Constraints(), (24, 121, 13), (24, 13), True),
        (_fallback_tie_case, Constraints(tau=3), (24, 121, 3), (24, 7), True),
        (_fallback_tie_case, Constraints(gamma=0, tau=3, cac=True), (2, 3, 3), (2, 5), False),
        (_frame_model_case, Constraints(cac=True), (24, 6, 13), (24, 13), True),
    ],
    ids=["free", "tau3", "tight", "cac"],
)
def test_backpointer_format_pinned(case, constraints, cells, rows, default_rows):
    # Each frame's backpointers are uint16 flat (row, chord, slot) indices in
    # the previous v. Where stage 3 keeps one previous chord per (live key,
    # target bass) row, the row's cells share one entry: (L, U), 624 bytes a
    # free full121 frame. The pruned form does so here (on the middle frames,
    # and on every tight and CAC-only frame), and so does the default rule on
    # the middle frames of the free and tau=3 decodes and on most frames of
    # the CAC-only one (six chords); the tight decode fuses. Every other
    # frame keeps one per (live key, chord, bass slot) cell: (L, Cw, S),
    # 75.5 KB a free full121 frame.
    model, treble, bass = case()
    tables = decode._build_tables(model, constraints, treble, bass)
    for form in (None, *STAGE_FORMS):
        shapes = set()
        with stage_form(form) if form else contextlib.nullcontext():
            layout = decode._layout(tables)
            v = _frame0_v(tables)
            for t in range(1, treble.n_frames):
                v, backptr = decode._step(layout, v, t)
                assert backptr.dtype == np.uint16 and backptr.shape in (cells, rows), f"frame {t}, {form}"
                shapes.add(backptr.shape)
        assert (rows in shapes) == (form == "pruned" or form is None and default_rows), form


@pytest.mark.parametrize(
    ("constraints", "max_bytes"), [(Constraints(), 12_000), (Constraints(tau=3), 2_000), (Constraints(cac=True), 2_000)]
)
def test_backpointer_bytes_per_frame_bounded(constraints, max_bytes):
    # On a 150-frame song of a trained full121 model, nearly every step of a
    # free, tau=3 or CAC-only decode keeps one previous chord per stage-3 row
    # and stores one backpointer a row, so the mean bytes stored a frame stay
    # far below the cell form's 75.5 KB (free), 17.4 KB (tau=3) and 8.7 KB
    # (CAC-only, 14 chords).
    from test_acceptance import _frame_song, _full121_frame_model

    rng = np.random.default_rng(2025)
    model, a121, vocab = _full121_frame_model(rng)
    treble, bass, _, _ = _frame_song(rng, vocab, a121, 150)
    tables = decode._build_tables(model, constraints, treble, bass)
    layout = decode._layout(tables)
    v, stored = _frame0_v(tables), 0
    for t in range(1, treble.n_frames):
        v, backptr = decode._step(layout, v, t)
        stored += backptr.nbytes
    assert stored / (treble.n_frames - 1) <= max_bytes


class TestForwardBackwardEdge:
    def test_dead_frame_raises(self):
        hmm = ChordOnlyHmm(
            np.array([0.0, 0.0]),
            np.full((2, 2), 0.5),
            np.zeros((2, 2)),
            np.tile(np.eye(2), (2, 1, 1)),
        )
        with pytest.raises(ValueError, match="frame 0"):
            forward_backward(hmm, np.zeros((3, 2)))

    def test_unreachable_dominant_state_does_not_underflow(self):
        # State 2 is unreachable, yet at frames 1 and 2 its emission beats
        # the others by 1250 nats: a scaled pass that rescales by each
        # emission row's max underflows every reachable state there.
        # (brute_force_posteriors underflows to NaN on this input.)
        hmm = ChordOnlyHmm(
            np.array([0.5, 0.5, 0.0]),
            np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
            np.tile(np.eye(2) * 0.0005, (3, 1, 1)),
        )
        obs = np.array([[0.0, 0.0], [0.5, 1.0], [0.5, 1.0], [1.0, 0.0]])
        expected = [[1, 0, 0], [0.663934, 0.336066, 0], [0.336066, 0.663934, 0], [0, 1, 0]]
        post = forward_backward(hmm, obs)
        np.testing.assert_allclose(post, expected, rtol=0, atol=1e-6)
        assert post.tobytes() == _forward_backward_indexed(hmm, obs).tobytes()
