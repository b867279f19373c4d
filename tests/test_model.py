import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    chord_trans_for_key,
    make_chromagram,
    make_frame_labels,
    shift_chord,
    stdout_at_one_and_two_blas_threads,
    synthetic_frames,
    transpose_labels,
)
from hypothesis import given, settings, strategies as st

from chordscribe.annotations import N_BASS, N_KEYS, UNLABELED, chord_pitch_classes, make_alphabet
from chordscribe.model import (
    _SCHEMA,
    ChordOnlyHmm,
    HpModel,
    ModelFormatError,
    TrainConfig,
    _normalize_rows,
    gaussian_logpdf_frames,
    load_model,
    save_model,
    train,
)

A25 = make_alphabet("majmin25")

# A model trained on three 6,000-frame songs of a few states, so each
# covariance product `centered.T @ centered` runs over thousands of frames.
TRAIN_HASH = """
import hashlib, os, tempfile
import numpy as np
from chordscribe.annotations import FrameLabels
from chordscribe.chroma import Chromagram
from chordscribe.model import TrainConfig, save_model, train
rng = np.random.default_rng(6)
songs = []
for _ in range(3):
    t = np.arange(6000) * 0.5
    labels = FrameLabels(rng.integers(0, 2, t.size), rng.integers(0, 3, t.size), rng.integers(0, 3, t.size), t, t + 0.5)
    songs.append((Chromagram(rng.random((12, t.size)), t, t + 0.5, "treble"),
                  Chromagram(rng.random((12, t.size)), t, t + 0.5, "bass"), labels))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.txt")
    save_model(train(songs, TrainConfig(alphabet="full121")), path)
    print(hashlib.sha256(open(path, "rb").read()).hexdigest())
"""


def test_model_bytes_equal_at_one_and_two_blas_threads():
    one, two = stdout_at_one_and_two_blas_threads(TRAIN_HASH)
    assert one == two


def gaussian_logpdf(x, mean, cov) -> float:
    """Exact multivariate normal log density of one frame, the scalar
    reference for gaussian_logpdf_frames. Raises on a covariance that is
    not symmetric positive definite."""
    from scipy.linalg import cho_factor, cho_solve

    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    try:
        factor = cho_factor(cov, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not positive definite") from exc
    d = mean.size
    diff = x - mean
    maha = float(diff @ cho_solve(factor, diff))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def _reference_gaussians(frames_per_state, dim, epsilon, state_names, warnings_out):
    """_fit_gaussians over one list of frame rows per state."""
    n = len(frames_per_state)
    means = np.full((n, dim), 0.5)
    covs = np.tile(0.1 * np.eye(dim), (n, 1, 1))
    for s, rows in enumerate(frames_per_state):
        if len(rows) == 0:
            warnings_out.append(f"no emission observations for {state_names(s)}")
            continue
        x = np.asarray(rows)
        means[s] = x.mean(axis=0)
        centered = x - means[s]
        covs[s] = centered.T @ centered / x.shape[0] + epsilon * np.eye(dim)
    return means, covs


def reference_train(dataset, cfg: TrainConfig) -> HpModel:
    """train as a per-song, per-frame loop with one UNLABELED check per
    count, transposing chords one state at a time: the reference for the
    array form."""
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty training dataset")
    alphabet = make_alphabet(cfg.alphabet)
    n_chords = alphabet.size

    init_key_c = np.zeros(N_KEYS)
    init_chord_c = np.zeros(n_chords)
    init_bass_c = np.zeros(N_BASS)
    key_c = np.zeros((N_KEYS, N_KEYS))
    rel_c = np.zeros((2, n_chords, n_chords))
    bc_c = np.zeros((n_chords, N_BASS))
    bb_c = np.zeros((N_BASS, N_BASS))
    cac_c = np.zeros((n_chords, n_chords))

    chord_frames = [[] for _ in range(n_chords)]
    bass_frames = [[] for _ in range(N_BASS)]
    cac_frames = [[] for _ in range(n_chords)]

    for treble, bass_ch, labels in dataset:
        t_frames = treble.values.T
        b_frames = bass_ch.values.T
        if not (len(labels) == t_frames.shape[0] == b_frames.shape[0]):
            raise ValueError("label/chromagram frame counts differ")
        k, c, b = labels.key, labels.chord, labels.bass
        joint = np.concatenate([t_frames, b_frames], axis=1)

        if k[0] != UNLABELED:
            init_key_c[k[0]] += 1
        if c[0] != UNLABELED:
            init_chord_c[c[0]] += 1
        if b[0] != UNLABELED:
            init_bass_c[b[0]] += 1

        for t in range(1, len(labels)):
            if k[t - 1] != UNLABELED and k[t] != UNLABELED:
                key_c[k[t - 1], k[t]] += 1
            if c[t - 1] != UNLABELED and c[t] != UNLABELED:
                cac_c[c[t - 1], c[t]] += 1
                if k[t] != UNLABELED:
                    tonic, mode = k[t] % 12, k[t] // 12
                    prev, cur = shift_chord(alphabet, c[t - 1], -tonic), shift_chord(alphabet, c[t], -tonic)
                    rel_c[mode, prev, cur] += 1
            if c[t] != UNLABELED and b[t] != UNLABELED:
                bc_c[c[t], b[t]] += 1
            if b[t - 1] != UNLABELED and b[t] != UNLABELED:
                bb_c[b[t - 1], b[t]] += 1

        for t in range(len(labels)):
            if c[t] != UNLABELED:
                chord_frames[c[t]].append(t_frames[t])
                cac_frames[c[t]].append(joint[t])
            if b[t] != UNLABELED:
                bass_frames[b[t]].append(b_frames[t])

    warnings: list[str] = []
    chord_mean, chord_cov = _reference_gaussians(chord_frames, 12, cfg.epsilon, alphabet.label_at, warnings)
    bass_mean, bass_cov = _reference_gaussians(bass_frames, 12, cfg.epsilon, lambda s: f"bass {s}", warnings)
    cac_mean, cac_cov = _reference_gaussians(
        cac_frames, 24, cfg.epsilon, lambda s: f"{alphabet.label_at(s)} (chord-only)", warnings
    )

    return HpModel(
        alphabet=alphabet,
        init_key=_normalize_rows(init_key_c, cfg.alpha),
        init_chord=_normalize_rows(init_chord_c, cfg.alpha),
        init_bass=_normalize_rows(init_bass_c, cfg.alpha),
        key_trans=_normalize_rows(key_c, cfg.alpha),
        chord_trans_rel=_normalize_rows(rel_c, cfg.alpha),
        bass_given_chord=_normalize_rows(bc_c, cfg.alpha),
        bass_trans=_normalize_rows(bb_c, cfg.alpha),
        chord_emis_mean=chord_mean,
        chord_emis_cov=chord_cov,
        bass_emis_mean=bass_mean,
        bass_emis_cov=bass_cov,
        key_trans_counts=key_c,
        chord_bass_counts=bc_c,
        cac=ChordOnlyHmm(
            init=_normalize_rows(init_chord_c, cfg.alpha),
            trans=_normalize_rows(cac_c, cfg.alpha),
            means=cac_mean,
            covs=cac_cov,
        ),
        train_warnings=warnings,
    )


def fixture_dataset(alpha_kind="majmin25"):
    """Two short songs with hand-checkable counts (alpha=0 oracle below)."""
    # song A in C major: C C G G C; bass walks through G's third once
    chords_a = [0, 0, 7, 7, 0]
    bass_a = [0, 0, 7, 11, 0]
    keys_a = [0] * 5
    # song B in G major: G C C G
    chords_b = [7, 0, 0, 7]
    bass_b = [7, 0, 0, 7]
    keys_b = [7] * 4
    rng = np.random.default_rng(42)
    songs = []
    for chords, bass, keys in ((chords_a, bass_a, keys_a), (chords_b, bass_b, keys_b)):
        t, b = synthetic_frames(chords, bass, alpha_kind, rng=rng)
        songs.append(
            (
                make_chromagram(t),
                make_chromagram(b, band="bass"),
                make_frame_labels(keys, chords, bass),
            )
        )
    return songs


@pytest.fixture(scope="module")
def model():
    return train(fixture_dataset(), TrainConfig(alphabet="majmin25", alpha=0.0))


class TestMleTables:

    def test_initial_chord(self, model):
        # first chords C:maj and G:maj
        expect = np.zeros(25)
        expect[0] = expect[7] = 0.5
        np.testing.assert_array_equal(model.init_chord, expect)

    def test_initial_key_and_bass(self, model):
        assert model.init_key[0] == model.init_key[7] == 0.5
        assert model.init_bass[0] == model.init_bass[7] == 0.5

    def test_key_transitions_hand_count(self, model):
        assert model.key_trans[0, 0] == 1.0
        assert model.key_trans[7, 7] == 1.0
        assert model.key_trans_counts[0, 0] == 4
        assert model.key_trans_counts[7, 7] == 3

    def test_relative_chord_rows_hand_count(self, model):
        major = model.chord_trans_rel[0]
        # key-relative pairs: A gives (I,I),(I,V),(V,V),(V,I); B adds
        # (I,IV),(IV,IV),(IV,I) after shifting G major onto C
        np.testing.assert_allclose(major[0, [0, 5, 7]], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(major[7, [0, 7]], [0.5, 0.5])
        np.testing.assert_allclose(major[5, [0, 5]], [0.5, 0.5])
        assert major[0].sum() == pytest.approx(1.0)

    def test_bass_tables_hand_count(self, model):
        np.testing.assert_allclose(model.bass_given_chord[0, 0], 1.0)
        np.testing.assert_allclose(model.bass_given_chord[7, [7, 11]], [2 / 3, 1 / 3])
        np.testing.assert_allclose(model.bass_trans[0, [0, 7]], [0.5, 0.5])
        np.testing.assert_allclose(model.bass_trans[11, 0], 1.0)
        assert model.chord_bass_counts[7, 11] == 1

    def test_chord_only_transitions_untransposed(self, model):
        np.testing.assert_allclose(model.cac.trans[0, [0, 7]], [0.5, 0.5])
        np.testing.assert_allclose(model.cac.trans[7, [0, 7]], [2 / 3, 1 / 3])

    def test_key_dependent_transition_expansion(self, model):
        # under G major, the relative (V, I) cell surfaces as D:maj -> G:maj
        table_g = chord_trans_for_key(model, 7)
        major = model.chord_trans_rel[0]
        assert table_g[2, 7] == major[7, 0]
        assert table_g[0, 0] == major[5, 5]

    def test_keyed_transposition_identity(self):
        # G->C under C major and A->D under D major hit the same relative cell
        rng = np.random.default_rng(1)
        songs = []
        for chords, keys in (([7, 0], [0, 0]), ([9, 2], [2, 2])):
            bass = [c % 12 for c in chords]
            t, b = synthetic_frames(chords, bass, rng=rng)
            songs.append(
                (make_chromagram(t), make_chromagram(b, "bass"), make_frame_labels(keys, chords, bass))
            )
        m = train(songs, TrainConfig(alpha=0.0))
        assert m.chord_trans_rel[0][7, 0] == 1.0  # V -> I in major, twice


class TestTrainValidation:
    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train([], TrainConfig())

    def test_misaligned_frames(self):
        t, b = synthetic_frames([0, 0], [0, 0])
        labels = make_frame_labels([0, 0, 0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            train([(make_chromagram(t), make_chromagram(b, "bass"), labels)], TrainConfig())

    @pytest.mark.parametrize("field, last", [("key", N_KEYS - 1), ("chord", 24), ("bass", N_BASS - 1)])
    def test_states_past_the_last_name_song_and_frame(self, field, last):
        songs = []
        for song in range(2):
            states = {name: [0, 0, UNLABELED] for name in ("key", "chord", "bass")}
            if song == 1:
                states[field] = [0, last, last + 1]
            t, b = synthetic_frames([0, 0, 0], [0, 0, 0])
            labels = make_frame_labels(states["key"], states["chord"], states["bass"])
            songs.append((make_chromagram(t), make_chromagram(b, "bass"), labels))
        msg = rf"^song 1: {field} state {last + 1} at frame 2 exceeds the last, {last}$"
        with pytest.raises(ValueError, match=msg):
            train(songs, TrainConfig(alphabet="majmin25"))

    def test_unseen_states_reported_and_usable(self):
        m = train(fixture_dataset(), TrainConfig(alpha=0.1))
        assert any("no emission observations" in w for w in m.train_warnings)
        unseen = 3  # D#:maj never occurs
        np.testing.assert_allclose(m.chord_emis_mean[unseen], 0.5)
        np.testing.assert_allclose(m.chord_emis_cov[unseen], 0.1 * np.eye(12))

    def test_row_stochastic_with_smoothing(self):
        m = train(fixture_dataset(), TrainConfig(alpha=0.1))
        for table in (m.key_trans, m.bass_trans, m.bass_given_chord, m.cac.trans):
            np.testing.assert_allclose(table.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(m.chord_trans_rel.sum(axis=-1), 1.0, atol=1e-9)
        for vec in (m.init_key, m.init_chord, m.init_bass):
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unlabeled_frames_excluded(self):
        t, b = synthetic_frames([0, 0, 7], [0, 0, 7])
        labels = make_frame_labels([0, -1, 0], [0, -1, 7], [0, -1, 7])
        m = train([(make_chromagram(t), make_chromagram(b, "bass"), labels)], TrainConfig(alpha=0.0))
        # no chord transition has both endpoints labeled
        assert m.chord_trans_rel.sum() == 0.0
        assert m.key_trans_counts.sum() == 0.0

    def test_emission_means_match_templates(self):
        m = train(fixture_dataset(), TrainConfig(alpha=0.0))
        for state in (0, 7):
            pcs = chord_pitch_classes(A25.symbol_at(state))
            top3 = set(np.argsort(m.chord_emis_mean[state])[-3:].tolist())
            assert top3 == pcs


class TestTransposition:
    def test_shift_zero_is_identity(self):
        fl = make_frame_labels([0, 7], [0, 7], [0, 7])
        out = transpose_labels(fl, 0, A25)
        np.testing.assert_array_equal(out.chord, fl.chord)
        np.testing.assert_array_equal(out.key, fl.key)

    def test_shift_three(self):
        from chordscribe.annotations import parse_chord_symbol

        a121 = make_alphabet("full121")
        fl = make_frame_labels([9], [a121.index_of(parse_chord_symbol("A:maj/3"))], [1])
        out = transpose_labels(fl, 3, a121)
        assert out.chord[0] == a121.index_of(parse_chord_symbol("C:maj/3"))
        assert out.bass[0] == 4
        assert out.key[0] == 0

    def test_no_bass_and_unlabeled_fixed(self):
        fl = make_frame_labels([-1], [24], [12])
        out = transpose_labels(fl, 5, A25)
        assert out.key[0] == -1 and out.chord[0] == 24 and out.bass[0] == 12

    def test_training_equivariance(self):
        cfg = TrainConfig(alpha=0.0)
        base = fixture_dataset()
        shifted = [(t, b, transpose_labels(fl, 3, A25)) for t, b, fl in base]
        m0 = train(base, cfg)
        m3 = train(shifted, cfg)
        np.testing.assert_allclose(m0.chord_trans_rel, m3.chord_trans_rel, atol=1e-12)
        # key/bass tables are permutations by the relabeling
        perm_k = np.array([(k + 3) % 12 + 12 * (k // 12) for k in range(24)])
        np.testing.assert_allclose(m3.key_trans[np.ix_(perm_k, perm_k)], m0.key_trans)
        np.testing.assert_allclose(m3.init_key[perm_k], m0.init_key)
        perm_b = np.array([(b + 3) % 12 for b in range(12)] + [12])
        np.testing.assert_allclose(m3.bass_trans[np.ix_(perm_b, perm_b)], m0.bass_trans)
        np.testing.assert_allclose(m3.init_bass[perm_b], m0.init_bass)


class TestKeyShiftTable:
    @pytest.mark.parametrize("kind", ["majmin25", "full121"])
    def test_chord_trans_for_key_matches_shift(self, kind):
        m = train(fixture_dataset(kind), TrainConfig(alphabet=kind))
        m.chord_trans_rel = np.random.default_rng(4).random(m.chord_trans_rel.shape)
        a = m.alphabet
        for k in range(24):
            # the construction from shift_chord, one chord state at a time
            perm = np.array([shift_chord(a, c, -(k % 12)) for c in range(a.size)])
            want = m.chord_trans_rel[k // 12][np.ix_(perm, perm)]
            assert np.array_equal(chord_trans_for_key(m, k), want)
            assert np.array_equal(a.key_shift_table()[k], perm)

    def test_built_once_per_alphabet_and_read_only(self):
        table = make_alphabet("full121").key_shift_table()
        assert table is make_alphabet("full121").key_shift_table()
        assert table is not A25.key_shift_table()
        with pytest.raises(ValueError):
            table[0, 0] = 5


class TestGaussianLogpdf:
    def test_identity_cov_at_mode(self):
        mean = np.zeros(12)
        assert gaussian_logpdf(mean, mean, np.eye(12)) == pytest.approx(-6.0 * math.log(2 * math.pi))

    def test_monte_carlo_unit_mass(self):
        rng = np.random.default_rng(2024)
        mean = rng.random(12)
        a = rng.standard_normal((12, 12)) * 0.2
        cov = a @ a.T + np.eye(12) * 0.5
        # importance sampling with an inflated-proposal Gaussian
        prop_cov = cov * 2.0
        chol = np.linalg.cholesky(prop_cov)
        xs = mean + rng.standard_normal((100_000, 12)) @ chol.T
        logq = gaussian_logpdf_frames(xs, mean[None, :], prop_cov[None, :, :])[:, 0]
        logp = gaussian_logpdf_frames(xs, mean[None, :], cov[None, :, :])[:, 0]
        mass = float(np.mean(np.exp(logp - logq)))
        assert mass == pytest.approx(1.0, rel=0.02)

    def test_covariance_scaling_identity(self):
        mean = np.full(12, 0.3)
        cov = np.eye(12) * 0.7
        base = gaussian_logpdf(mean, mean, cov)
        scaled = gaussian_logpdf(mean, mean, cov * 4.0)
        assert base - scaled == pytest.approx(12 * math.log(2.0))

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            gaussian_logpdf(np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_frames_matches_scalar(self):
        rng = np.random.default_rng(5)
        mean = rng.random(12)
        a = rng.standard_normal((12, 12)) * 0.1
        cov = a @ a.T + np.eye(12) * 0.3
        xs = rng.random((4, 12))
        mat = gaussian_logpdf_frames(xs, mean[None, :], cov[None, :, :])
        for i in range(4):
            assert mat[i, 0] == pytest.approx(gaussian_logpdf(xs[i], mean, cov), abs=1e-10)

    @pytest.mark.parametrize("d", [12, 24])
    def test_ill_conditioned_matches_scalar(self, d):
        # Covariances with condition number 1e8. On frames drawn from each
        # Gaussian the product with its inverted Cholesky factor stays within
        # 1e-9 of the scalar reference (observed: 3e-11 over 30 seeds). Far
        # out along the narrow directions (chroma-like frames, Mahalanobis
        # terms near 1e8) both sides err by about 3e-10 against an exact
        # rational value, as the factor bounds them, so those get 1e-8.
        rng = np.random.default_rng(40 + d)
        means, covs = rng.random((3, d)), np.empty((3, d, d))
        for s in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            covs[s] = (q * np.logspace(-1, -9, d)) @ q.T
            covs[s] = (covs[s] + covs[s].T) / 2
        assert np.linalg.cond(covs).min() > 0.5e8
        near = [means[s] + rng.standard_normal((4, d)) @ np.linalg.cholesky(covs[s]).T for s in range(3)]
        xs = np.vstack([*near, rng.random((4, d))])
        mat = gaussian_logpdf_frames(xs, means, covs)
        for s in range(3):
            ref = np.array([gaussian_logpdf(x, means[s], covs[s]) for x in xs])
            own = slice(4 * s, 4 * s + 4)
            np.testing.assert_allclose(mat[own, s], ref[own], rtol=1e-9, atol=0)
            np.testing.assert_allclose(mat[:, s], ref, rtol=1e-8, atol=0)

    @staticmethod
    def _states_with_repeats(rng):
        """Six states, rows 1, 3 and 5 sharing one Gaussian (like untrained
        states sharing the fallback) and rows 0 and 4 another."""
        means = rng.random((6, 12))
        a = rng.standard_normal((6, 12, 12)) * 0.1
        covs = a @ a.transpose(0, 2, 1) + np.eye(12) * 0.3
        for dst, src in ((3, 1), (5, 1), (4, 0)):
            means[dst], covs[dst] = means[src], covs[src]
        return means, covs

    def test_equal_states_get_equal_bits(self):
        rng = np.random.default_rng(8)
        means, covs = self._states_with_repeats(rng)
        xs = rng.random((7, 12))
        mat = gaussian_logpdf_frames(xs, means, covs)
        for dst, src in ((3, 1), (5, 1), (4, 0)):
            assert mat[:, dst].tobytes() == mat[:, src].tobytes()
        for s in range(6):
            # each column is the one-state evaluation, bit for bit
            alone = gaussian_logpdf_frames(xs, means[s : s + 1], covs[s : s + 1])
            assert mat[:, s].tobytes() == alone[:, 0].tobytes()
            for i in range(7):
                assert mat[i, s] == pytest.approx(gaussian_logpdf(xs[i], means[s], covs[s]), abs=1e-10)

    def test_mutated_covariance_is_reevaluated(self):
        rng = np.random.default_rng(9)
        means, covs = self._states_with_repeats(rng)
        xs = rng.random((5, 12))
        before = gaussian_logpdf_frames(xs, means, covs)
        for s in (1, 3):
            # in place, so a cache keyed on the array object would go stale;
            # row 1 is the row its group was evaluated at, row 3 is not
            covs[s] *= 2.0
            after = gaussian_logpdf_frames(xs, means, covs)
            assert not np.array_equal(after[:, s], before[:, s])
            for i in range(5):
                assert after[i, s] == pytest.approx(gaussian_logpdf(xs[i], means[s], covs[s]), abs=1e-10)
            np.testing.assert_array_equal(np.delete(after, s, axis=1), np.delete(before, s, axis=1))
            before = after

    def test_bad_shared_covariance_names_its_first_row(self):
        means, covs = self._states_with_repeats(np.random.default_rng(10))
        for s in (1, 3, 5):
            covs[s] = -np.eye(12)
        with pytest.raises(ValueError, match="covariance of row 1 is not positive definite"):
            gaussian_logpdf_frames(np.zeros((2, 12)), means, covs, lambda s: f"row {s}")

    def test_non_finite_gaussian_names_its_row(self):
        means, covs = self._states_with_repeats(np.random.default_rng(12))
        covs[2, 0, 5] = np.nan  # the upper triangle, which the factorization never reads
        with pytest.raises(ValueError, match="mean or covariance of row 2 is not finite"):
            gaussian_logpdf_frames(np.zeros((2, 12)), means, covs, lambda s: f"row {s}")
        covs[2, 0, 5] = covs[2, 5, 0]
        means[4, 3] = np.inf
        with pytest.raises(ValueError, match="mean or covariance of state 4 is not finite"):
            gaussian_logpdf_frames(np.zeros((2, 12)), means, covs)
        with pytest.raises(ValueError, match="frames must be finite"):
            gaussian_logpdf_frames(np.full((2, 12), np.nan), means[:1], covs[:1])


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        m = train(fixture_dataset(), TrainConfig(alpha=0.1))
        p = tmp_path / "model.txt"
        save_model(m, p)
        back = load_model(p)
        assert back.alphabet.kind == m.alphabet.kind
        np.testing.assert_array_equal(back.key_trans, m.key_trans)
        np.testing.assert_array_equal(back.chord_trans_rel, m.chord_trans_rel)
        np.testing.assert_array_equal(back.chord_emis_cov, m.chord_emis_cov)
        np.testing.assert_array_equal(back.key_trans_counts, m.key_trans_counts)
        np.testing.assert_array_equal(back.cac.covs, m.cac.covs)
        # byte-identical re-save
        p2 = tmp_path / "model2.txt"
        save_model(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        m = train(fixture_dataset(), TrainConfig())
        p = tmp_path / "model.txt"
        save_model(m, p)
        text = p.read_text().splitlines()
        (tmp_path / "trunc.txt").write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "trunc.txt")

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("someone-elses-model v9\n")
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "nope.txt")


@st.composite
def labelled_songs(draw, max_songs=3, labels=st.integers):
    """An alphabet and one to max_songs songs of random frames, every label
    possibly UNLABELED (-1); labels(-1, n - 1) draws one label of n
    states."""
    kind = draw(st.sampled_from(["majmin25", "full121"]))
    size = make_alphabet(kind).size
    frame = st.tuples(labels(-1, 23), labels(-1, size - 1), labels(-1, 12))
    songs = draw(st.lists(st.lists(frame, min_size=1, max_size=12), min_size=1, max_size=max_songs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = []
    for song in songs:
        keys, chords, basses = zip(*song)
        dataset.append(
            (
                make_chromagram(rng.random((len(song), 12))),
                make_chromagram(rng.random((len(song), 12)), "bass"),
                make_frame_labels(keys, chords, basses),
            )
        )
    return kind, dataset


@settings(max_examples=12, deadline=None)
@given(labelled_songs(), st.sampled_from([0.0, 0.1, 1.0]))
def test_trained_model_roundtrip_byte_identical(songs, alpha):
    kind, dataset = songs
    m = train(dataset, TrainConfig(alphabet=kind, alpha=alpha))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        save_model(m, first)
        back = load_model(first)
        save_model(back, second)
        assert first.read_bytes() == second.read_bytes()
    assert back.alphabet == m.alphabet
    np.testing.assert_array_equal(back.cac.covs, m.cac.covs)


def _often_unlabeled(lo, hi):
    """Labels that are UNLABELED about half the time, so unlabeled frames
    fall at song starts and ends and between labeled ones."""
    return st.just(lo) | st.integers(lo + 1, hi)


@settings(max_examples=60, deadline=None)
@given(labelled_songs(max_songs=4, labels=_often_unlabeled), st.sampled_from([0.0, 0.1]))
def test_train_matches_per_frame_reference(songs, alpha):
    kind, dataset = songs
    cfg = TrainConfig(alphabet=kind, alpha=alpha)
    got, want = train(dataset, cfg), reference_train(dataset, cfg)
    for name, _, _ in _SCHEMA:
        owner_got, owner_want = (m.cac if name.startswith("cac_") else m for m in (got, want))
        field = name.removeprefix("cac_")
        assert np.array_equal(getattr(owner_got, field), getattr(owner_want, field)), name
    assert got.train_warnings == want.train_warnings


class TestModelValidation:
    """Each rule load_model enforces, broken once in a saved file; the error
    must name the table and the line."""

    @pytest.fixture(scope="class")
    def saved(self):
        m = train(fixture_dataset(), TrainConfig(alpha=0.1))
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "model.txt"
            save_model(m, p)
            return p.read_text().splitlines()

    @staticmethod
    def header_line(lines, name):
        return next(i for i, line in enumerate(lines, 1) if line.startswith(f"table {name} "))

    @staticmethod
    def assert_rejected(tmp_path, lines, table, lineno, what=""):
        p = tmp_path / "model.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError) as err:
            load_model(p)
        msg = str(err.value)
        assert msg.startswith(f"{p}:{lineno}: "), msg
        assert table in msg and what in msg, msg

    def test_saved_file_loads(self, saved, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("\n".join(saved) + "\n")
        load_model(p)

    def test_relabeled_alphabet(self, tmp_path):
        m = train(fixture_dataset("full121"), TrainConfig(alphabet="full121"))
        p = tmp_path / "full.txt"
        save_model(m, p)
        lines = p.read_text().splitlines()
        assert lines[1] == "alphabet full121"
        lines[1] = "alphabet majmin25"
        self.assert_rejected(tmp_path, lines, "init_chord", self.header_line(lines, "init_chord"))

    def test_unknown_alphabet(self, saved, tmp_path):
        lines = [saved[0], "alphabet jazz7"] + saved[2:]
        self.assert_rejected(tmp_path, lines, "jazz7", 2)

    def test_wrong_dims(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "bass_trans")
        lines[at - 1] = "table bass_trans 13 12"
        self.assert_rejected(tmp_path, lines, "bass_trans", at)

    def test_unknown_table(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "bass_trans")
        lines[at - 1] = "table bass_trams 13 13"
        self.assert_rejected(tmp_path, lines, "bass_trans", at)

    def test_duplicate_table(self, saved, tmp_path):
        at = self.header_line(saved, "init_chord")
        init_key = saved[2 : at - 1]
        lines = saved[:2] + init_key + init_key + saved[at - 1 :]
        self.assert_rejected(tmp_path, lines, "init_chord", at)

    def test_missing_end_marker(self, saved, tmp_path):
        self.assert_rejected(tmp_path, saved[:-1], "end", len(saved))

    def test_nan_value(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "chord_emis_mean") + 3
        fields = lines[at - 1].split()
        fields[5] = "nan"
        lines[at - 1] = " ".join(fields)
        self.assert_rejected(tmp_path, lines, "chord_emis_mean", at, "non-finite")

    def test_probability_above_one(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "init_bass") + 2
        lines[at - 1] = "1.5"
        self.assert_rejected(tmp_path, lines, "init_bass", at, "outside [0, 1]")

    def test_row_sum_above_one(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "key_trans") + 5
        lines[at - 1] = " ".join(["0.5"] * 24)  # sums to 12
        self.assert_rejected(tmp_path, lines, "key_trans", at, "sum above 1")

    def test_all_zero_row_allowed(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "key_trans") + 5
        lines[at - 1] = " ".join(["0.0"] * 24)
        p = tmp_path / "model.txt"
        p.write_text("\n".join(lines) + "\n")
        assert load_model(p).key_trans[4].sum() == 0.0

    def test_negative_count(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "chord_bass_counts") + 1
        lines[at - 1] = " ".join(["-1.0"] + lines[at - 1].split()[1:])
        self.assert_rejected(tmp_path, lines, "chord_bass_counts", at, "negative count")

    def test_covariance_not_positive_definite(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "bass_emis_cov") + 2
        lines[at - 1] = " ".join(str(v) for v in (-np.eye(12)).ravel().tolist())
        self.assert_rejected(tmp_path, lines, "bass_emis_cov", at, "positive definite")

    def test_covariance_not_symmetric(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "cac_covs") + 1
        cov = np.eye(24)
        cov[0, 1] = 0.5
        lines[at - 1] = " ".join(str(v) for v in cov.ravel().tolist())
        self.assert_rejected(tmp_path, lines, "cac_covs", at, "not symmetric")

    def test_short_row(self, saved, tmp_path):
        lines = list(saved)
        at = self.header_line(lines, "cac_trans") + 1
        lines[at - 1] = " ".join(lines[at - 1].split()[:-1])
        self.assert_rejected(tmp_path, lines, "cac_trans", at, "25 numbers")
