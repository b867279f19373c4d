import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from chordscribe.annotations import make_intervals
from chordscribe.evaluate import (
    EvalReport,
    aggregate,
    bass_frame_accuracy,
    first_key,
    overlap_ratio,
    paired_t_test,
    predominant_key,
)


def predominant_key_accuracy(preds, gts) -> float:
    """Share of songs whose most prevalent predicted key equals the first
    ground-truth key."""
    preds, gts = list(preds), list(gts)
    if len(preds) != len(gts) or not preds:
        raise ValueError("need matching non-empty prediction/ground-truth lists")
    hits = sum(1 for p, g in zip(preds, gts) if predominant_key(p) == first_key(g))
    return hits / len(preds)


def iv(*records):
    return make_intervals(list(records))


def grid_overlap(pred, gt, mode, step=0.001):
    """Millisecond-sampling reference estimate of overlap_ratio."""
    from chordscribe.evaluate import _canonical, _interval_label

    t0, t1 = gt.span
    ts = np.arange(t0 + step / 2, t1, step)
    matched = total = 0
    for t in ts:
        g = _interval_label(gt, t)
        if g is None:
            continue
        total += 1
        p = _interval_label(pred, t)
        if p is not None and _canonical(g, mode) == _canonical(p, mode):
            matched += 1
    return matched / total


class TestOverlapRatio:
    def test_identical_files_score_one(self):
        a = iv((0.0, 2.0, "C:maj"), (2.0, 3.0, "N"))
        assert overlap_ratio(a, a, "majmin") == 1.0

    def test_partial_overlap_hand_computed(self):
        pred = iv((0.0, 10.0, "A:maj"))
        gt = iv((0.0, 6.0, "A:maj"), (6.0, 10.0, "N"))
        assert overlap_ratio(pred, gt, "majmin") == pytest.approx(0.6)

    def test_inversion_counts_under_noteset_not_exact(self):
        pred = iv((0.0, 1.0, "A:maj/3"))
        gt = iv((0.0, 1.0, "A:maj"))
        assert overlap_ratio(pred, gt, "exact") == 0.0
        assert overlap_ratio(pred, gt, "noteset") == 1.0

    def test_seventh_differs_under_noteset(self):
        pred = iv((0.0, 1.0, "A:maj7"))
        gt = iv((0.0, 1.0, "A:maj"))
        assert overlap_ratio(pred, gt, "noteset") == 0.0
        assert overlap_ratio(pred, gt, "majmin") == 1.0

    def test_missing_prediction_counts_wrong(self):
        pred = iv((0.0, 5.0, "C:maj"))
        gt = iv((0.0, 10.0, "C:maj"))
        assert overlap_ratio(pred, gt, "majmin") == pytest.approx(0.5)

    def test_prediction_outside_gt_ignored(self):
        pred = iv((0.0, 20.0, "C:maj"))
        gt = iv((5.0, 10.0, "C:maj"))
        assert overlap_ratio(pred, gt, "majmin") == 1.0

    def test_bass_mode(self):
        pred = iv((0.0, 1.0, "C:maj/3"))
        gt = iv((0.0, 1.0, "E:min"))
        assert overlap_ratio(pred, gt, "bass") == 1.0  # both bass E

    def test_key_mode(self):
        pred = iv((0.0, 1.0, "C:maj"))
        gt = iv((0.0, 1.0, "Key C"))
        assert overlap_ratio(pred, gt, "key") == 1.0

    def test_empty_gt_rejected(self):
        pred = iv((0.0, 1.0, "C:maj"))
        with pytest.raises(ValueError):
            overlap_ratio(pred, make_intervals([]), "majmin")

    def test_split_invariance(self):
        pred = iv((0.0, 1.3, "C:maj"), (1.3, 4.0, "G:maj"))
        gt_a = iv((0.0, 2.0, "C:maj"), (2.0, 4.0, "G:maj"))
        gt_b = iv((0.0, 1.0, "C:maj"), (1.0, 2.0, "C:maj"), (2.0, 3.3, "G:maj"), (3.3, 4.0, "G:maj"))
        assert overlap_ratio(pred, gt_a, "majmin") == pytest.approx(
            overlap_ratio(pred, gt_b, "majmin")
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_millisecond_grid(self, seed):
        rng = np.random.default_rng(seed)
        labels = ["C:maj", "G:maj", "A:min", "N"]

        def random_iv():
            edges = np.sort(rng.uniform(0, 10, size=rng.integers(2, 8)))
            edges = np.unique(np.round(edges, 3))
            if edges.size < 2:
                edges = np.array([0.0, 1.0])
            recs = [
                (float(a), float(b), str(rng.choice(labels)))
                for a, b in zip(edges[:-1], edges[1:])
            ]
            return make_intervals(recs)

        pred, gt = random_iv(), random_iv()
        exact = overlap_ratio(pred, gt, "majmin")
        sampled = grid_overlap(pred, gt, "majmin")
        assert exact == pytest.approx(sampled, abs=2e-3)


class TestAggregate:
    def test_equal_durations(self):
        assert aggregate([1.0, 0.0], [100.0, 100.0]) == (0.5, 0.5)

    def test_weighted_mean(self):
        or_, waor = aggregate([1.0, 0.0], [300.0, 100.0])
        assert or_ == 0.5
        assert waor == pytest.approx(0.75)

    def test_single_song(self):
        assert aggregate([0.7], [42.0]) == (0.7, pytest.approx(0.7))

    def test_waor_bounded_by_extremes(self):
        rng = np.random.default_rng(0)
        ratios = rng.random(10)
        _, waor = aggregate(ratios, rng.uniform(1, 100, 10))
        assert ratios.min() <= waor <= ratios.max()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])


class TestPredominantKey:
    def test_constant_correct_key(self):
        pred = iv((0.0, 10.0, "C:maj"))
        gt = iv((0.0, 10.0, "Key C"))
        assert predominant_key_accuracy([pred], [gt]) == 1.0

    def test_prevalence_by_duration(self):
        pred = iv((0.0, 6.0, "G:maj"), (6.0, 10.0, "C:maj"))
        gt = iv((0.0, 10.0, "C:maj"))
        assert predominant_key_accuracy([pred], [gt]) == 0.0
        assert predominant_key(pred) == 7

    def test_mean_over_songs(self):
        good = iv((0.0, 10.0, "C:maj"))
        bad = iv((0.0, 10.0, "D:maj"))
        gt = iv((0.0, 10.0, "C:maj"))
        assert predominant_key_accuracy([good, bad], [gt, gt]) == 0.5

    def test_gt_silence_skipped_for_first_key(self):
        gt = iv((0.0, 2.0, "Silence"), (2.0, 10.0, "Key E"))
        assert first_key(gt) == 4

    def test_missing_prediction_rejected(self):
        with pytest.raises(ValueError):
            predominant_key(iv((0.0, 1.0, "Silence")))


class TestBassFrameAccuracy:
    def test_identical(self):
        assert bass_frame_accuracy(np.array([0, 4, 7]), np.array([0, 4, 7])) == 1.0

    def test_disjoint(self):
        assert bass_frame_accuracy(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_three_of_four(self):
        assert bass_frame_accuracy(np.array([0, 4, 7, 2]), np.array([0, 4, 7, 3])) == 0.75

    def test_unlabeled_excluded(self):
        assert bass_frame_accuracy(np.array([0, 5]), np.array([0, -1])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bass_frame_accuracy(np.array([0]), np.array([0, 1]))


class TestPairedTTest:
    def test_hand_computed_example(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)
        ref = stats.ttest_rel([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert p == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.random(12)
            b = rng.random(12)
            t, p = paired_t_test(a, b)
            ref = stats.ttest_rel(a, b)
            assert t == pytest.approx(float(ref.statistic), abs=1e-10)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_symmetry(self):
        a = [0.5, 0.7, 0.2, 0.9]
        b = [0.4, 0.8, 0.1, 0.5]
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t1 == pytest.approx(-t2)
        assert p1 == pytest.approx(p2)

    def test_identical_samples_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            paired_t_test([1.0, 2.0], [1.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.0])


class TestEvalReport:
    def test_aggregates_and_rows(self):
        rep = EvalReport()
        rep.add("song_a", {"waor": 1.0}, 300.0)
        rep.add("song_b", {"waor": 0.0}, 100.0)
        rep.finalize()
        assert rep.aggregates["waor_mean"] == 0.5
        assert rep.aggregates["waor_weighted"] == pytest.approx(0.75)
        rows = list(rep.csv_rows())
        assert "song_a,waor,1.000000" in rows
        assert any(r.startswith("ALL,waor_mean") for r in rows)
        assert "song_a" in rep.table()
