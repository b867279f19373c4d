"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    brute_force_posteriors,
    enumerate_best_path_vec,
    make_chromagram,
    make_frame_labels,
    split_flat_path,
    synthetic_frames,
    tables_to_flat,
    transpose_labels,
)

import chordscribe
from chordscribe.annotations import (
    beat_sync_labels,
    chord_pitch_classes,
    derive_bass,
    make_alphabet,
    make_intervals,
    merge_intervals,
    parse_chord_symbol,
)
from chordscribe.audio_io import AudioBuffer, synthesize_triads
from chordscribe.chroma import (
    a_weighting,
    bass_config,
    beat_sync_median,
    compute_chromagram,
    default_beat_grid,
    treble_config,
)
from chordscribe.decode import (
    Constraints,
    NoAdmissiblePathError,
    _viterbi_tables,
    forward_backward,
    viterbi_joint,
)
from chordscribe.evaluate import aggregate, overlap_ratio, paired_t_test
from chordscribe.model import ChordOnlyHmm, TrainConfig, save_model, train


def report(name, detail=""):
    print(f"PASS: {name}" + (f" ({detail})" if detail else ""))


# --- 1. Viterbi oracle ---------------------------------------------------------


def test_viterbi_oracle_200_random_models():
    from conftest import random_log_tables

    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    dims = [(2, 3, 2), (1, 4, 3), (3, 2, 2), (2, 2, 3), (1, 12, 1), (2, 6, 1), (1, 2, 5), (2, 2, 2)]
    n_models = 200
    n_dead = 0
    for trial in range(n_models):
        n_keys, n_chords, n_bass = dims[trial % len(dims)]
        states = n_keys * n_chords * n_bass
        assert states <= 12
        t_max = min(6, int(np.log(50_000) / np.log(max(states, 2))))
        T = int(rng.integers(1, t_max + 1))
        tables, flat = random_log_tables(
            rng,
            n_keys,
            n_chords,
            n_bass,
            T,
            sparsity=float(rng.choice([0.0, 0.15, 0.3])),
            slot_cap=int(rng.integers(1, n_bass + 1)),
        )
        ref_lp, ref_path = enumerate_best_path_vec(*flat)
        if ref_path is None:
            n_dead += 1
            with pytest.raises(NoAdmissiblePathError):
                _viterbi_tables(tables)
            continue
        keys, chords, basses, lp, _ = _viterbi_tables(tables)
        assert lp == pytest.approx(ref_lp, abs=1e-9), f"trial {trial}"
        rk, rc, rb = split_flat_path(ref_path, n_chords, n_bass)
        assert keys.tolist() == rk, f"trial {trial}"
        assert chords.tolist() == rc, f"trial {trial}"
        assert basses.tolist() == rb, f"trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "viterbi oracle",
        f"{n_models} models ({n_dead} unreachable), log-prob within 1e-9, {elapsed:.1f}s",
    )


# --- 2. max-posterior oracle ----------------------------------------------------


def test_max_posterior_oracle_100_models():
    rng = np.random.default_rng(456)
    for trial in range(100):
        n, d = 3, 2
        hmm = ChordOnlyHmm(
            init=rng.dirichlet(np.ones(n)),
            trans=rng.dirichlet(np.ones(n), size=n),
            means=rng.random((n, d)),
            covs=np.tile(np.eye(d) * float(rng.uniform(0.02, 0.2)), (n, 1, 1)),
        )
        T = int(rng.integers(1, 6))
        obs = rng.random((T, d))
        post = forward_backward(hmm, obs)
        from chordscribe.model import gaussian_logpdf_frames

        log_e = gaussian_logpdf_frames(obs, hmm.means, hmm.covs)
        with np.errstate(divide="ignore"):
            ref = brute_force_posteriors(np.log(hmm.init), np.log(hmm.trans), log_e)
        np.testing.assert_allclose(post, ref, atol=1e-9, err_msg=f"trial {trial}")
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
    report("max-posterior oracle", "100 models, marginals within 1e-9")


# --- 3. MLE fixtures -------------------------------------------------------------


def _mle_fixture():
    chords_a, bass_a, keys_a = [0, 0, 7, 7, 0], [0, 0, 7, 11, 0], [0] * 5
    chords_b, bass_b, keys_b = [7, 0, 0, 7], [7, 0, 0, 7], [7] * 4
    rng = np.random.default_rng(99)
    songs = []
    for chords, bass, keys in ((chords_a, bass_a, keys_a), (chords_b, bass_b, keys_b)):
        t, b = synthetic_frames(chords, bass, rng=rng)
        songs.append(
            (make_chromagram(t), make_chromagram(b, "bass"), make_frame_labels(keys, chords, bass))
        )
    return songs


def test_mle_hand_fixture_exact():
    m = train(_mle_fixture(), TrainConfig(alpha=0.0))
    # initial distributions: one song starts on C:maj/C-bass/C-key, one on G
    for vec in (m.init_key, m.init_chord, m.init_bass):
        assert vec[0] == 0.5 and vec[7] == 0.5 and vec.sum() == 1.0
    # key transitions: pure self-loops
    assert m.key_trans[0, 0] == 1.0 and m.key_trans[7, 7] == 1.0
    # relative chord rows (major): I: {I,IV,V} at 1/3; V: {V,I} at 1/2; IV: {IV,I} at 1/2
    major = m.chord_trans_rel[0]
    assert major[0, 0] == major[0, 5] == major[0, 7] == 1 / 3
    assert major[7, 7] == major[7, 0] == 0.5
    assert major[5, 5] == major[5, 0] == 0.5
    # bass tables
    assert m.bass_given_chord[0, 0] == 1.0
    assert m.bass_given_chord[7, 7] == 2 / 3 and m.bass_given_chord[7, 11] == 1 / 3
    assert m.bass_trans[0, 0] == 0.5 and m.bass_trans[0, 7] == 0.5
    assert m.bass_trans[11, 0] == 1.0

    base = _mle_fixture()
    a25 = make_alphabet("majmin25")
    shifted = [(t, b, transpose_labels(fl, 3, a25)) for t, b, fl in base]
    m3 = train(shifted, TrainConfig(alpha=0.0))
    assert np.abs(m3.chord_trans_rel - m.chord_trans_rel).max() <= 1e-12
    report("MLE fixtures", "hand counts exact, +3 semitone equivariance within 1e-12")


# --- 4. chroma physics ------------------------------------------------------------


def test_chroma_physics():
    assert abs(a_weighting(1000.0)) <= 0.1

    def iec(f):
        f1, f2, f3, f4 = 20.598997, 107.65265, 737.86223, 12194.217
        x2 = f * f
        ra = (f4**2 * x2 * x2) / (
            (x2 + f1**2) * np.sqrt((x2 + f2**2) * (x2 + f3**2)) * (x2 + f4**2)
        )
        ra1k = (f4**2 * 1e12) / (
            (1e6 + f1**2) * np.sqrt((1e6 + f2**2) * (1e6 + f3**2)) * (1e6 + f4**2)
        )
        return 20 * np.log10(ra / ra1k)

    assert a_weighting(100.0) == pytest.approx(iec(100.0), abs=0.5)
    assert a_weighting(55.0) == pytest.approx(iec(55.0), abs=0.5)

    from dataclasses import replace

    buf = synthesize_triads([({0, 4, 7}, 0, 1.5), ({7, 11, 2}, 7, 1.5)], 11025)
    quiet = AudioBuffer(buf.samples * 0.1, buf.sample_rate)
    cfg = replace(treble_config(), spl_floor=-600.0)
    base = compute_chromagram(quiet, cfg, "treble")
    for g in (0.1, 10.0):
        scaled = AudioBuffer(quiet.samples * g, quiet.sample_rate)
        diff = np.abs(compute_chromagram(scaled, cfg, "treble").values - base.values).max()
        assert diff <= 1e-6, f"gain {g}: {diff}"
    pref_diff = np.abs(
        compute_chromagram(quiet, cfg, "treble", p_ref=1e-12).values - base.values
    ).max()
    assert pref_diff <= 1e-9
    report("chroma physics", "A-weighting anchors, gain and p_ref invariance")


# --- 5. synthetic end-to-end -------------------------------------------------------


SCRIPT_60S = [
    ("C:maj", 4.0),
    ("G:maj/3", 3.5),
    ("A:min", 4.0),
    ("F:maj", 3.5),
    ("C:maj/5", 4.0),
    ("D:min", 3.5),
    ("G:maj", 4.0),
    ("E:maj", 3.5),
    ("A:min", 4.0),
    ("F:maj/3", 3.5),
    ("C:maj/3", 4.0),
    ("D:maj", 3.5),
    ("G:maj/5", 4.0),
    ("E:min", 3.5),
    ("F:maj/5", 4.0),
    ("C:maj", 3.5),
]


def _render_script(script):
    synth_segments = []
    lab_records = []
    t = 0.0
    for label, dur in script:
        sym = parse_chord_symbol(label)
        synth_segments.append((chord_pitch_classes(sym), derive_bass(sym), dur))
        lab_records.append((t, t + dur, label))
        t += dur
    buf = synthesize_triads(synth_segments, 11025)
    return buf, make_intervals(lab_records), t


def _song_dataset(buf, chord_iv, duration, alphabet):
    beats = default_beat_grid(duration, 0.5)
    key_iv = make_intervals([(0.0, duration, "C:maj")])
    treble = beat_sync_median(compute_chromagram(buf, treble_config(), "treble"), beats)
    bass = beat_sync_median(compute_chromagram(buf, bass_config(), "bass"), beats)
    labels = beat_sync_labels(chord_iv, beats, alphabet, key_iv=key_iv)
    return treble, bass, labels


def _decoded_intervals(path, starts, ends, alphabet):
    chord_labels = [alphabet.label_at(c) for c in path.chords]
    return merge_intervals(starts, ends, chord_labels)


def test_synthetic_end_to_end():
    t0 = time.perf_counter()
    buf, chord_iv, duration = _render_script(SCRIPT_60S)
    assert duration == 60.0
    assert len({parse_chord_symbol(lab).label().split("/")[0] for lab in chord_iv.labels}) == 8

    # major/minor alphabet: chord overlap and bass accuracy
    a25 = make_alphabet("majmin25")
    treble, bass, labels = _song_dataset(buf, chord_iv, duration, a25)
    model = train([(treble, bass, labels)], TrainConfig(alphabet="majmin25", alpha=0.1))
    path = viterbi_joint(model, Constraints(), treble, bass)
    pred_iv = _decoded_intervals(path, treble.starts, treble.ends, a25)
    chord_overlap = overlap_ratio(pred_iv, chord_iv, "majmin")
    assert chord_overlap >= 0.9

    gt_bass = labels.bass
    bass_acc = float(np.mean(path.basses[gt_bass >= 0] == gt_bass[gt_bass >= 0]))
    assert bass_acc >= 0.9

    # full alphabet with inversions: note-set precision
    a121 = make_alphabet("full121")
    treble2, bass2, labels2 = _song_dataset(buf, chord_iv, duration, a121)
    model2 = train([(treble2, bass2, labels2)], TrainConfig(alphabet="full121", alpha=0.1))
    path2 = viterbi_joint(model2, Constraints(gamma=0, tau=3, cac=True), treble2, bass2)
    pred_iv2 = _decoded_intervals(path2, treble2.starts, treble2.ends, a121)
    ncp = overlap_ratio(pred_iv2, chord_iv, "noteset")
    assert ncp >= 0.85

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        "synthetic end-to-end",
        f"overlap {chord_overlap:.3f}, bass acc {bass_acc:.3f}, NCP {ncp:.3f}, {elapsed:.0f}s",
    )


# --- 6 & 7. constraint behavior and performance budget ------------------------------


def _full121_frame_model(rng):
    """Full-alphabet model trained on frame-level synthetic songs."""
    a121 = make_alphabet("full121")
    vocab = [
        a121.index_of(parse_chord_symbol(lab))
        for lab in (
            "C:maj", "C:maj/3", "C:maj/5", "F:maj", "F:maj/3", "G:maj", "G:maj/5",
            "A:min", "D:min", "E:min", "D:maj", "E:maj", "A:maj/3", "N",
        )
    ]
    songs = []
    for song_key in (0, 7, 0):
        chords = [vocab[i % len(vocab)] for i in rng.integers(0, len(vocab), size=240)]
        # sticky chords: repeat each pick a few frames
        chords = np.repeat(chords[:60], 4)[:240]
        basses = [derive_bass(a121.symbol_at(c)) for c in chords]
        keys = [song_key] * len(chords)
        t, b = synthetic_frames(chords, basses, "full121", rng=rng)
        songs.append(
            (make_chromagram(t), make_chromagram(b, "bass"), make_frame_labels(keys, chords, basses))
        )
    return train(songs, TrainConfig(alphabet="full121", alpha=0.1)), a121, vocab


def _frame_song(rng, vocab, a121, n_frames):
    chords = np.repeat([vocab[i % len(vocab)] for i in rng.integers(0, len(vocab), size=n_frames)], 5)[
        :n_frames
    ]
    basses = np.array([derive_bass(a121.symbol_at(c)) for c in chords])
    t, b = synthetic_frames(chords, basses, "full121", rng=rng)
    return make_chromagram(t), make_chromagram(b, "bass"), np.asarray(chords), basses


@pytest.fixture(scope="module")
def full_model():
    rng = np.random.default_rng(2025)
    model, a121, vocab = _full121_frame_model(rng)
    return rng, model, a121, vocab


def test_constraint_behavior(full_model):
    rng, model, a121, vocab = full_model
    treble, bass, true_chords, _ = _frame_song(rng, vocab, a121, 500)

    # Three interleaved pairs, compared by their fastest run: after an idle
    # spell the first decodes of a process can run many times slower, which
    # says nothing about the decoder.
    times = {"free": [], "tight": []}
    paths = {"free": [], "tight": []}
    for _ in range(3):
        for name, constraints in (("free", Constraints()), ("tight", Constraints(gamma=0, tau=3, cac=True))):
            t0 = time.perf_counter()
            path = viterbi_joint(model, constraints, treble, bass)
            times[name].append(time.perf_counter() - t0)
            paths[name].append(path)
    for runs in paths.values():
        for path in runs[1:]:
            for field in ("keys", "chords", "basses"):
                np.testing.assert_array_equal(getattr(path, field), getattr(runs[0], field))
            assert path.log_prob == runs[0].log_prob
    free, tight = paths["free"][0], paths["tight"][0]

    acc_free = float(np.mean(free.chords == true_chords))
    acc_tight = float(np.mean(tight.chords == true_chords))
    trans_ratio = free.expanded_transitions / tight.expanded_transitions
    wall_ratio = min(times["free"]) / min(times["tight"])
    assert trans_ratio >= 10.0
    assert wall_ratio >= 10.0
    assert acc_free - acc_tight < 0.02
    report(
        "constraint behavior",
        f"transitions x{trans_ratio:.0f}, wall x{wall_ratio:.0f}, "
        f"accuracy {acc_free:.3f} -> {acc_tight:.3f}",
    )


# Loads the model file of argv[1] and decodes the pickled (treble, bass,
# constraints) of argv[2] with it, as `chordscribe decode` does, and prints
# the frame count, the decode's seconds, the process's peak resident set
# before and after the decode, and, when argv[3] is "trace", the peak of the
# decode's own allocations (tracemalloc, started after the load; else 0).
# VmHWM, not ru_maxrss: Linux carries a parent's peak RSS into a child's
# ru_maxrss across fork and exec.
DECODE = """
import pickle, sys, time, tracemalloc
from chordscribe.decode import viterbi_joint
from chordscribe.model import load_model

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

model = load_model(sys.argv[1])
with open(sys.argv[2], "rb") as fh:
    treble, bass, constraints = pickle.load(fh)
if sys.argv[3:] == ["trace"]:
    tracemalloc.start()
before = peak()
t0 = time.perf_counter()
path = viterbi_joint(model, constraints, treble, bass)
elapsed = time.perf_counter() - t0
print(len(path), elapsed, before, peak(), tracemalloc.get_traced_memory()[1])
"""


def _decode_in_subprocess(tmp_path, model, treble, bass, constraints, trace=False):
    """(frames, seconds, peak bytes before, peak bytes after, traced peak
    bytes or 0) of one decode in its own process, of the model as a model
    file holds it, so that the peaks are not those of whatever this test
    process ran first. A traced run's seconds and resident peaks include
    tracemalloc's own cost."""
    model_path, inputs = tmp_path / "model.txt", tmp_path / "inputs.pickle"
    save_model(model, model_path)
    inputs.write_bytes(pickle.dumps((treble, bass, constraints)))
    src = str(Path(chordscribe.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", DECODE, str(model_path), str(inputs), *["trace"] * trace],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )  # fmt: skip
    frames, elapsed, before, after, traced = out.stdout.split()
    return int(frames), float(elapsed), int(before), int(after), int(traced)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_performance_budget(full_model, tmp_path):
    rng, model, a121, vocab = full_model
    treble, bass, _, _ = _frame_song(rng, vocab, a121, 1000)
    tight = Constraints(gamma=0, tau=3, cac=True)
    frames, elapsed, _, peak, _ = _decode_in_subprocess(tmp_path, model, treble, bass, tight)
    peak_mb = peak / 2**20
    assert frames == 1000
    assert elapsed < 10.0
    assert peak_mb < 1024.0
    report("performance budget", f"1000 frames in {elapsed:.2f}s, decode process peak {peak_mb:.0f} MB")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    ("n_frames", "bound_mb", "traced_bound_mb"), [(2400, 64, 67), (150, 11.2, 12.0)], ids=["2400", "150"]
)
def test_long_free_decode_memory(full_model, tmp_path, n_frames, bound_mb, traced_bound_mb):
    # 2,400 frames are 20 minutes on the 0.5 s beat grid. A free full121
    # step keeps one previous chord per stage-3 row on nearly every frame
    # and stores a (24, 13) uint16 table, 624 bytes, not 75.5 KB of cells;
    # and frame 1's dense stage 2 runs in key blocks. The decode's own peak
    # growth stays far below the 200 MB that one table a cell would hold.
    # At 150 frames (the bench's free song) the growth is mostly tables and
    # frame 1's dense stage 2: 10.3 MB with the chord transitions held once
    # and the stage-1 drops folded one target bass at a time, 12.0 MB when
    # each was held twice.
    # That growth is measured over the peak that load_model left, so a
    # change to the load alone moves it (by 1 MB once). The decode's own
    # allocation peak, traced in a second process from after the load, does
    # not: up to 27.9 and 11.1 MB over the songs drawn, each bounded with its
    # growth bound's ratio to the growth (64 / 26.6 and 11.2 / 10.3).
    rng, model, a121, vocab = full_model
    treble, bass, _, _ = _frame_song(rng, vocab, a121, n_frames)
    frames, elapsed, before, after, _ = _decode_in_subprocess(tmp_path, model, treble, bass, Constraints())
    *_, traced = _decode_in_subprocess(tmp_path, model, treble, bass, Constraints(), trace=True)
    growth_mb, traced_mb = (after - before) / 2**20, traced / 2**20
    assert frames == n_frames
    assert growth_mb < bound_mb
    assert traced_mb < traced_bound_mb
    report("free decode memory", f"{n_frames} frames in {elapsed:.2f}s, peak growth {growth_mb:.1f} MB, "
           f"traced peak {traced_mb:.1f} MB")  # fmt: skip


# --- 8. metric arithmetic ------------------------------------------------------------


def test_metric_arithmetic():
    pred = make_intervals([(0.0, 10.0, "A:maj")])
    gt = make_intervals([(0.0, 6.0, "A:maj"), (6.0, 10.0, "N")])
    assert overlap_ratio(pred, gt, "majmin") == pytest.approx(0.6)
    assert aggregate([1.0, 0.0], [300.0, 100.0]) == (0.5, pytest.approx(0.75))

    inv_pred = make_intervals([(0.0, 1.0, "A:maj/3")])
    inv_gt = make_intervals([(0.0, 1.0, "A:maj")])
    assert overlap_ratio(inv_pred, inv_gt, "exact") == 0.0
    assert overlap_ratio(inv_pred, inv_gt, "noteset") == 1.0

    # interval intersection vs millisecond sampling on randomized files
    from test_evaluate import grid_overlap

    rng = np.random.default_rng(31)
    labels = ["C:maj", "G:maj", "A:min", "N"]
    for _ in range(20):
        def rand_iv():
            edges = np.unique(np.round(np.sort(rng.uniform(0, 8, size=6)), 3))
            if edges.size < 2:
                edges = np.array([0.0, 1.0])
            return make_intervals(
                [(float(a), float(b), str(rng.choice(labels))) for a, b in zip(edges[:-1], edges[1:])]
            )

        p, g = rand_iv(), rand_iv()
        assert overlap_ratio(p, g, "majmin") == pytest.approx(
            grid_overlap(p, g, "majmin"), abs=2e-3
        )

    t, p_val = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert t == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)
    from scipy import stats

    ref = stats.ttest_rel([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert p_val == pytest.approx(float(ref.pvalue), abs=1e-12)
    report("metric arithmetic", "hand fixtures exact, grid agreement within 2e-3, t=2*sqrt(3)")
