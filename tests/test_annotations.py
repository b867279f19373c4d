import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import shift_chord, transpose_key
from hypothesis import given, settings, strategies as st

from chordscribe.annotations import (
    N_BASS,
    N_KEYS,
    NO_BASS,
    NO_CHORD,
    OOV_REDUCTIONS,
    OOV_TEMPLATES,
    QUALITY_TEMPLATES,
    UNLABELED,
    Alphabet,
    ChordSymbol,
    FrameLabels,
    IntervalLabels,
    LabParseError,
    beat_sync_labels,
    chord_pitch_classes,
    derive_bass,
    make_alphabet,
    make_intervals,
    merge_intervals,
    most_prevalent_labels,
    parse_chord_symbol,
    parse_key_label,
    parse_lab,
    write_lab,
)


def reduce_quality_by_overlap(template) -> str:
    """Nearest base quality: max shared tones, then min symmetric difference,
    then alphabet order."""
    order = tuple(QUALITY_TEMPLATES)
    src = set(template)

    def rank(q):
        tgt = set(QUALITY_TEMPLATES[q])
        return (-len(src & tgt), len(src ^ tgt), order.index(q))

    return min(order, key=rank)


class TestParseLab:
    def test_single_record(self, tmp_path):
        p = tmp_path / "a.lab"
        p.write_text("0.0 2.5 A:maj\n")
        iv = parse_lab(p)
        assert len(iv) == 1
        assert (iv.starts[0], iv.ends[0], iv.labels[0]) == (0.0, 2.5, "A:maj")

    def test_sorts_out_of_order_lines(self, tmp_path):
        p = tmp_path / "b.lab"
        p.write_text("2.0 3.0 N\n0.0 2.0 C:maj\n")
        iv = parse_lab(p)
        assert iv.labels == ["C:maj", "N"]

    def test_end_before_start(self, tmp_path):
        p = tmp_path / "c.lab"
        p.write_text("3.0 2.0 N\n")
        with pytest.raises(LabParseError, match="c.lab:1"):
            parse_lab(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "d.lab"
        p.write_text("0.0 1.0 C:maj\nbogus\n")
        with pytest.raises(LabParseError, match="d.lab:2"):
            parse_lab(p)

    @pytest.mark.parametrize("line", ["nan 2 G:maj", "1 inf G:maj"])
    def test_non_finite_time_names_line(self, tmp_path, line):
        p = tmp_path / "g.lab"
        p.write_text(f"0.0 1.0 C:maj\n{line}\n")
        with pytest.raises(LabParseError, match=f"^{re.escape(str(p))}:2: interval times must be finite"):
            parse_lab(p)

    def test_overlap_rejected(self, tmp_path):
        p = tmp_path / "e.lab"
        p.write_text("0.0 2.0 C:maj\n1.5 3.0 G:maj\n")
        with pytest.raises(LabParseError, match="overlap"):
            parse_lab(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "f.lab"
        p.write_text("# header\n\n0.0 1.0 N\n")
        assert len(parse_lab(p)) == 1

    def test_multiword_label_preserved(self, tmp_path):
        p = tmp_path / "g.lab"
        p.write_text("0.0 10.0 Key E\n")
        assert parse_lab(p).labels == ["Key E"]

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 10.0),  # gap before the interval
                st.floats(1e-3, 100.0),  # duration
                st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1),
            ),
            max_size=20,
        )
    )
    def test_write_roundtrip(self, draws):
        records, t = [], 0.0
        for gap, dur, label in draws:
            records.append((t + gap, t + gap + dur, label))
            t += gap + dur
        iv = make_intervals(records)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.lab", Path(tmp) / "b.lab"
            write_lab(first, iv)
            back = parse_lab(first)
            write_lab(second, back)
            assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(back.starts, iv.starts)
        np.testing.assert_array_equal(back.ends, iv.ends)
        assert back.labels == iv.labels


class TestParseChordSymbol:
    def test_major_first_inversion(self):
        c = parse_chord_symbol("A:maj/3")
        assert (c.root, c.quality, c.bass_degree) == (9, "maj", "3")
        assert derive_bass(c) == 1  # C#

    def test_no_chord(self):
        assert parse_chord_symbol("N") is NO_CHORD

    def test_dominant_seventh(self):
        c = parse_chord_symbol("C:7")
        assert (c.root, c.quality, c.bass_degree) == (0, "dom7", "root")

    def test_bare_root_is_major(self):
        c = parse_chord_symbol("Eb")
        assert (c.root, c.quality) == (3, "maj")

    def test_accidentals(self):
        assert parse_chord_symbol("F#:min").root == 6
        assert parse_chord_symbol("Bb:maj").root == 10
        assert parse_chord_symbol("Cb").root == 11

    def test_bad_root(self):
        with pytest.raises(ValueError):
            parse_chord_symbol("H:maj")

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            parse_chord_symbol("C:maj/7")

    def test_inversion_on_minor_rejected(self):
        with pytest.raises(ValueError):
            parse_chord_symbol("C:min/5")

    def test_oov_qualities_reduce(self):
        assert parse_chord_symbol("C:sus4").quality == "maj"
        assert parse_chord_symbol("C:min6").quality == "min"
        assert parse_chord_symbol("C:dim7").quality == "dim"
        assert parse_chord_symbol("C:hdim7").quality == "dim"
        assert parse_chord_symbol("C:9").quality == "dom7"
        assert parse_chord_symbol("C:maj9").quality == "maj7"

    def test_unknown_quality_rejected(self):
        with pytest.raises(ValueError):
            parse_chord_symbol("C:blues")

    def test_reduction_table_matches_overlap_rule(self):
        for name, template in OOV_TEMPLATES.items():
            assert OOV_REDUCTIONS[name] == reduce_quality_by_overlap(template), name


class TestDeriveBassAndPitchClasses:
    def test_first_inversion_example(self):
        assert derive_bass(parse_chord_symbol("A:maj/3")) == 1

    def test_root_position(self):
        assert derive_bass(parse_chord_symbol("C:maj")) == 0

    def test_no_chord_bass(self):
        assert derive_bass(NO_CHORD) == NO_BASS

    def test_second_inversion(self):
        assert derive_bass(parse_chord_symbol("C:maj/5")) == 7

    def test_inversion_keeps_note_set(self):
        a = chord_pitch_classes(parse_chord_symbol("A:maj/3"))
        b = chord_pitch_classes(parse_chord_symbol("A:maj"))
        assert a == b == frozenset({9, 1, 4})

    def test_seventh_differs_from_triad(self):
        assert chord_pitch_classes(parse_chord_symbol("A:maj")) != chord_pitch_classes(
            parse_chord_symbol("A:maj7")
        )

    def test_no_chord_empty(self):
        assert chord_pitch_classes(NO_CHORD) == frozenset()

    @given(st.integers(0, 11), st.sampled_from(list("maj min maj6 maj7 min7 dim aug".split()) + ["7"]))
    def test_bass_is_member_of_note_set(self, root, quality):
        from chordscribe.annotations import PITCH_NAMES

        sym = parse_chord_symbol(f"{PITCH_NAMES[root]}:{quality}")
        assert derive_bass(sym) in chord_pitch_classes(sym)

    def test_inversion_bass_in_note_set(self):
        for deg in ("3", "5"):
            sym = parse_chord_symbol(f"D:maj/{deg}")
            assert derive_bass(sym) in chord_pitch_classes(sym)


class TestAlphabet:
    def test_sizes(self):
        assert make_alphabet("majmin25").size == 25
        assert make_alphabet("full121").size == 121
        assert N_BASS == 13
        assert N_KEYS == 24

    def test_majmin_reduction(self):
        a = make_alphabet("majmin25")
        c_maj = a.index_of(parse_chord_symbol("C:maj"))
        assert a.index_of(parse_chord_symbol("C:maj7")) == c_maj
        assert a.index_of(parse_chord_symbol("C:7")) == c_maj
        assert a.index_of(parse_chord_symbol("C:maj/3")) == c_maj
        assert a.index_of(parse_chord_symbol("C:aug")) == c_maj
        c_min = a.index_of(parse_chord_symbol("C:min"))
        assert a.index_of(parse_chord_symbol("C:min7")) == c_min
        assert a.index_of(parse_chord_symbol("C:dim")) == c_min
        assert c_maj != c_min

    def test_full121_keeps_inversions_distinct(self):
        a = make_alphabet("full121")
        assert a.index_of(parse_chord_symbol("A:maj/3")) != a.index_of(parse_chord_symbol("A:maj"))

    def test_no_chord_index(self):
        for kind in ("majmin25", "full121"):
            a = make_alphabet(kind)
            assert a.index_of(NO_CHORD) == a.no_chord == a.size - 1

    def test_label_roundtrip(self):
        for kind in ("majmin25", "full121"):
            a = make_alphabet(kind)
            for state in range(a.size):
                assert a.index_of(parse_chord_symbol(a.label_at(state))) == state

    def test_mapping_total_over_producible_symbols(self):
        roots = "C C# D D# E F F# G G# A A# B".split()
        qualities = ["maj", "min", "maj6", "maj7", "min7", "7", "dim", "aug"]
        symbols = [f"{r}:{q}" for r in roots for q in qualities]
        symbols += [f"{r}:maj/3" for r in roots] + [f"{r}:maj/5" for r in roots] + ["N"]
        for kind in ("majmin25", "full121"):
            a = make_alphabet(kind)
            for text in symbols:
                assert 0 <= a.index_of(parse_chord_symbol(text)) < a.size

    def test_shift(self):
        a = make_alphabet("full121")
        amaj3 = a.index_of(parse_chord_symbol("A:maj/3"))
        cmaj3 = a.index_of(parse_chord_symbol("C:maj/3"))
        assert shift_chord(a, amaj3, 3) == cmaj3
        assert shift_chord(a, a.no_chord, 5) == a.no_chord
        assert shift_chord(a, amaj3, 12) == amaj3


class TestParseKeyLabel:
    def test_basic(self):
        assert parse_key_label("C") == 0
        assert parse_key_label("A:min") == 21
        assert parse_key_label("A:minor") == 21
        assert parse_key_label("E:major") == 4

    def test_key_prefix(self):
        assert parse_key_label("Key E") == 4
        assert parse_key_label("Key E:minor") == 16

    def test_silence_unlabeled(self):
        assert parse_key_label("Silence") is None
        assert parse_key_label("N") is None

    def test_unknown_mode_unlabeled(self):
        assert parse_key_label("E:dorian") is None

    def test_transpose_key(self):
        assert transpose_key(0, 3) == 3
        assert transpose_key(21, 3) == 12  # A:min -> C:min
        assert transpose_key(UNLABELED, 3) == UNLABELED


def most_prevalent_labels_reference(iv, beats):
    """most_prevalent_labels, scanning every record for every beat."""
    beats = np.asarray(beats, dtype=np.float64)
    winners = []
    for b0, b1 in zip(beats[:-1], beats[1:]):
        overlap, first_start = {}, {}
        for s, e, lab in zip(iv.starts, iv.ends, iv.labels):
            ov = min(e, b1) - max(s, b0)
            if ov > 0:
                overlap[lab] = overlap.get(lab, 0.0) + ov
                first_start.setdefault(lab, s)
        winners.append(min(overlap, key=lambda l: (-overlap[l], first_start[l])) if overlap else None)
    return winners


class TestBeatSyncLabels:
    def _iv(self, records):
        return make_intervals(records)

    def test_equals_reference(self):
        # Records ending exactly on a beat (1.0, 1.5), the 1e-9 overlaps
        # make_intervals allows (3.0 - 5e-10, and a short record ending
        # before the long one before it, so ends do not ascend: the beat
        # between the two ends is reached only by the earlier one), a gap
        # (3.2 to 4.0) and the end past the last record giving None, and an
        # overlap tie (2.0-2.5) won by the earlier start.
        iv = self._iv([
            (0.25, 1.0, "C:maj"), (1.0, 1.5, "G:maj"), (1.5, 2.25, "C:maj"), (2.25, 3.0, "G:maj"),
            (3.0 - 5e-10, 3.2, "A:min"), (3.2 - 8e-10, 3.2 - 4e-10, "F:maj"), (4.0, 5.0, "G:maj"),
        ])  # fmt: skip
        beats = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.2 - 2e-10, 3.5, 3.6, 4.5, 5.5, 6.0]
        wins = most_prevalent_labels(iv, beats)
        assert wins == most_prevalent_labels_reference(iv, beats)
        assert wins[3:8] == ["C:maj", "C:maj", "G:maj", "A:min", "A:min"]
        assert wins[8:] == [None, "G:maj", "G:maj", None]

    def test_equals_reference_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            records, t = [], float(rng.uniform(0.0, 1.0))
            for _ in range(int(rng.integers(0, 20))):
                t += float(rng.choice([0.0, 0.0, -5e-10, rng.uniform(0.0, 1.0)]))
                d = float(rng.choice([0.25, 0.5, 1.0, rng.uniform(1e-9, 2.0)]))
                records.append((t, t + d, str(rng.choice(["C", "G", "A:min", "N"]))))
                t += d
            iv = self._iv(records)
            beats = np.unique(np.concatenate([rng.uniform(-1.0, t + 1.0, int(rng.integers(2, 25))), iv.ends[:4]]))
            assert most_prevalent_labels(iv, beats) == most_prevalent_labels_reference(iv, beats)

    def test_majority_duration_wins(self):
        iv = self._iv([(0.0, 0.7, "A:maj"), (0.7, 1.0, "N")])
        assert most_prevalent_labels(iv, [0.0, 1.0]) == ["A:maj"]

    def test_interval_inside_one_annotation(self):
        iv = self._iv([(0.0, 10.0, "D:min")])
        assert most_prevalent_labels(iv, [2.0, 2.5]) == ["D:min"]

    def test_tie_breaks_to_earliest_start(self):
        iv = self._iv([(0.0, 0.5, "C:maj"), (0.5, 1.0, "G:maj")])
        assert most_prevalent_labels(iv, [0.0, 1.0]) == ["C:maj"]

    def test_uncovered_interval_unlabeled(self):
        iv = self._iv([(1.0, 2.0, "C:maj")])
        fl = beat_sync_labels(iv, [0.0, 0.5, 1.0, 1.5], make_alphabet("majmin25"))
        assert fl.chord[0] == UNLABELED and fl.bass[0] == UNLABELED
        assert fl.chord[2] == 0

    def test_states_derived_from_chords(self):
        a = make_alphabet("full121")
        iv = self._iv([(0.0, 1.0, "A:maj/3"), (1.0, 2.0, "N")])
        key_iv = self._iv([(0.0, 2.0, "A")])
        fl = beat_sync_labels(iv, [0.0, 1.0, 2.0], a, key_iv=key_iv)
        assert fl.chord[0] == a.index_of(parse_chord_symbol("A:maj/3"))
        assert fl.bass[0] == 1
        assert fl.chord[1] == a.no_chord
        assert fl.bass[1] == NO_BASS
        assert list(fl.key) == [9, 9]

    @given(
        st.lists(st.floats(0.1, 2.0), min_size=1, max_size=6),
        st.integers(2, 9),
    )
    def test_output_length_matches_intervals(self, durations, n_beats):
        t, records = 0.0, []
        for i, d in enumerate(durations):
            records.append((t, t + d, "C:maj" if i % 2 else "N"))
            t += d
        iv = self._iv(records)
        beats = np.linspace(0.0, max(t, 1.0), n_beats)
        fl = beat_sync_labels(iv, beats, make_alphabet("majmin25"))
        assert len(fl) == n_beats - 1

    def test_non_monotone_beats_rejected(self):
        iv = self._iv([(0.0, 1.0, "N")])
        with pytest.raises(ValueError):
            most_prevalent_labels(iv, [0.0, 0.5, 0.4])


def test_interval_labels_reject_unsorted_or_non_finite_records():
    with pytest.raises(ValueError, match=r"record 2 \('C'\) starts at 0\.5, before record 1 at 1\.0"):
        IntervalLabels(np.array([0.0, 1.0, 0.5]), np.array([1.0, 2.0, 0.9]), ["A", "B", "C"])
    with pytest.raises(ValueError, match="record 1 has a non-finite time"):
        IntervalLabels(np.array([0.0, 1.0]), np.array([1.0, np.inf]), ["A", "B"])
    assert len(IntervalLabels(np.array([0.0, 0.0, 1.0]), np.array([0.5, 1.0, 2.0]), ["A", "B", "C"])) == 3


@pytest.mark.parametrize("field", ["key", "chord", "bass"])
def test_frame_labels_reject_states_below_unlabeled(field):
    states = {name: [0, UNLABELED, 0, 0] for name in ("key", "chord", "bass")}
    states[field] = [0, UNLABELED, UNLABELED - 1, 0]
    grid = np.arange(4.0)
    with pytest.raises(ValueError, match=rf"^{field} state -2 at frame 2 is below UNLABELED \(-1\)$"):
        FrameLabels(**states, starts=grid, ends=grid + 1)


class TestFrameLabelIO:
    def test_merge_intervals(self):
        iv = merge_intervals([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], ["C:maj", "C:maj", "N"])
        assert iv.labels == ["C:maj", "N"]
        np.testing.assert_allclose(iv.starts, [0.0, 2.0])
        np.testing.assert_allclose(iv.ends, [2.0, 3.0])
