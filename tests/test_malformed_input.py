"""Fuzzed text inputs: `.lab`, `.chroma`, beat and config files.

Each valid file is written with blank lines and `#` comments mixed in and
must read back to exactly what was written. Each malformed file holds one
bad line (or one whole-file fault) and must be rejected with a ValueError
whose message starts `path:line:` at that line (`path:` for a whole-file
fault), never an IndexError, a TypeError, a UnicodeDecodeError or a
message naming no file.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chordscribe.annotations import parse_lab
from chordscribe.chroma import read_beats, read_chromagram
from chordscribe.cli import main, parse_config_file
from chordscribe.model import ModelFormatError, TrainConfig, load_model, save_model, train

FUZZ = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

NOISE = st.sampled_from(["", "   ", "\t", "# comment", "  # 1 2 x", "#"])
LABELS = st.sampled_from(["C:maj", "N", "G:min7", "A#:maj/3", "Key C"])
TIMES = st.floats(0.0, 1e4, allow_subnormal=False)
STEPS = st.floats(1e-3, 100.0)
NOT_UTF8 = "\udcff"  # _write writes it as the byte 0xff, which is not UTF-8


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# A field that is not a finite number: a word, a non-finite float, or junk.
BAD_NUMBERS = st.one_of(
    st.sampled_from(["x", "nan", "NaN", "inf", "-inf", "1e999", "1..2", "0x10", "--1", "1,5"]),
    st.text("0123456789.eE+-ab", min_size=1, max_size=6).filter(lambda t: not (_is_float(t) and math.isfinite(float(t)))),
)


def _layout(data, lines: list[str]) -> tuple[str, list[int]]:
    """(file text, 1-based line number of each of `lines`) with blank and
    comment lines drawn in between."""
    out, numbers = [], []
    for line in lines:
        out += data.draw(st.lists(NOISE, max_size=2))
        out.append(line)
        numbers.append(len(out))
    out += data.draw(st.lists(NOISE, max_size=2))
    return "\n".join(out) + "\n", numbers


def _inject(data, lines: list[str], bad: str, first: int = 0) -> tuple[str, int]:
    """(file text, line number of `bad`) with `bad` inserted at a drawn
    position no earlier than `first`."""
    i = data.draw(st.integers(first, len(lines)))
    text, numbers = _layout(data, lines[:i] + [bad] + lines[i:])
    return text, numbers[i]


def _write(path, text: str):
    """Write text as UTF-8 to a new file at path, each NOT_UTF8 as its raw
    byte: truncating a file on every example takes tens of milliseconds on
    some file systems."""
    path.unlink(missing_ok=True)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _rejected(path, read, lineno: int | None) -> str:
    """read(path) raises a ValueError starting `path:lineno: `, or `path: `
    for a whole-file fault; returns the message."""
    with pytest.raises(ValueError) as info:
        read(path)
    message = str(info.value)
    prefix = f"{path}:{lineno}: " if lineno else f"{path}: "
    assert message.startswith(prefix), message
    return message


# --- .lab ---------------------------------------------------------------------


@st.composite
def lab_records(draw):
    """Sorted, non-overlapping (start, end, label) records; gaps may be 0."""
    t = draw(TIMES)
    records = []
    for _ in range(draw(st.integers(1, 6))):
        start = t + draw(st.one_of(st.just(0.0), STEPS))
        t = start + draw(STEPS)
        records.append((start, t, draw(LABELS)))
    return records


def _lab_lines(records) -> list[str]:
    return [f"{s!r} {e!r} {label}" for s, e, label in records]


@FUZZ
@given(st.data(), lab_records())
def test_valid_lab_reads_back(tmp_path, data, records):
    path = tmp_path / "song.lab"
    _write(path, _layout(data, data.draw(st.permutations(_lab_lines(records))))[0])
    iv = parse_lab(path)
    assert iv.starts.tolist() == [r[0] for r in records]
    assert iv.ends.tolist() == [r[1] for r in records]
    assert iv.labels == [r[2] for r in records]


@st.composite
def bad_lab_lines(draw):
    s, e = sorted(draw(st.lists(STEPS, min_size=2, max_size=2, unique=True)))
    label = draw(LABELS)
    return draw(
        st.sampled_from(
            [
                f"{draw(BAD_NUMBERS)} {e!r} {label}",
                f"{s!r} {draw(BAD_NUMBERS)} {label}",
                f"{s!r} {e!r}",  # too few fields
                f"{s!r}",
                f"{e!r} {s!r} {label}",  # reversed
                f"{s!r} {s!r} {label}",  # empty
                f"{s!r} {e!r} {label}{NOT_UTF8}",
            ]
        )
    )


@FUZZ
@given(st.data(), lab_records(), bad_lab_lines())
def test_bad_lab_line_named(tmp_path, data, records, bad):
    path = tmp_path / "song.lab"
    text, lineno = _inject(data, _lab_lines(records), bad)
    _write(path, text)
    _rejected(path, parse_lab, lineno)


@FUZZ
@given(st.data(), lab_records())
def test_overlapping_lab_named(tmp_path, data, records):
    """An interval that starts inside another is a whole-file fault, found
    after sorting."""
    s, e, label = data.draw(st.sampled_from(records))
    inside = data.draw(st.floats(s, e - 1e-6))
    path = tmp_path / "song.lab"
    _write(path, _inject(data, _lab_lines(records), f"{inside!r} {e + 1.0!r} {label}")[0])
    assert "overlaps" in _rejected(path, parse_lab, None)


# --- .chroma ------------------------------------------------------------------


@st.composite
def chromagrams(draw):
    """(band, starts, ends, 12 x T values) with T >= 1."""
    n = draw(st.integers(1, 5))
    times = st.lists(TIMES, min_size=n, max_size=n)
    values = [draw(st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12)) for _ in range(n)]
    return draw(st.sampled_from(["bass", "treble"])), draw(times), draw(times), values


def _chroma_rows(starts, ends, values) -> list[str]:
    return [" ".join(repr(float(v)) for v in (s, e, *row)) for s, e, row in zip(starts, ends, values)]


@FUZZ
@given(st.data(), chromagrams())
def test_valid_chroma_reads_back(tmp_path, data, chroma):
    band, starts, ends, values = chroma
    path = tmp_path / "song.chroma"
    _write(path, _layout(data, [f"{band} {len(starts)}"] + _chroma_rows(starts, ends, values))[0])
    back = read_chromagram(path)
    assert back.band == band
    assert back.starts.tolist() == starts and back.ends.tolist() == ends
    assert back.values.T.tolist() == values


@st.composite
def bad_chroma_rows(draw):
    fields = [repr(v) for v in draw(st.lists(st.floats(0.0, 1.0), min_size=14, max_size=14))]
    i = draw(st.integers(0, 13))
    kind = draw(st.sampled_from(["number", "count", "range", "bytes"]))
    if kind == "number":
        fields[i] = draw(BAD_NUMBERS)
    elif kind == "bytes":
        fields[i] += NOT_UTF8
    elif kind == "count":
        fields = fields[: draw(st.integers(1, 13))] if draw(st.booleans()) else fields + ["0.5"]
    else:
        fields[draw(st.integers(2, 13))] = repr(draw(st.sampled_from([-0.5, 1.5, 2.0, -1e-3])))
    return " ".join(fields)


@FUZZ
@given(st.data(), chromagrams(), bad_chroma_rows())
def test_bad_chroma_row_named(tmp_path, data, chroma, bad):
    band, starts, ends, values = chroma
    path = tmp_path / "song.chroma"
    header = f"{band} {len(starts) + 1}"
    text, lineno = _inject(data, [header] + _chroma_rows(starts, ends, values), bad, first=1)
    _write(path, text)
    _rejected(path, read_chromagram, lineno)


BAD_HEADERS = st.one_of(
    st.sampled_from(["treble one", "treble 0", "bass 0", "treble -1", "treble 2.5", "treble", "mid 1", "1 treble"]),
    st.builds("treble {}".format, BAD_NUMBERS),
    st.builds("treble 1 {}".format, st.integers(0, 9)),
)


@FUZZ
@given(st.data(), chromagrams(), BAD_HEADERS)
def test_bad_chroma_header_named(tmp_path, data, chroma, header):
    band, starts, ends, values = chroma
    path = tmp_path / "song.chroma"
    text, numbers = _layout(data, [header] + _chroma_rows(starts, ends, values))
    _write(path, text)
    _rejected(path, read_chromagram, numbers[0])


@FUZZ
@given(st.data(), chromagrams(), st.integers(-4, 4).filter(bool))
def test_chroma_frame_count_mismatch_named(tmp_path, data, chroma, delta):
    band, starts, ends, values = chroma
    n = max(1, len(starts) + delta)
    if n == len(starts):
        n += 1
    path = tmp_path / "song.chroma"
    _write(path, _layout(data, [f"{band} {n}"] + _chroma_rows(starts, ends, values))[0])
    assert "frames" in _rejected(path, read_chromagram, None)


# --- beats --------------------------------------------------------------------


BEATS = st.lists(TIMES, min_size=1, max_size=8, unique=True).map(sorted)


@FUZZ
@given(st.data(), BEATS)
def test_valid_beats_read_back(tmp_path, data, beats):
    path = tmp_path / "song.txt"
    _write(path, _layout(data, [repr(b) for b in beats])[0])
    assert read_beats(path, end=beats[-1]).tolist() == beats


@FUZZ
@given(st.data(), BEATS, st.sampled_from(["number", "bytes", "repeat", "past_end"]))
def test_bad_beat_line_named(tmp_path, data, beats, kind):
    lines = [repr(b) for b in beats]
    path = tmp_path / "song.txt"
    if kind == "number":
        text, lineno = _inject(data, lines, data.draw(BAD_NUMBERS))
    elif kind == "bytes":  # a comment is read too
        text, lineno = _inject(data, lines, f"# beat {NOT_UTF8}")
    elif kind == "repeat":  # equal to or before the beat it follows
        i = data.draw(st.integers(1, len(lines)))
        repeat = repr(beats[i - 1] - data.draw(st.sampled_from([0.0, 0.5])))
        text, numbers = _layout(data, lines[:i] + [repeat] + lines[i:])
        lineno = numbers[i]
    else:
        text, numbers = _layout(data, lines + [repr(beats[-1] + 1.0)])
        lineno = numbers[-1]
    _write(path, text)
    _rejected(path, lambda p: read_beats(p, end=beats[-1]), lineno)


# --- config -------------------------------------------------------------------

CONFIG_VALUES = {
    "hop": st.integers(1, 4096).map(lambda v: (str(v), v)),
    "jobs": st.integers(1, 8).map(lambda v: (str(v), v)),
    "alpha": st.floats(0.0, 1.0).map(lambda v: (repr(v), v)),
    "alphabet": st.sampled_from(["majmin25", "full121"]).map(lambda v: (v, v)),
    "chroma_dir": st.sampled_from(["c", "out/chroma", "a b"]).map(lambda v: (v, v)),
    "cac": st.sampled_from(
        [("yes", True), ("True", True), ("TRUE", True), ("1", True)]
        + [("no", False), ("No", False), ("false", False), ("0", False)]
    ),
    "gamma": st.sampled_from([("0", (0,)), ("0, none", (0, None)), ("None", (None,))]),
    "tau": st.sampled_from([("3", (3,)), ("1,3,13", (1, 3, 13))]),
}


@FUZZ
@given(st.data(), st.sets(st.sampled_from(sorted(CONFIG_VALUES)), min_size=1))
def test_valid_config_reads_back(tmp_path, data, keys):
    pairs = {key: data.draw(CONFIG_VALUES[key]) for key in sorted(keys)}
    spaces = st.sampled_from(["", " ", "  "])
    lines = [f"{key}{data.draw(spaces)}={data.draw(spaces)}{text}" for key, (text, _) in pairs.items()]
    path = tmp_path / "run.cfg"
    _write(path, _layout(data, lines)[0])
    assert parse_config_file(path) == {key: value for key, (_, value) in pairs.items()}


BAD_CONFIG_LINES = st.one_of(
    st.sampled_from(["hop", "no equals sign", "gammas = 0", "taus = 3", "window = hann", "hopp = 1", "= 3"]),
    st.builds("hop = {}".format, BAD_NUMBERS),
    st.builds("alpha = {}".format, BAD_NUMBERS),
    st.builds("q_factor = {}".format, st.sampled_from(["nan", "inf", "-inf", "1e999"])),
    st.builds("cac = {}".format, st.sampled_from(["maybe", "2", "on", "off", "", "y", "truee"])),
    st.builds("beat_period = {}".format, st.sampled_from(["0", "-1", "-0.5", "0.0", "-0"])),
    st.builds("train_fraction = {}".format, st.sampled_from(["0", "-0", "-0.5", "1.5", "1.0000001"])),
    st.just(f"alphabet = full121{NOT_UTF8}"),
    st.builds("jobs = {}".format, st.sampled_from(["1.5", "two", ""])),
    st.builds("gamma = {}".format, st.sampled_from(["x", "0,x", "1.5"])),
    st.builds("tau = {}".format, st.sampled_from(["three", "3;4"])),
    # out of range, checked by the type that owns the setting
    st.builds("hop = {}".format, st.sampled_from(["0", "-1"])),
    st.builds("q_factor = {}".format, st.sampled_from(["0", "-1"])),
    st.builds("bins_per_semitone = {}".format, st.sampled_from(["0", "-3"])),
    st.builds("sample_rate = {}".format, st.sampled_from(["0", "-11025"])),
    st.builds("alpha = {}".format, st.sampled_from(["-1", "-0.1"])),
    st.builds("epsilon = {}".format, st.sampled_from(["0", "-1e-4"])),
    st.builds("gamma = {}".format, st.sampled_from(["-1", "0,-2"])),
    st.builds("tau = {}".format, st.sampled_from(["0", "14", "3,0"])),
    st.builds("alphabet = {}".format, st.sampled_from(["jazz", "full"])),
    st.just("seed = -1"),
)


@FUZZ
@given(st.data(), BAD_CONFIG_LINES)
def test_bad_config_line_named(tmp_path, data, bad):
    path = tmp_path / "run.cfg"
    text, lineno = _inject(data, ["hop = 512", "alphabet = full121"], bad)
    _write(path, text)
    _rejected(path, parse_config_file, lineno)


# --- the cases that failed without naming the file, or loaded silently ---------


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("x.chroma", "treble 1\n0 1 " + " ".join(["0.5"] * 11) + " x\n", 2),
        ("one.chroma", "treble one\n", 1),
        ("zero.chroma", "treble 0\n", 1),
        ("nan.lab", "0 1 C:maj\nnan 2 G:maj\n", 2),
        ("inf.lab", "0 1 C:maj\n1 inf G:maj\n", 2),
        ("hop.cfg", "alpha = 0.1\nhop = abc\n", 2),
        ("nan.cfg", "hop = 512\nalpha = nan\n", 2),
        ("maybe.cfg", "cac = maybe\n", 1),
        ("period.cfg", "hop = 512\nbeat_period = -1\n", 2),
        ("bytes.lab", f"0 1 C:maj\n1 2 G:maj {NOT_UTF8}\udcfe\n", 2),
        ("bytes.chroma", f"# {NOT_UTF8}\ntreble 1\n", 1),
    ],
)
def test_once_unnamed_inputs_name_file_and_line(tmp_path, name, text, line):
    path = tmp_path / name
    _write(path, text)
    read = {".chroma": read_chromagram, ".lab": parse_lab, ".cfg": parse_config_file}[path.suffix]
    _rejected(path, read, line)


def test_synth_bad_duration_exits_naming_line(tmp_path):
    path = tmp_path / "script.txt"
    _write(path, "C:maj 1.0\nC:maj x\n")
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(path))}:2: "):
        main(["synth", str(path), str(tmp_path / "out")])


def test_synth_script_not_utf8_exits_naming_line(tmp_path):
    path = tmp_path / "script.txt"
    _write(path, f"C:maj 1.0\nC:maj{NOT_UTF8} 1.0\n")
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(path))}:2: byte 0xff is not UTF-8"):
        main(["synth", str(path), str(tmp_path / "out")])


def test_model_file_not_utf8_names_file(tmp_path):
    path = _write(tmp_path / "model.txt", f"chordscribe-model{NOT_UTF8}\n")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:1: byte 0xff is not UTF-8"


@pytest.mark.parametrize("where", ["row", "after end"])
def test_model_file_not_utf8_names_line(tmp_path, where):
    # A bad byte in a table row, or on a line after `end`, which
    # load_model reads to the end of the file.
    from test_model import fixture_dataset

    save_model(train(fixture_dataset(), TrainConfig()), tmp_path / "saved.txt")
    lines = (tmp_path / "saved.txt").read_text().splitlines()
    lineno = 5 if where == "row" else len(lines) + 2
    if where == "row":
        lines[lineno - 1] += NOT_UTF8
    else:
        lines += ["", f"# {NOT_UTF8}"]
    path = _write(tmp_path / "model.txt", "\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}:{lineno}: byte 0xff is not UTF-8"


def test_decode_bad_model_alphabet_exits_naming_line(tmp_path):
    path = _write(tmp_path / "model.txt", "chordscribe-model v1\nalphabet nine\n")
    (tmp_path / "chroma").mkdir()
    argv = ["decode", "--chroma-dir", str(tmp_path / "chroma"), "--model", str(path)]
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(path))}:2: "):
        main([*argv, "--output-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("field", ["alpha", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_alpha_nan_exits(tmp_path):
    (tmp_path / "chroma").mkdir()
    (tmp_path / "chords").mkdir()
    argv = ["--chroma-dir", str(tmp_path / "chroma"), "--chords-dir", str(tmp_path / "chords")]
    with pytest.raises(SystemExit, match="^error: smoothing alpha must be finite and >= 0, got nan"):
        main(["train", *argv, "--model", str(tmp_path / "m.txt"), "--alpha", "nan"])
