"""The file comparison of tools/same_answers.py (the pipeline run itself is
exercised by running the tool)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_answers", Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"
)
same_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_answers)

HEADER = "gamma,tau,song,frames,feature_s,decode_s,transitions,log_prob\n"


def _tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_timing_skips_seconds_and_compares_log_prob_as_written(tmp_path):
    ref = _tree(tmp_path / "ref", {"d/timing.csv": HEADER + "0,3,a,60,0.0018,0.2626,757032,2796.0410\n"})
    new = _tree(tmp_path / "new", {"d/timing.csv": HEADER + "0,3,a,60,0.0100,0.0154,757032,2796.0410\n"})
    assert same_answers.compare_trees(ref, new) == (1, [])
    (new / "d/timing.csv").write_text(HEADER + "0,3,a,60,0.0100,0.0154,757032,2796.041\n")
    n, reports = same_answers.compare_trees(ref, new)
    assert len(reports) == 1 and "column log_prob" in reports[0]
    (new / "d/timing.csv").write_text(HEADER + "0,3,a,60,0.0018,0.2626,757033,2796.0410\n")
    assert "column transitions" in same_answers.compare_trees(ref, new)[1][0]


def test_log_probs_compared_to_tolerance(tmp_path):
    ref = _tree(tmp_path / "ref", {"log_probs.txt": "tight/a -2796.041012345678\nfree/a -2790.5\n"})
    new = _tree(tmp_path / "new", {"log_probs.txt": "tight/a -2796.0410123456785\nfree/a -2790.5\n"})
    assert same_answers.compare_trees(ref, new) == (1, [])
    (new / "log_probs.txt").write_text("tight/a -2796.04101235\nfree/a -2790.5\n")
    assert same_answers.compare_trees(ref, new)[1] == [
        "log_probs.txt: line 1:\n    ref: tight/a -2796.041012345678\n    new: tight/a -2796.04101235"
    ]
    for text in ("tight/b -2796.041012345678\nfree/a -2790.5\n", "tight/a -2796.041012345678\n"):
        (new / "log_probs.txt").write_text(text)
        assert len(same_answers.compare_trees(ref, new)[1]) == 1


def test_reports_first_differing_line_and_one_sided_files(tmp_path):
    ref = _tree(tmp_path / "ref", {"a.lab": "0 1 C\n1 2 G\n3 4 F\n", "only_ref.txt": "x\n", "logs/x.log": "1\n"})
    new = _tree(tmp_path / "new", {"a.lab": "0 1 C\n1 2 D\n3 4 E\n", "only_new.txt": "x\n", "logs/x.log": "2\n"})
    n, reports = same_answers.compare_trees(ref, new)
    assert n == 3  # logs are not compared
    assert reports == [
        "a.lab: line 2:\n    ref: 1 2 G\n    new: 1 2 D",
        "only_new.txt: only in new",
        "only_ref.txt: only in ref",
    ]


def test_wav_reports_first_differing_byte(tmp_path):
    for root, data in ((tmp_path / "ref", b"RIFF\x00\xff\x01"), (tmp_path / "new", b"RIFF\x00\xfe\x01\x02")):
        (root / "audio").mkdir(parents=True)
        (root / "audio" / "a.wav").write_bytes(data)
    assert same_answers.compare_trees(tmp_path / "ref", tmp_path / "new") == (1, ["audio/a.wav: byte 5: 7 against 8 bytes"])
