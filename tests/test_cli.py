import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import chordscribe
from chordscribe.audio_io import synthesize_triads, write_wav
from chordscribe.chroma import read_chromagram
from chordscribe.cli import main, parse_config_file
from conftest import stdout_at_one_and_two_blas_threads


SCRIPT = """\
C:maj 1.5
G:maj 1.5
A:min 1.5
F:maj 1.5
"""


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> chroma -> train -> decode pipeline artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "script.txt").write_text(SCRIPT)
    audio = root / "audio"
    audio.mkdir()
    assert run("synth", str(root / "script.txt"), str(audio / "songA"), "--key", "C:maj") == 0
    # second song: same progression, different order
    (root / "script2.txt").write_text("F:maj 1.5\nC:maj 1.5\nG:maj 1.5\nC:maj 1.5\n")
    assert run("synth", str(root / "script2.txt"), str(audio / "songB"), "--key", "C:maj") == 0

    chords = root / "chords"
    keys = root / "keys"
    beats = root / "beats"
    for d in (chords, keys, beats):
        d.mkdir()
    for stem in ("songA", "songB"):
        (audio / f"{stem}.chords.lab").rename(chords / f"{stem}.lab")
        (audio / f"{stem}.keys.lab").rename(keys / f"{stem}.lab")
        (audio / f"{stem}.beats.txt").rename(beats / f"{stem}.txt")

    chroma = root / "chroma"
    assert (
        run(
            "chroma",
            "--audio-dir",
            str(audio),
            "--chroma-dir",
            str(chroma),
            "--beats",
            str(beats),
        )
        == 0
    )
    model = root / "model.txt"
    assert (
        run(
            "train",
            "--chroma-dir",
            str(chroma),
            "--chords-dir",
            str(chords),
            "--keys-dir",
            str(keys),
            "--model",
            str(model),
            "--train-fraction",
            "1.0",
            "--seed",
            "7",
        )
        == 0
    )
    pred = root / "pred"
    assert (
        run(
            "decode",
            "--chroma-dir",
            str(chroma),
            "--model",
            str(model),
            "--output-dir",
            str(pred),
        )
        == 0
    )
    return root


class TestSynth:
    def test_outputs_exist(self, workspace):
        assert (workspace / "audio" / "songA.wav").exists()

    def test_lab_times_match_script(self, workspace):
        from chordscribe.annotations import parse_lab

        iv = parse_lab(workspace / "chords" / "songA.lab")
        assert iv.labels == ["C:maj", "G:maj", "A:min", "F:maj"]
        assert iv.ends[-1] == pytest.approx(6.0)

    def test_empty_script_rejected(self, tmp_path):
        (tmp_path / "empty.txt").write_text("\n")
        with pytest.raises(SystemExit):
            run("synth", str(tmp_path / "empty.txt"), str(tmp_path / "out"))

    @pytest.mark.parametrize(
        "script, line",
        [("# intro\n\nH:maj 1.0\n", 3), ("C:maj 1.0\nG:maj 0\n", 2), ("C:maj 1.0\nN nan\n", 2)],
    )
    def test_bad_line_exits_naming_line(self, tmp_path, script, line):
        (tmp_path / "bad.txt").write_text(script)
        with pytest.raises(SystemExit, match=f"^error: {re.escape(str(tmp_path / 'bad.txt'))}:{line}: "):
            run("synth", str(tmp_path / "bad.txt"), str(tmp_path / "out"))


class TestChroma:
    def test_two_files_per_song(self, workspace):
        for stem in ("songA", "songB"):
            assert (workspace / "chroma" / f"{stem}.treble.chroma").exists()
            assert (workspace / "chroma" / f"{stem}.bass.chroma").exists()
            assert (workspace / "chroma" / f"{stem}.tuning.txt").exists()

    def test_grid_fallback_without_beats(self, tmp_path, workspace):
        out = tmp_path / "chroma_nobeats"
        assert (
            run("chroma", "--audio-dir", str(workspace / "audio"), "--chroma-dir", str(out)) == 0
        )
        from chordscribe.chroma import read_chromagram

        ch = read_chromagram(out / "songA.treble.chroma")
        assert np.allclose(np.diff(ch.starts), 0.5)

    def test_corrupt_wav_nonzero_exit(self, tmp_path, capsys):
        audio = tmp_path / "audio"
        audio.mkdir()
        (audio / "bad.wav").write_bytes(b"junk")
        assert run("chroma", "--audio-dir", str(audio), "--chroma-dir", str(tmp_path / "c")) == 1
        assert "bad" in capsys.readouterr().err

    def test_corrupt_wav_in_pool_nonzero_exit(self, tmp_path, capsys, workspace):
        audio = tmp_path / "audio"
        audio.mkdir()
        (audio / "bad.wav").write_bytes(b"junk")
        (audio / "songA.wav").write_bytes((workspace / "audio" / "songA.wav").read_bytes())
        argv = ["chroma", "--audio-dir", str(audio), "--chroma-dir", str(tmp_path / "c")]
        assert run(*argv, "--jobs", "2") == 1
        captured = capsys.readouterr()
        assert "error: bad:" in captured.err
        assert captured.out == "chroma: songA\n"

    def test_empty_audio_dir_nonzero(self, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        with pytest.raises(SystemExit) as info:
            run("chroma", "--audio-dir", str(audio), "--chroma-dir", str(tmp_path / "c"))
        assert str(info.value) == f"error: no *.wav files in {audio}"
        assert not (tmp_path / "c").exists()

    def test_parallel_jobs_match_serial(self, workspace, tmp_path):
        out = tmp_path / "chroma_jobs"
        assert (
            run(
                "chroma",
                "--audio-dir",
                str(workspace / "audio"),
                "--chroma-dir",
                str(out),
                "--beats",
                str(workspace / "beats"),
                "--jobs",
                "2",
            )
            == 0
        )
        for stem in ("songA", "songB"):
            a = (out / f"{stem}.treble.chroma").read_bytes()
            b = (workspace / "chroma" / f"{stem}.treble.chroma").read_bytes()
            assert a == b

    def test_chroma_never_imports_scipy(self, workspace, tmp_path):
        # Every scipy import raises in the blocked runs, serial and in two
        # workers: reading a 16-bit mono WAV at 11,025 Hz and a 44.1 kHz
        # stereo one, resampling and the chroma files need numpy alone, and
        # give the same files as a run with scipy importable.
        audio = tmp_path / "audio"
        audio.mkdir()
        (audio / "songA.wav").write_bytes((workspace / "audio" / "songA.wav").read_bytes())
        tone = synthesize_triads([({0, 4, 7}, 0, 1.5), ({7, 11, 2}, 7, 1.5)], 44100).samples
        wavfile.write(audio / "stereo.wav", 44100, np.round(np.stack([tone, -0.5 * tone], axis=1) * 32767).astype(np.int16))
        env = {**os.environ, "PYTHONPATH": str(Path(chordscribe.__file__).parents[1])}
        results = {}
        for mode, jobs in (("block", "1"), ("block", "2"), ("allow", "1")):
            out = tmp_path / f"{mode}{jobs}"
            argv = ["chroma", "--audio-dir", str(audio), "--chroma-dir", str(out), "--jobs", jobs]
            done = subprocess.run([sys.executable, "-c", BLOCKED_CHROMA, mode, *argv], capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            results[mode, jobs] = (done.stdout.splitlines()[-1], {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert results["block", "1"][0] == results["block", "2"][0] == "exit 0, scipy loaded: False"
        assert results["allow", "1"][0] == "exit 0, scipy loaded: True"
        assert len(results["block", "1"][1]) == 2 * 3  # songs x treble/bass/tuning
        assert results["block", "1"][1] == results["block", "2"][1] == results["allow", "1"][1]


    @staticmethod
    def _three_second_song(tmp_path, beats_text):
        audio, beats = tmp_path / "audio", tmp_path / "beats"
        audio.mkdir()
        beats.mkdir()
        write_wav(audio / "short.wav", synthesize_triads([({0, 4, 7}, 0, 3.0)], 11025))
        (beats / "short.txt").write_text(beats_text)
        return ["chroma", "--audio-dir", str(audio), "--chroma-dir", str(tmp_path / "c"), "--beats", str(beats)]

    @pytest.mark.parametrize("last", ["3.2", "1e9"])
    def test_beat_past_audio_end_names_line(self, tmp_path, capsys, last):
        argv = self._three_second_song(tmp_path, f"0\n1\n# comment\n2\n{last}\n")
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'beats' / 'short.txt'}:5: beat time {float(last)} is past the end" in err
        assert not (tmp_path / "c" / "short.treble.chroma").exists()

    @pytest.mark.parametrize("last", ["3.0", "3.09"])
    def test_beat_at_audio_end_is_legal(self, tmp_path, last):
        # 3.09 s is within one hop (1024 / 11025 s) of the end
        assert run(*self._three_second_song(tmp_path, f"0\n1\n2\n{last}\n")) == 0
        assert read_chromagram(tmp_path / "c" / "short.bass.chroma").ends[-1] == float(last)


# Prints the peak resident set after importing the libraries a chroma run
# loads, then after the run. VmHWM, not ru_maxrss: Linux carries a parent's
# peak RSS into a child's ru_maxrss across fork and exec.
PEAK_RSS = """
import sys
from chordscribe.cli import main

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

libraries = vm_hwm()
rc = main(sys.argv[1:])
print(rc, libraries, vm_hwm())
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_five_minute_chroma_peak_memory(tmp_path):
    sr, n = 44100, 44100 * 300
    audio = tmp_path / "audio"
    audio.mkdir()
    rng = np.random.default_rng(0)
    wavfile.write(audio / "long.wav", sr, rng.integers(-8000, 8000, n, dtype=np.int16))
    argv = ["chroma", "--audio-dir", str(audio), "--chroma-dir", str(tmp_path / "chroma")]
    src = str(Path(chordscribe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv], capture_output=True, text=True, check=True, env=env
    )
    rc, libraries, peak = map(int, out.stdout.split()[-3:])
    assert rc == 0
    # The 11,025 Hz signal; everything else (reader blocks, resampler
    # blocks, constant-Q blocks, 12 x frames outputs) fits in the margin.
    # Whole-signal temporaries (the file's samples or a float64 copy of
    # them at the source rate, |x|, a padded copy, a (frames, L) matrix
    # per bin) do not.
    arrays = 8 * (n // 4)
    assert peak - libraries <= arrays + 32 * 2**20


class TestTrain:
    def test_model_written_with_split_manifests(self, workspace):
        assert (workspace / "model.txt").exists()
        assert (workspace / "model.train_songs.txt").exists()
        train_songs = (workspace / "model.train_songs.txt").read_text().split()
        assert sorted(train_songs) == ["songA", "songB"]

    def test_deterministic_model_bytes(self, workspace, tmp_path):
        m2 = tmp_path / "model2.txt"
        assert (
            run(
                "train",
                "--chroma-dir",
                str(workspace / "chroma"),
                "--chords-dir",
                str(workspace / "chords"),
                "--keys-dir",
                str(workspace / "keys"),
                "--model",
                str(m2),
                "--train-fraction",
                "1.0",
                "--seed",
                "7",
            )
            == 0
        )
        assert m2.read_bytes() == (workspace / "model.txt").read_bytes()

    def test_split_fraction(self, workspace, tmp_path):
        m = tmp_path / "m.txt"
        assert (
            run(
                "train",
                "--chroma-dir",
                str(workspace / "chroma"),
                "--chords-dir",
                str(workspace / "chords"),
                "--model",
                str(m),
                "--train-fraction",
                "0.5",
                "--seed",
                "0",
            )
            == 0
        )
        train_songs = m.with_suffix(".train_songs.txt").read_text().split()
        test_songs = m.with_suffix(".test_songs.txt").read_text().split()
        assert len(train_songs) == 1 and len(test_songs) == 1

    def test_parallel_jobs_match_serial(self, workspace, tmp_path, monkeypatch):
        import chordscribe.cli as cli

        pools = []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        outputs = {}
        for jobs in ("1", "2"):
            m = tmp_path / f"jobs{jobs}" / "model.txt"
            argv = ["train", "--chroma-dir", str(workspace / "chroma"), "--chords-dir"]
            argv += [str(workspace / "chords"), "--keys-dir", str(workspace / "keys")]
            argv += ["--model", str(m), "--train-fraction", "1.0", "--seed", "3"]
            assert run(*argv, "--jobs", jobs) == 0
            outputs[jobs] = {p.name: p.read_bytes() for p in sorted(m.parent.iterdir())}
        assert sorted(outputs["1"]) == [
            "model.test_songs.txt",
            "model.train_songs.txt",
            "model.txt",
        ]
        assert outputs["2"] == outputs["1"]
        assert len(pools) == 1

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5"])
    def test_train_fraction_flag_out_of_range_exits(self, workspace, tmp_path, fraction):
        argv = ["train", "--chroma-dir", str(workspace / "chroma"), "--chords-dir", str(workspace / "chords")]
        argv += ["--model", str(tmp_path / "m.txt"), "--train-fraction", fraction]
        with pytest.raises(SystemExit, match=rf"^error: train_fraction must be in \(0, 1\], got {float(fraction)}$"):
            run(*argv)
        assert not (tmp_path / "m.txt").exists()

    def test_train_fraction_config_out_of_range_names_line(self, workspace, tmp_path):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(f"chroma_dir = {workspace / 'chroma'}\ntrain_fraction = 0\n")
        argv = ["train", "--config", str(cfg_file), "--chords-dir", str(workspace / "chords")]
        with pytest.raises(SystemExit, match=f"^error: {re.escape(str(cfg_file))}:2: train_fraction must be in"):
            run(*argv, "--model", str(tmp_path / "m.txt"))

    def test_no_songs_nonzero(self, tmp_path):
        for d in ("c", "l"):
            (tmp_path / d).mkdir()
        with pytest.raises(SystemExit) as info:
            run("train", "--chroma-dir", str(tmp_path / "c"), "--chords-dir", str(tmp_path / "l"),
                "--model", str(tmp_path / "m" / "m.txt"))  # fmt: skip
        assert str(info.value) == f"error: no *.treble.chroma files in {tmp_path / 'c'}"
        assert not (tmp_path / "m").exists()

    def test_no_labelled_songs_stops_before_writing(self, workspace, tmp_path):
        (tmp_path / "l").mkdir()
        chroma = workspace / "chroma"
        with pytest.raises(SystemExit) as info:
            run("train", "--chroma-dir", str(chroma), "--chords-dir", str(tmp_path / "l"),
                "--model", str(tmp_path / "m" / "m.txt"))  # fmt: skip
        need = f"need {chroma}/<stem>.treble.chroma + {tmp_path / 'l'}/<stem>.lab"
        assert str(info.value) == f"error: no training songs ({need})"
        assert not (tmp_path / "m").exists()

    def test_no_loadable_songs_stops_before_writing(self, workspace, tmp_path, capsys):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "songA.treble.chroma").write_text("junk\n")
        with pytest.raises(SystemExit) as info:
            run("train", "--chroma-dir", str(tmp_path / "c"), "--chords-dir", str(workspace / "chords"),
                "--model", str(tmp_path / "m" / "m.txt"))  # fmt: skip
        assert str(info.value) == "error: no loadable training songs"
        assert capsys.readouterr().err.startswith("error: songA: ")  # the song's own line
        assert not (tmp_path / "m").exists()


# argv[1] is a mode. With mode "block", a finder first in sys.meta_path
# fails every import of scipy, in this process and in the workers it forks;
# mode "allow" imports scipy.linalg itself, to show that it can. The mode
# is taken off argv for the script that follows.
BLOCK_SCIPY = """
import sys
if sys.argv.pop(1) == "block":
    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"blocked: {name}")
    sys.meta_path.insert(0, BlockScipy())
else:
    import scipy.linalg
"""

# argv: model file, chroma directory, then the decode command's argv.
# Loads the model, decodes songA free and with gamma=0, tau=3 and CAC,
# printing each path's log-prob and chord states, then runs the decode
# command. The last line reports the command's exit status and whether
# scipy was loaded.
BLOCKED_DECODE = BLOCK_SCIPY + """
from pathlib import Path
model_path, chroma, *argv = sys.argv[1:]
from chordscribe.chroma import read_chromagram
from chordscribe.cli import main
from chordscribe.decode import Constraints, viterbi_joint
from chordscribe.model import load_model
model = load_model(model_path)
treble, bass = (read_chromagram(Path(chroma) / f"songA.{band}.chroma") for band in ("treble", "bass"))
for constraints in (Constraints(), Constraints(gamma=0, tau=3, cac=True)):
    path = viterbi_joint(model, constraints, treble, bass)
    print(repr(path.log_prob), path.chords.tolist())
rc = main(argv)
print(f"exit {rc}, scipy loaded: {'scipy' in sys.modules}")
"""

# argv: the chroma command's argv; the last line as BLOCKED_DECODE's.
BLOCKED_CHROMA = BLOCK_SCIPY + """
from chordscribe.cli import main
rc = main(sys.argv[1:])
print(f"exit {rc}, scipy loaded: {'scipy' in sys.modules}")
"""


# A free and a tight decode of 100 random frames in one process, then the
# decode command over the workspace songs at both settings: the log-probs,
# path digests and label-file digests they give.
DECODE_DIGESTS = """
import contextlib, hashlib, io, tempfile
from pathlib import Path
import numpy as np
from chordscribe.chroma import Chromagram
from chordscribe.cli import main
from chordscribe.decode import Constraints, viterbi_joint
from chordscribe.model import load_model
model_path, chroma = {model!r}, {chroma!r}
model = load_model(model_path)
t = np.arange(100) * 0.5
frames = np.random.default_rng(3).random((2, 12, t.size))
treble, bass = (Chromagram(v, t, t + 0.5, band) for v, band in zip(frames, ("treble", "bass")))
for tight in (False, True):
    path = viterbi_joint(model, Constraints(gamma=0, tau=3, cac=True) if tight else Constraints(), treble, bass)
    states = np.concatenate([path.keys, path.chords, path.basses]).tobytes()
    print(repr(path.log_prob), hashlib.sha256(states).hexdigest())
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        argv = ["decode", "--chroma-dir", chroma, "--model", model_path, "--output-dir", out]
        assert main(argv + (["--gamma", "0", "--tau", "3", "--cac"] if tight else [])) == 0
        labels = [p.name + hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).glob("*.lab"))]
    print(len(labels), hashlib.sha256("".join(labels).encode()).hexdigest())
"""


class TestDecode:
    def test_label_files_written(self, workspace):
        for stem in ("songA", "songB"):
            for kind in ("key", "chord", "bass"):
                assert (workspace / "pred" / f"{stem}.{kind}.lab").exists()

    def test_decode_recovers_script(self, workspace):
        from chordscribe.annotations import parse_lab
        from chordscribe.evaluate import overlap_ratio

        pred = parse_lab(workspace / "pred" / "songA.chord.lab")
        gt = parse_lab(workspace / "chords" / "songA.lab")
        assert overlap_ratio(pred, gt, "majmin") >= 0.9

    def test_timing_log(self, workspace):
        rows = (workspace / "pred" / "timing.csv").read_text().splitlines()
        assert rows[0].startswith("gamma,tau,song")
        assert len(rows) == 3

    def test_sweep_mode(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        assert (
            run(
                "decode",
                "--chroma-dir",
                str(workspace / "chroma"),
                "--model",
                str(workspace / "model.txt"),
                "--output-dir",
                str(out),
                "--tau",
                "13,3",
                "--cac",
            )
            == 0
        )
        rows = (out / "timing.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 2 songs x 2 settings
        assert (out / "gNone_t13" / "songA.chord.lab").exists()
        assert (out / "gNone_t3" / "songA.chord.lab").exists()

    def test_parallel_sweep_matches_serial(self, workspace, tmp_path, monkeypatch):
        import chordscribe.cli as cli
        from chordscribe.model import HpModel

        pools, submitted = [], []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["initargs"])
                super().__init__(*args, **kwargs)

            def submit(self, fn, *args, **kwargs):
                submitted.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        outputs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["decode", "--chroma-dir", str(workspace / "chroma"), "--model"]
            argv += [str(workspace / "model.txt"), "--output-dir", str(out), "--tau", "13,3"]
            assert run(*argv, "--jobs", jobs) == 0
            outputs[jobs] = {
                p.relative_to(out): p.read_bytes() for p in sorted(out.glob("*/*.lab"))
            }
            # timing.csv without its feature_s and decode_s columns
            rows = [r.split(",") for r in (out / "timing.csv").read_text().splitlines()]
            outputs[jobs]["timing"] = [r[:4] + r[6:] for r in rows]
        assert len(outputs["1"]) == 2 * 2 * 3 + 1  # settings x songs x key/chord/bass, timing
        assert outputs["2"] == outputs["1"]
        # one pool for the whole sweep, which receives the model and the
        # chroma directory once per worker; the jobs carry only the song,
        # the setting and its output directory
        assert len(pools) == 1
        assert [type(x) for x in pools[0][1:]] == [HpModel, type(workspace)]
        assert sorted(job[0] for job in submitted) == ["songA", "songA", "songB", "songB"]
        assert not any(isinstance(x, HpModel) for job in submitted for x in job)

    def test_decode_never_imports_scipy(self, workspace, tmp_path):
        # Every scipy import raises in the blocked run: loading the model, a
        # free and a tight decode (whose first pass runs the 24-d chord-only
        # model) and the decode command need numpy alone, and give the same
        # log-probs and label files as a run with scipy importable.
        chroma, model = workspace / "chroma", workspace / "model.txt"
        results = {}
        for mode in ("block", "allow"):
            out = tmp_path / mode
            argv = ["decode", "--chroma-dir", str(chroma), "--model", str(model), "--output-dir", str(out)]
            argv += ["--gamma", "0", "--tau", "3", "--cac"]
            env = {**os.environ, "PYTHONPATH": str(Path(chordscribe.__file__).parents[1])}
            cmd = [sys.executable, "-c", BLOCKED_DECODE, mode, str(model), str(chroma), *argv]
            done = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            labels = {p.name: p.read_bytes() for p in sorted(out.glob("*.lab"))}
            results[mode] = (done.stdout, labels)
        assert results["block"][0].splitlines()[-1] == "exit 0, scipy loaded: False"
        assert results["allow"][0].splitlines()[-1] == "exit 0, scipy loaded: True"
        assert results["block"][0].splitlines()[:-1] == results["allow"][0].splitlines()[:-1]
        assert len(results["block"][1]) == 2 * 3  # songs x key/chord/bass
        assert results["block"][1] == results["allow"][1]

    def test_decode_outputs_equal_at_one_and_two_blas_threads(self, workspace):
        # The emissions and the first pass run BLAS products.
        script = DECODE_DIGESTS.format(model=str(workspace / "model.txt"), chroma=str(workspace / "chroma"))
        one, two = stdout_at_one_and_two_blas_threads(script)
        assert len(one.splitlines()) == 4 and one.splitlines()[1].startswith("6 ")
        assert one == two

    def test_missing_model_exits(self, workspace, tmp_path):
        with pytest.raises(SystemExit):
            run(
                "decode",
                "--chroma-dir",
                str(workspace / "chroma"),
                "--model",
                str(tmp_path / "ghost.txt"),
                "--output-dir",
                str(tmp_path / "o"),
            )

    def test_chroma_without_frames_names_file(self, workspace, tmp_path, capsys):
        """A `.chroma` header of 0 frames is rejected at its line, and the
        per-song error on stderr names the file."""
        chroma = tmp_path / "chroma"
        chroma.mkdir()
        (chroma / "empty.treble.chroma").write_text("treble 0\n")
        (chroma / "empty.bass.chroma").write_text("bass 0\n")
        argv = ["--chroma-dir", str(chroma), "--model", str(workspace / "model.txt")]
        assert run("decode", *argv, "--output-dir", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        setting = "(gamma=None, tau=None, cac=False)"
        assert f"error: empty {setting}: {chroma / 'empty.treble.chroma'}:1: a chromagram needs at least one frame" in err

    def test_sweep_error_names_each_setting(self, workspace, tmp_path, capsys):
        chroma = tmp_path / "chroma"
        chroma.mkdir()
        for band in ("treble", "bass"):
            (chroma / f"empty.{band}.chroma").write_text(f"{band} 0\n")
            (chroma / f"songA.{band}.chroma").write_bytes((workspace / "chroma" / f"songA.{band}.chroma").read_bytes())
        argv = ["--chroma-dir", str(chroma), "--model", str(workspace / "model.txt"), "--tau", "13,3", "--cac"]
        assert run("decode", *argv, "--output-dir", str(tmp_path / "o")) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        named = [line.partition(": ")[2].partition(":")[0] for line in errors]
        assert named == [f"empty (gamma=None, tau={tau}, cac=True)" for tau in (13, 3)]
        rows = (tmp_path / "o" / "timing.csv").read_text().splitlines()
        assert [row.split(",")[:3] for row in rows[1:]] == [["None", "13", "songA"], ["None", "3", "songA"]]


class TestEval:
    def test_perfect_predictions_score_one(self, workspace, tmp_path, capsys):
        # score the ground truth against itself (rename to prediction layout)
        pred = tmp_path / "self_pred"
        pred.mkdir()
        for stem in ("songA", "songB"):
            text = (workspace / "chords" / f"{stem}.lab").read_text()
            (pred / f"{stem}.chord.lab").write_text(text)
            key_text = (workspace / "keys" / f"{stem}.lab").read_text()
            (pred / f"{stem}.key.lab").write_text(key_text)
        assert (
            run(
                "eval",
                "--pred-dir",
                str(pred),
                "--chords-dir",
                str(workspace / "chords"),
                "--keys-dir",
                str(workspace / "keys"),
                "--output-dir",
                str(tmp_path / "report"),
            )
            == 0
        )
        rows = (tmp_path / "report" / "report.csv").read_text().splitlines()
        assert "ALL,cp_mean,1.000000" in rows
        assert "ALL,key_hit_mean,1.000000" in rows

    def test_decoded_predictions_report(self, workspace, tmp_path):
        assert (
            run(
                "eval",
                "--pred-dir",
                str(workspace / "pred"),
                "--chords-dir",
                str(workspace / "chords"),
                "--keys-dir",
                str(workspace / "keys"),
                "--beats",
                str(workspace / "beats"),
                "--output-dir",
                str(tmp_path / "report2"),
            )
            == 0
        )
        csv = (tmp_path / "report2" / "report.csv").read_text()
        assert "songA,or_majmin" in csv
        assert "songA,f_bass" in csv

    def test_missing_prediction_flagged(self, workspace, tmp_path, capsys):
        pred = tmp_path / "partial"
        pred.mkdir()
        (pred / "songA.chord.lab").write_text((workspace / "chords" / "songA.lab").read_text())
        (pred / "songA.key.lab").write_text((workspace / "keys" / "songA.lab").read_text())
        code = run(
            "eval",
            "--pred-dir",
            str(pred),
            "--chords-dir",
            str(workspace / "chords"),
            "--output-dir",
            str(tmp_path / "report3"),
        )
        assert code == 1
        assert "flagged: songB" in capsys.readouterr().err
        csv = (tmp_path / "report3" / "report.csv").read_text()
        assert "songB,or_majmin,0.000000" in csv

    @pytest.mark.parametrize("last", ["6.0", "6.5", "1e9"])
    def test_beat_past_annotation_end_names_line(self, workspace, tmp_path, capsys, last):
        # songA's chord annotation ends at 6.0 s; a beat exactly there is legal
        beats = tmp_path / "beats"
        beats.mkdir()
        (beats / "songA.txt").write_text(f"0\n1.5\n# comment\n3\n4.5\n{last}\n")
        (beats / "songB.txt").write_text((workspace / "beats" / "songB.txt").read_text())
        code = run(
            "eval",
            "--pred-dir",
            str(workspace / "pred"),
            "--chords-dir",
            str(workspace / "chords"),
            "--beats",
            str(beats),
            "--output-dir",
            str(tmp_path / "r"),
        )
        err = capsys.readouterr().err
        if last == "6.0":
            assert code == 0 and "flagged" not in err
        else:
            assert code == 1
            assert f"error: songA: {beats / 'songA.txt'}:6: beat time {float(last)} is past the end" in err
            assert "flagged" not in err
            assert "songA," not in (tmp_path / "r" / "report.csv").read_text()

    def test_bad_key_file_fails_song(self, workspace, tmp_path, capsys):
        # The key file is ground truth: its fault leaves the song out, rather
        # than flagging it and zeroing its correct chord scores.
        keys = tmp_path / "keys"
        keys.mkdir()
        (keys / "songA.lab").write_text((workspace / "keys" / "songA.lab").read_text())
        (keys / "songB.lab").write_text("0 3 C:maj\n0 x G:maj\n")
        argv = ["--pred-dir", str(workspace / "pred"), "--chords-dir", str(workspace / "chords")]
        code = run("eval", *argv, "--keys-dir", str(keys), "--output-dir", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: songB: {keys / 'songB.lab'}:2: " in err and "flagged" not in err
        csv = (tmp_path / "r" / "report.csv").read_text()
        assert "songB," not in csv and "songA,key_hit,1.000000" in csv

    def test_aggregate_over_songs_reporting_metric(self, workspace, tmp_path):
        # Only songA has a key annotation, and its key is a hit: songB has no
        # key_hit to count, so the mean is 1, not 0.5.
        pred, keys = tmp_path / "pred", tmp_path / "keys"
        pred.mkdir()
        keys.mkdir()
        for stem in ("songA", "songB"):
            (pred / f"{stem}.chord.lab").write_text((workspace / "chords" / f"{stem}.lab").read_text())
            (pred / f"{stem}.key.lab").write_text((workspace / "keys" / f"{stem}.lab").read_text())
        (keys / "songA.lab").write_text((workspace / "keys" / "songA.lab").read_text())
        argv = ["--pred-dir", str(pred), "--chords-dir", str(workspace / "chords"), "--keys-dir", str(keys)]
        assert run("eval", *argv, "--output-dir", str(tmp_path / "r")) == 0
        rows = (tmp_path / "r" / "report.csv").read_text().splitlines()
        assert "ALL,key_hit_mean,1.000000" in rows and "ALL,key_hit_weighted,1.000000" in rows
        assert not any(row.startswith("songB,key_hit") for row in rows)

    def test_f_bass_pinned(self, tmp_path):
        # Ground-truth basses per beat: C, then E (C:maj/3 has its third in
        # the bass), then none (2-3 s has no annotation), then G. The
        # prediction holds C through 2 s and G after, so it matches beats 1
        # and 4 of the 3 covered ones: f_bass = 2/3. Reading the inversion
        # as root position would give 1, and scoring the uncovered beat
        # would give 3/4 or 2/4.
        for d in ("chords", "pred", "beats"):
            (tmp_path / d).mkdir()
        (tmp_path / "chords" / "s.lab").write_text("0 1 C:maj\n1 2 C:maj/3\n3 4 G:maj\n")
        (tmp_path / "pred" / "s.chord.lab").write_text("0 2 C:maj\n2 4 G:maj\n")
        (tmp_path / "pred" / "s.bass.lab").write_text("0 2 C\n2 4 G\n")
        (tmp_path / "beats" / "s.txt").write_text("0\n1\n2\n3\n4\n")
        argv = ["--pred-dir", str(tmp_path / "pred"), "--chords-dir", str(tmp_path / "chords")]
        argv += ["--beats", str(tmp_path / "beats"), "--output-dir", str(tmp_path / "r")]
        assert run("eval", *argv) == 0
        assert "s,f_bass,0.666667" in (tmp_path / "r" / "report.csv").read_text().splitlines()

    def test_compare_t_test_row(self, workspace, tmp_path, capsys):
        # second prediction dir: perfect on songA, degraded on songB
        pred2 = tmp_path / "pred2"
        pred2.mkdir()
        for stem in ("songA", "songB"):
            text = (workspace / "chords" / f"{stem}.lab").read_text()
            if stem == "songB":
                text = text.replace("F:maj", "D:min").replace("C:maj", "B:maj", 1)
            (pred2 / f"{stem}.chord.lab").write_text(text)
        run(
            "eval",
            "--pred-dir",
            str(workspace / "pred"),
            "--chords-dir",
            str(workspace / "chords"),
            "--output-dir",
            str(tmp_path / "r"),
            "--compare",
            str(pred2),
        )
        out = capsys.readouterr().out
        assert "paired t-test" in out and "t=" in out

    @staticmethod
    def _three_songs(workspace, root):
        """Ground truth and decoded predictions of songA, songB and songC (a
        copy of songB), and a comparison dir: songA perfect, songB and songC
        degraded."""
        dirs = [root / d for d in ("chords", "pred", "cmp")]
        for d in dirs:
            d.mkdir()
        for stem, source in (("songA", "songA"), ("songB", "songB"), ("songC", "songB")):
            text = (workspace / "chords" / f"{source}.lab").read_text()
            (root / "chords" / f"{stem}.lab").write_text(text)
            for kind in ("chord", "key", "bass"):
                pred = (workspace / "pred" / f"{source}.{kind}.lab").read_bytes()
                (root / "pred" / f"{stem}.{kind}.lab").write_bytes(pred)
            if stem != "songA":
                text = text.replace("F:maj", "D:min").replace("C:maj", "B:maj", 1)
            (root / "cmp" / f"{stem}.chord.lab").write_text(text)
        return dirs

    def _report(self, chords, pred, out, *extra):
        code = run("eval", "--pred-dir", str(pred), "--chords-dir", str(chords), "--output-dir", str(out), *extra)
        return code, (out / "report.txt").read_bytes(), (out / "report.csv").read_bytes()

    def _without(self, tmp_path, chords, stem):
        """A copy of the ground-truth dir without one song."""
        rest = tmp_path / f"chords_without_{stem}"
        rest.mkdir()
        for lab in chords.glob("*.lab"):
            if lab.stem != stem:
                (rest / lab.name).write_bytes(lab.read_bytes())
        return rest

    def test_malformed_ground_truth_fails_one_song(self, workspace, tmp_path, capsys):
        chords, pred, _ = self._three_songs(workspace, tmp_path)
        bad = chords / "songB.lab"
        bad.write_text("0 1.5 F:maj\n1.5 x C:maj\n")
        code, text, csv = self._report(chords, pred, tmp_path / "r")
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: songB: {bad}:2: " in err and "Traceback" not in err
        assert b"songB," not in csv and b"songA," in csv and b"songC," in csv
        # the report is that of the readable songs alone
        assert self._report(self._without(tmp_path, chords, "songB"), pred, tmp_path / "r2")[1:] == (text, csv)

    def test_missing_comparison_fails_one_song(self, workspace, tmp_path, capsys):
        chords, pred, cmp = self._three_songs(workspace, tmp_path)
        (cmp / "songB.chord.lab").unlink()
        code, text, csv = self._report(chords, pred, tmp_path / "r", "--compare", str(cmp))
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: songB: [Errno 2] No such file or directory: '{cmp / 'songB.chord.lab'}'" in err
        assert "Traceback" not in err
        assert b"songB," not in csv
        # the t-test pairs songA and songC, as a run without songB does
        rest = self._without(tmp_path, chords, "songB")
        assert self._report(rest, pred, tmp_path / "r2", "--compare", str(cmp)) == (0, text, csv)
        assert b"paired t-test (or_majmin vs " + str(cmp).encode() + b"): t=" in text

    def test_parallel_compare_matches_serial(self, workspace, tmp_path, monkeypatch):
        import chordscribe.cli as cli

        pools = []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        chords, pred, cmp = self._three_songs(workspace, tmp_path)
        extra = ["--keys-dir", str(workspace / "keys"), "--beats", str(workspace / "beats"), "--compare", str(cmp)]
        serial = self._report(chords, pred, tmp_path / "j1", *extra, "--jobs", "1")
        assert not pools
        assert self._report(chords, pred, tmp_path / "j2", *extra, "--jobs", "2") == serial
        assert len(pools) == 1
        assert b"t=" in serial[1] and b"songC,f_bass" in serial[2]

    def test_compare_identical_dirs_degenerate(self, workspace, tmp_path, capsys):
        run(
            "eval",
            "--pred-dir",
            str(workspace / "pred"),
            "--chords-dir",
            str(workspace / "chords"),
            "--output-dir",
            str(tmp_path / "r2"),
            "--compare",
            str(workspace / "pred"),
        )
        assert "not computable" in capsys.readouterr().out


class TestConfigFile:
    def test_nonpositive_beat_period_exits_naming_line(self, workspace, tmp_path, capsys):
        cfg_file = tmp_path / "grid.cfg"
        cfg_file.write_text(f"audio_dir = {workspace / 'audio'}\nbeat_period = -1\n")
        argv = ["chroma", "--config", str(cfg_file), "--chroma-dir", str(tmp_path / "c")]
        with pytest.raises(SystemExit, match=f"^error: {re.escape(str(cfg_file))}:2: beat_period must be positive"):
            run(*argv)
        assert "need at least 2 beats" not in capsys.readouterr().err

    def test_out_of_range_setting_stops_before_any_song(self, workspace, tmp_path, capsys):
        cfg_file = tmp_path / "hop.cfg"
        cfg_file.write_text("hop = 0\n")
        argv = ["chroma", "--config", str(cfg_file), "--audio-dir", str(workspace / "audio")]
        with pytest.raises(SystemExit) as info:
            run(*argv, "--chroma-dir", str(tmp_path / "c"))
        assert str(info.value) == f"error: {cfg_file}:1: hop must be >= 1"
        assert capsys.readouterr().err == ""  # no per-song error line
        assert not list(tmp_path.rglob("*.chroma"))

    def test_bad_sweep_flag_is_one_error_line(self, workspace, tmp_path, capsys):
        argv = ["decode", "--chroma-dir", str(workspace / "chroma"), "--model", str(workspace / "model.txt")]
        with pytest.raises(SystemExit) as info:
            run(*argv, "--output-dir", str(tmp_path / "o"), "--gamma", "x")
        assert str(info.value) == "error: gamma: expected a comma list of integers and nones, got 'x'"
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(("line", "message"), [
        ("jobs = x", "jobs: expected an integer, got 'x'"),
        ("alpha = 0.5.1", "alpha: expected a number, got '0.5.1'"),
        ("tau = 3, three", "tau: expected a comma list of integers and nones, got '3, three'"),
    ])  # fmt: skip
    def test_unparsable_value_names_setting_and_line(self, tmp_path, line, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"# settings\n{line}\n")
        with pytest.raises(SystemExit) as info:
            run("decode", "--config", str(cfg_file))
        assert str(info.value) == f"error: {cfg_file}:2: {message}"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as info:
            run("decode", "--jobs", jobs)
        assert str(info.value) == f"error: jobs must be >= 1, got {jobs}"
        cfg_file = tmp_path / "jobs.cfg"
        cfg_file.write_text(f"jobs = {jobs}\n")
        with pytest.raises(SystemExit) as info:
            run("decode", "--config", str(cfg_file))
        assert str(info.value) == f"error: {cfg_file}:1: jobs must be >= 1, got {jobs}"

    def test_missing_input_file_is_one_error_line(self, tmp_path, monkeypatch):
        # a config file by flag or HP_CONFIG, and a synth script
        missing = tmp_path / "missing.cfg"
        for argv in (["decode", "--config", str(missing)], ["synth", str(missing), str(tmp_path / "out")]):
            with pytest.raises(SystemExit) as info:
                run(*argv)
            assert str(info.value) == f"error: {missing}: No such file or directory"
        monkeypatch.setenv("HP_CONFIG", str(missing))
        with pytest.raises(SystemExit) as info:
            run("train")
        assert str(info.value) == f"error: {missing}: No such file or directory"

    def test_each_subcommand_takes_the_flags_it_reads(self, capsys):
        import argparse

        from chordscribe.cli import build_parser

        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            name: [a.option_strings[0] if a.option_strings else a.dest for a in p._actions[1:]]
            for name, p in commands.choices.items()
        }
        assert taken == {
            "chroma": ["--config", "--audio-dir", "--chroma-dir", "--beats", "--jobs"],
            "train": [
                "--config", "--chroma-dir", "--chords-dir", "--keys-dir", "--model",
                "--alphabet", "--alpha", "--seed", "--jobs", "--train-fraction",
            ],
            "decode": ["--config", "--chroma-dir", "--model", "--output-dir", "--gamma", "--tau", "--cac", "--jobs"],
            "eval": ["--config", "--chords-dir", "--keys-dir", "--beats", "--pred-dir", "--output-dir", "--jobs",
                     "--compare"],
            "synth": ["--config", "script", "out_stem", "--key"],
        }  # fmt: skip
        with pytest.raises(SystemExit) as info:
            run("decode", "--seed", "3")
        assert info.value.code == 2 and "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_parse_and_override(self, tmp_path, workspace):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"chroma_dir = {workspace / 'chroma'}\n"
            f"model_path = {workspace / 'model.txt'}\n"
            "tau = 3\n"
            "cac = true\n"
            "# comment\n"
        )
        out = tmp_path / "out"
        assert run("decode", "--config", str(cfg_file), "--output-dir", str(out)) == 0
        rows = (out / "timing.csv").read_text().splitlines()
        assert rows[1].startswith("None,3,")

    def test_env_var_default(self, tmp_path, workspace, monkeypatch):
        cfg_file = tmp_path / "env.cfg"
        cfg_file.write_text(f"chroma_dir = {workspace / 'chroma'}\n")
        monkeypatch.setenv("HP_CONFIG", str(cfg_file))
        out = tmp_path / "out2"
        assert (
            run(
                "decode",
                "--model",
                str(workspace / "model.txt"),
                "--output-dir",
                str(out),
            )
            == 0
        )

    def test_bad_key_rejected(self, tmp_path):
        import argparse

        from chordscribe.cli import build_config

        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        with pytest.raises(ValueError):
            build_config(argparse.Namespace(config=str(cfg_file)))

    def test_sweep_field_names_rejected(self, tmp_path):
        """The sweeps are set by `gamma` and `tau`; plural keys are unknown."""
        import argparse

        from chordscribe.cli import build_config

        for line in ("gammas = 0", "taus = 3"):
            cfg_file = tmp_path / "sweep.cfg"
            cfg_file.write_text(line + "\n")
            with pytest.raises(ValueError, match=f"unknown config key '{line.split()[0]}'"):
                build_config(argparse.Namespace(config=str(cfg_file)))

    def test_values_take_default_types(self, tmp_path):
        import argparse

        from chordscribe.cli import build_config

        cfg_file = tmp_path / "types.cfg"
        cfg_file.write_text(
            "jobs = 2\nalpha = 0.5\ncac = yes\nalphabet = full121\n"
            "chroma_dir = c\ngamma = 0, none\ntau = 3\n"
        )
        cfg = build_config(argparse.Namespace(config=str(cfg_file)))
        assert (cfg.jobs, cfg.alpha, cfg.cac) == (2, 0.5, True)
        assert type(cfg.jobs) is int and type(cfg.alpha) is float
        assert (cfg.alphabet, cfg.chroma_dir) == ("full121", "c")
        assert (cfg.gamma, cfg.tau) == ((0, None), (3,))


def _settings(workspace, out) -> dict:
    """Each subcommand's required settings by flag: inputs from the
    workspace, outputs under `out`."""
    return {
        "chroma": {"--audio-dir": workspace / "audio", "--chroma-dir": out / "chroma"},
        "train": {"--chroma-dir": workspace / "chroma", "--chords-dir": workspace / "chords", "--model": out / "m.txt"},
        "decode": {"--chroma-dir": workspace / "chroma", "--model": workspace / "model.txt", "--output-dir": out},
        "eval": {"--chords-dir": workspace / "chords", "--pred-dir": workspace / "pred", "--output-dir": out},
    }


class TestRunLevelFaults:
    """A run-level fault is one `error:` line naming what to fix, and the
    run creates nothing before it."""

    @staticmethod
    def stopped(capsys, command, given: dict) -> str:
        """The SystemExit message of a run given these flags; nothing else
        may reach stdout or stderr."""
        with pytest.raises(SystemExit) as info:
            run(command, *[str(part) for pair in given.items() for part in pair])
        assert capsys.readouterr() == ("", "")
        return str(info.value)

    @pytest.mark.parametrize(("command", "name", "flag"), [
        ("chroma", "audio_dir", "--audio-dir"), ("chroma", "chroma_dir", "--chroma-dir"),
        ("train", "chroma_dir", "--chroma-dir"), ("train", "chords_dir", "--chords-dir"),
        ("train", "model_path", "--model"),
        ("decode", "chroma_dir", "--chroma-dir"), ("decode", "model_path", "--model"),
        ("decode", "output_dir", "--output-dir"),
        ("eval", "chords_dir", "--chords-dir"), ("eval", "pred_dir", "--pred-dir"),
        ("eval", "output_dir", "--output-dir"),
    ])  # fmt: skip
    def test_missing_setting_names_its_flag(self, workspace, tmp_path, capsys, command, name, flag):
        given = _settings(workspace, tmp_path / "out")[command]
        del given[flag]
        assert self.stopped(capsys, command, given) == f"error: {name} is required (flag {flag})"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(("command", "flag", "suffix"), [
        ("chroma", "--audio-dir", ".wav"), ("train", "--chroma-dir", ".treble.chroma"),
        ("decode", "--chroma-dir", ".treble.chroma"), ("eval", "--chords-dir", ".lab"),
    ])  # fmt: skip
    def test_empty_input_dir_stops_before_writing(self, workspace, tmp_path, capsys, command, flag, suffix):
        empty = tmp_path / "empty"
        empty.mkdir()
        given = {**_settings(workspace, tmp_path / "out")[command], flag: empty}
        assert self.stopped(capsys, command, given) == f"error: no *{suffix} files in {empty}"
        assert not (tmp_path / "out").exists()
