"""Check that two source trees give the same answers on a fixed pipeline.

Runs one scenario set with the working tree's `src/` and with the `src/`
of a git ref, and compares every output file:

    synth  four seeded songs (three at 44.1 kHz, one at 22.05 kHz) with
           chord, key and beat files, plus one-song sources at 48, 16 and
           8 kHz that only go through `chroma`; and a second set of key
           files in which the first song moves between its key and the
           key a fifth above every few seconds
    chroma with beat files; and the 48 kHz source alone with `hop = 1023`
           (an odd hop, whose windows the constant-Q copies) and the
           8 kHz one with `hop = 200` (bass windows over 16 hops long,
           which the constant-Q copies), each set in a config file
    train  majmin25 and full121; full121 with no key files, alpha 0
           and every song in training, so every key is unlabeled and the
           key-relative chord rows stay all zero; and full121 on the
           moving key files with every song in training
    decode gamma=0, tau=3, CAC (both models); full121 unconstrained,
           tau=3 alone, gamma=0 alone (a live-key subset with every
           chord and all 13 basses, each key its own one predecessor),
           CAC alone and CAC with tau=3 (a working set of few chords,
           whose stage tables are small); gamma=2 alone on the moving-key
           model, whose first song's two keys each follow the other more
           than twice, so they have two predecessors (D = 2) and the
           other live keys one; and a `--jobs 2` sweep gamma in {0, 2} x
           tau in {1, 3, 13} with CAC
    eval   the tight full121 decode, `--compare` against the unconstrained;
           and the same at `--jobs 2`
    log-probs  the tight, the unconstrained, the tau=3, the gamma=0, the
           CAC, the CAC with tau=3 and the moving-key gamma=2 full121
           decodes again, in one process calling `viterbi_joint`, written
           as `setting/stem repr(log_prob)` lines to `log_probs.txt`; the
           step fails if the gamma=2 decode no longer gives some live key
           two predecessors and some row no path to a live key

Each tree writes the inputs with its own `synth`, and the two sets are
compared byte for byte, WAVs included; both trees then read the working
tree's set. Every run pins the BLAS thread count to 1, because `.chroma`
and model bits can depend on it. Files must be byte-identical, except
`timing.csv`, where `feature_s` and `decode_s` are skipped (its log-probs,
rounded to 4 decimals, are compared as written), and `log_probs.txt`,
whose full-precision log-probs are compared to 1e-9. For each file that
differs, the first differing line (of a WAV, the first differing byte) is
printed. Exit status: 0 when nothing differs, 1 otherwise.

The ref's tree is extracted with `git archive`, which gives the committed
files of the ref and leaves nothing registered in the repository.

    python tools/same_answers.py                  # working tree vs HEAD
    python tools/same_answers.py --ref origin/main --work /tmp/sa  # keeps /tmp/sa

Needs the Python standard library, git, and the packages chordscribe
itself needs.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LOG_PROB_TOL = 1e-9
TIMING_SKIPPED = ("feature_s", "decode_s")

# Diatonic harmony (root offset from the tonic, quality) with inversions and
# sevenths, so that the full121 alphabet sees more than triads.
_HARMONY = ((0, "maj"), (0, "maj/3"), (2, "min"), (4, "min7"), (5, "maj"), (5, "maj/5"),
            (7, "7"), (7, "maj"), (9, "min"), (11, "dim"))  # fmt: skip
_PITCH = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
# (stem, sample rate, seconds); "main" songs go through the whole pipeline.
MAIN_SONGS = (("song0", 44100, 30.0), ("song1", 44100, 30.0), ("song2", 44100, 24.0),
              ("song3", 22050, 24.0))  # fmt: skip
RATE_SONGS = (("rate48k", 48000, 12.0), ("rate16k", 16000, 12.0), ("rate8k", 8000, 12.0))
# (one-song source, constant-Q hop) run through `chroma` on their own.
HOP_RUNS = (("rate48k", 1023), ("rate8k", 200))
# The moving-key files: the first main song alternates between its key and
# the key a fifth above every MOVE_SECONDS, the others keep theirs.
MOVE_SECONDS = 3.75

# Run in the tree's output directory after the CLI steps: the full-precision
# log-prob of each full121 song, tight, unconstrained, tau-only, gamma-only,
# CAC-only and CAC with tau=3, and gamma=2 alone on the moving-key model.
LOG_PROB_SCRIPT = """
from pathlib import Path
from chordscribe.chroma import read_chromagram
from chordscribe.decode import Constraints, prune_key_transitions, viterbi_joint
from chordscribe.model import load_model

model, moving = load_model("models/full121.txt"), load_model("models/full121_moving_key.txt")
kept = prune_key_transitions(moving, 2) > 0  # (from, to)
live = kept.any(axis=0)
n_pred = kept[live][:, live].sum(axis=0)  # each live key's predecessors among the live keys
print(f"gamma=2 on the moving-key model: {live.sum()} live keys, {n_pred.tolist()} predecessors each")
if n_pred.max() < 2 or n_pred.min() == live.sum():
    raise SystemExit("the gamma=2 decode lost its keys of two predecessors or its rows that miss a live key")
lines = []
tight = Constraints(gamma=0, tau=3, cac=True)
settings = (
    ("tight", model, tight), ("free", model, Constraints()), ("tau", model, Constraints(tau=3)),
    ("gamma", model, Constraints(gamma=0)), ("cac", model, Constraints(cac=True)),
    ("cac_tau", model, Constraints(tau=3, cac=True)), ("gamma2_moving_key", moving, Constraints(gamma=2)),
)
for setting, m, constraints in settings:
    for treble in sorted(Path("chroma").glob("*.treble.chroma")):
        stem = treble.name.removesuffix(".treble.chroma")
        bass = read_chromagram(treble.with_name(stem + ".bass.chroma"))
        log_prob = viterbi_joint(m, constraints, read_chromagram(treble), bass).log_prob
        lines.append(f"{setting}/{stem} {log_prob!r}\\n")
Path("log_probs.txt").write_text("".join(lines))
"""


def _script(rng: random.Random, seconds: float) -> tuple[str, str]:
    """(key label, `chord duration` lines) filling `seconds`; chord changes
    fall on quarter seconds, so some land between beats."""
    tonic = rng.randrange(12)
    lines, t = ["N 0.5"], 0.5
    while t < seconds - 1e-9:
        dur = min(rng.choice((1.0, 1.25, 1.5, 2.0, 2.75)), seconds - t)
        offset, quality = rng.choice(_HARMONY)
        lines.append(f"{_PITCH[(tonic + offset) % 12]}:{quality} {dur}")
        t += dur
    return f"{_PITCH[tonic]}:maj", "\n".join(lines) + "\n"


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


def _cli(src: Path, cwd: Path, log: Path, *argv: str) -> int:
    """One `chordscribe` command of the tree at `src`; output goes to `log`."""
    with open(log, "w") as fh:
        return subprocess.run(
            [sys.executable, "-m", "chordscribe.cli", *argv],
            cwd=cwd, env=_env(src), stdout=fh, stderr=subprocess.STDOUT,
        ).returncode  # fmt: skip


def write_inputs(src: Path, root: Path, seed: int = 7) -> None:
    """Seeded WAVs and chord/key/beat files under root, made by `synth`."""
    rng = random.Random(seed)
    (root / "logs").mkdir(parents=True, exist_ok=True)
    for group, songs in (("main", MAIN_SONGS), ("rates", RATE_SONGS)):
        for d in ("audio", "chords", "keys", "beats"):
            (root / group / d).mkdir(parents=True, exist_ok=True)
        for stem, rate, seconds in songs:
            key, script = _script(rng, seconds)
            (root / "script.txt").write_text(script)
            (root / "synth.cfg").write_text(f"sample_rate = {rate}\n")
            out = root / group / "audio" / stem
            log = root / "logs" / f"synth_{stem}.log"
            argv = ("synth", "--config", str(root / "synth.cfg"), str(root / "script.txt"), str(out), "--key", key)
            if _cli(src, root, log, *argv) != 0:
                raise SystemExit(f"synth failed for {stem}; see {log}")
            for suffix, d in ((".chords.lab", "chords"), (".keys.lab", "keys"), (".beats.txt", "beats")):
                target = root / group / d / (stem + (".txt" if d == "beats" else ".lab"))
                os.replace(f"{out}{suffix}", target)
    moving = root / "main" / "keys_moving"
    moving.mkdir(exist_ok=True)
    for i, (stem, _, seconds) in enumerate(MAIN_SONGS):
        key = (root / "main" / "keys" / f"{stem}.lab").read_text()
        if i == 0:
            tonic, mode = key.split()[2].split(":")
            keys = (f"{tonic}:{mode}", f"{_PITCH[(_PITCH.index(tonic) + 7) % 12]}:{mode}")
            starts = [j * MOVE_SECONDS for j in range(math.ceil(seconds / MOVE_SECONDS))]
            key = "".join(f"{t!r} {min(t + MOVE_SECONDS, seconds)!r} {keys[j % 2]}\n" for j, t in enumerate(starts))
        (moving / f"{stem}.lab").write_text(key)
    for stem, hop in HOP_RUNS:
        for d, suffix in (("audio", ".wav"), ("beats", ".txt")):
            (root / f"hop{hop}" / d).mkdir(parents=True, exist_ok=True)
            shutil.copy(root / "rates" / d / f"{stem}{suffix}", root / f"hop{hop}" / d)
        (root / f"hop{hop}" / "chroma.cfg").write_text(f"hop = {hop}\n")


def scenario_steps(inputs: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every command, in order; outputs are relative to the
    tree's own output directory, inputs absolute, so both trees name the
    same paths in what they write."""
    main, rates = inputs / "main", inputs / "rates"
    songs = ("--chords-dir", str(main / "chords"), "--keys-dir", str(main / "keys"))
    steps = [
        ("chroma", ("chroma", "--audio-dir", str(main / "audio"), "--chroma-dir", "chroma",
                    "--beats", str(main / "beats"))),
        ("chroma_rates", ("chroma", "--audio-dir", str(rates / "audio"), "--chroma-dir", "chroma_rates",
                          "--beats", str(rates / "beats"))),
    ]  # fmt: skip
    for _, hop in HOP_RUNS:
        alone = inputs / f"hop{hop}"
        steps.append((f"chroma_hop{hop}", ("chroma", "--config", str(alone / "chroma.cfg"),
                      "--audio-dir", str(alone / "audio"), "--chroma-dir", f"chroma_hop{hop}",
                      "--beats", str(alone / "beats"))))  # fmt: skip
    for alphabet in ("majmin25", "full121"):
        steps.append((f"train_{alphabet}", ("train", "--chroma-dir", "chroma", *songs,
                      "--alphabet", alphabet, "--model", f"models/{alphabet}.txt")))  # fmt: skip
        steps.append((f"decode_tight_{alphabet}", ("decode", "--chroma-dir", "chroma",
                      "--model", f"models/{alphabet}.txt", "--gamma", "0", "--tau", "3", "--cac",
                      "--output-dir", f"decode/tight_{alphabet}")))  # fmt: skip
    steps.append(("train_keyless", ("train", "--chroma-dir", "chroma", "--chords-dir", str(main / "chords"),
                  "--alphabet", "full121", "--alpha", "0", "--train-fraction", "1.0",
                  "--model", "models/full121_keyless.txt")))  # fmt: skip
    steps.append(("train_moving_key", ("train", "--chroma-dir", "chroma", "--chords-dir", str(main / "chords"),
                  "--keys-dir", str(main / "keys_moving"), "--alphabet", "full121", "--train-fraction", "1.0",
                  "--model", "models/full121_moving_key.txt")))  # fmt: skip
    full = ("--chroma-dir", "chroma", "--model", "models/full121.txt")
    steps += [
        ("decode_free", ("decode", *full, "--output-dir", "decode/free")),
        ("decode_tau", ("decode", *full, "--tau", "3", "--output-dir", "decode/tau")),
        ("decode_gamma", ("decode", *full, "--gamma", "0", "--output-dir", "decode/gamma")),
        ("decode_cac", ("decode", *full, "--cac", "--output-dir", "decode/cac")),
        ("decode_cac_tau", ("decode", *full, "--tau", "3", "--cac", "--output-dir", "decode/cac_tau")),
        ("decode_gamma2_moving_key", ("decode", "--chroma-dir", "chroma", "--model", "models/full121_moving_key.txt",
                                      "--gamma", "2", "--output-dir", "decode/gamma2_moving_key")),
        ("decode_sweep", ("decode", *full, "--gamma", "0,2", "--tau", "1,3,13", "--cac", "--jobs", "2",
                          "--output-dir", "decode/sweep")),
    ]  # fmt: skip
    for name, jobs in (("eval", "1"), ("eval_jobs2", "2")):
        steps.append((name, ("eval", "--pred-dir", "decode/tight_full121", *songs, "--beats", str(main / "beats"),
                      "--compare", "decode/free", "--jobs", jobs, "--output-dir", name)))  # fmt: skip
    return steps


def run_tree(src: Path, out: Path, inputs: Path) -> dict[str, int]:
    """Every scenario step with the tree at `src`; returns exit codes."""
    (out / "logs").mkdir(parents=True, exist_ok=True)
    origin = subprocess.run(
        [sys.executable, "-c", "import chordscribe; print(chordscribe.__file__)"],
        env=_env(src), capture_output=True, text=True, check=True,
    ).stdout.strip()  # fmt: skip
    if not Path(origin).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"chordscribe imported from {origin}, not from {src}")
    codes = {name: _cli(src, out, out / "logs" / f"{name}.log", *argv) for name, argv in scenario_steps(inputs)}
    with open(out / "logs" / "log_probs.log", "w") as fh:
        codes["log_probs"] = subprocess.run(
            [sys.executable, "-c", LOG_PROB_SCRIPT], cwd=out, env=_env(src), stdout=fh, stderr=subprocess.STDOUT
        ).returncode
    return codes


def _first_difference(a: list[str], b: list[str]) -> str:
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {i}:\n    ref: {x}\n    new: {y}"
    return f"line {min(len(a), len(b)) + 1}: one file ends ({len(a)} against {len(b)} lines)"


def _byte_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"byte {at}: {len(a)} against {len(b)} bytes"


def _timing_difference(a: str, b: str) -> str | None:
    """timing.csv without the timing columns."""
    rows_a, rows_b = list(csv.DictReader(io.StringIO(a))), list(csv.DictReader(io.StringIO(b)))
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} against {len(rows_b)} rows"
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b), 2):
        for col in sorted(set(ra) | set(rb)):
            x, y = ra.get(col), rb.get(col)
            if col not in TIMING_SKIPPED and x != y:
                return f"line {i}, column {col}:\n    ref: {x}\n    new: {y}"
    return None


def _log_prob_difference(a: str, b: str) -> str | None:
    """log_probs.txt: the same songs in order, log-probs to LOG_PROB_TOL."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        (song_x, lp_x), (song_y, lp_y) = x.split(), y.split()
        if song_x != song_y or not abs(float(lp_x) - float(lp_y)) <= LOG_PROB_TOL:
            return f"line {i}:\n    ref: {x}\n    new: {y}"
    if len(lines_a) != len(lines_b):
        return _first_difference(lines_a, lines_b)
    return None


def compare_trees(ref: Path, new: Path) -> tuple[int, list[str]]:
    """(number of output files, one report per file that differs or exists
    on one side only); the command logs are not compared."""
    files = {p.relative_to(root) for root in (ref, new) for p in root.rglob("*") if p.is_file()}
    files = sorted(f for f in files if f.parts[0] != "logs")
    reports = []
    for rel in files:
        a, b = ref / rel, new / rel
        if not (a.exists() and b.exists()):
            reports.append(f"{rel}: only in {'ref' if a.exists() else 'new'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        if rel.suffix == ".wav":
            reports.append(f"{rel}: {_byte_difference(a.read_bytes(), b.read_bytes())}")
            continue
        ta, tb = a.read_text(), b.read_text()
        if rel.name in ("timing.csv", "log_probs.txt"):
            what = (_timing_difference if rel.name == "timing.csv" else _log_prob_difference)(ta, tb)
            if what is None:
                continue
        else:
            what = _first_difference(ta.splitlines(), tb.splitlines())
        reports.append(f"{rel}: {what}")
    return len(files), reports


def extract_ref(ref: str, dest: Path) -> None:
    """The committed files of `ref` under dest."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {ref} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the tree to compare against (default HEAD)")
    parser.add_argument("--work", help="work directory, kept afterwards (default: a temporary one)")
    args = parser.parse_args(argv)

    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="same_answers_"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        extract_ref(args.ref, work / "ref_tree")
        trees = (("ref", work / "ref_tree" / "src"), ("new", REPO / "src"))
        for side, src in trees:
            write_inputs(src, work / f"{side}_inputs")
        codes = {}
        for side, src in trees:
            print(f"running {side} ({args.ref if side == 'ref' else 'working tree'})", flush=True)
            codes[side] = run_tree(src, work / side, work / "new_inputs")
        # a step that fails on either side is reported: it leaves less to compare
        reports = [
            f"step {name}: exit {codes['ref'][name]} (ref), {codes['new'][name]} (new); see logs/{name}.log"
            for name in codes["ref"]
            if codes["ref"][name] or codes["new"][name]
        ]
        n_inputs, differences = compare_trees(work / "ref_inputs", work / "new_inputs")
        reports += [f"synth {line}" for line in differences]
        n_files, differences = compare_trees(work / "ref", work / "new")
        reports += differences
        for line in reports:
            print(line)
        print(f"{n_inputs} synth and {n_files} output files compared against {args.ref}: {len(reports)} differences")
        return 1 if reports else 0
    finally:
        if args.work:
            print(f"work directory: {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
