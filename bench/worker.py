"""Runs one workload in a fresh process and prints one JSON line.

Started by run.py, never by hand:

    python3 bench/worker.py --workload W --work-dir DIR --mode MODE
        --seconds S --spawned-at T

Modes:
- setup:  import the package (and load the model), report the set-up time;
- timed:  set up, run whole rounds for S seconds, report timings (the
          first round runs and is checked, but is not timed) and the
          ru_maxrss read right after that first round;
- traced: alternate a plain round and a fully traced round for S seconds,
          report per-layer self times and counts.

Set-up time runs from the parent's spawn timestamp (`time.monotonic` is
one clock for every process) to just before the first timed call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import wave
from pathlib import Path

import numpy as np

from scorer import PathScorer
from spans import Target, Tracer, span_cost

ROOT = Path(__file__).resolve().parent.parent

TIGHT = (0, 3, True)
FREE = (None, None, False)

# Accuracy floors, set below what seeds 1-8 gave so that they test the
# method rather than one seed's inputs: decode chord accuracy 1.0; audio
# or_majmin 0.949-0.964 (chord changes between beats cost the rest),
# f_bass 0.976-0.999, key_hit 1.0.
CHORD_ACCURACY_FLOOR = 0.95
OR_MAJMIN_FLOOR = 0.9
F_BASS_FLOOR = 0.9
KEY_HIT_FLOOR = 0.75
LOG_PROB_TOL = 1e-6


def _chroma_info(args, out):
    """Frame count, and the non-flat frames whose min is not exactly 0 or
    whose max is not exactly 1 (min-max normalization guarantees both)."""
    lo, hi = out.values.min(axis=0), out.values.max(axis=0)
    bad = np.count_nonzero((hi > lo) & ((lo != 0.0) | (hi != 1.0)))
    return {"frames": int(out.n_frames), "bad_frames": int(bad)}


def _viterbi_info(args, out):
    return {"frames": len(out), "expanded": int(out.expanded_transitions), "n_chords": int(args[0].n_chords)}


# Every public function the traced run wraps, by layer.
TARGETS = [
    Target("chordscribe.audio_io", "load_wav", info=lambda args, out: {"samples": int(out.samples.size)}),
    Target("chordscribe.audio_io", "resample"),
    Target("chordscribe.chroma", "estimate_tuning"),
    Target("chordscribe.chroma", "compute_chromagram", info=_chroma_info),
    Target("chordscribe.chroma", "beat_sync_median"),
    Target("chordscribe.chroma", "write_chromagram"),
    Target("chordscribe.chroma", "read_chromagram"),
    Target("chordscribe.annotations", "parse_lab"),
    Target("chordscribe.annotations", "beat_sync_labels"),
    Target("chordscribe.annotations", "write_lab"),
    Target("chordscribe.model", "train", whole_set=True),
    Target("chordscribe.model", "save_model", whole_set=True),
    Target("chordscribe.model", "load_model", whole_set=True),
    Target("chordscribe.model", "gaussian_logpdf_frames"),
    Target("chordscribe.decode", "forward_backward"),
    Target("chordscribe.decode", "chord_alphabet_constraint", info=lambda args, out: {"working_set": int(out.size)}),
    Target("chordscribe.decode", "viterbi_joint", info=_viterbi_info, keep=True),
    Target("chordscribe.evaluate", "overlap_ratio"),
]


def targets(*names):
    return [t for t in TARGETS if t.name in names]


def viterbi_spans(tracer):
    """(frames, seconds, working set, expanded transitions) summed over a
    tracer's viterbi_joint spans."""
    frames = seconds = working = expanded = 0
    for i, s in enumerate(tracer.spans):
        if s["name"] != "decode.viterbi_joint":
            continue
        frames += s["info"]["frames"]
        expanded += s["info"]["expanded"]
        seconds += s["end"] - s["start"]
        cac = [c for c in tracer.spans[i + 1 :] if c["parent"] == i and c["name"] == "decode.chord_alphabet_constraint"]
        working += cac[0]["info"]["working_set"] if cac else s["info"]["n_chords"]
    return frames, seconds, working, expanded


# --- decode-free workload ----------------------------------------------------------


class DecodeWorkload:
    """Frame-level songs decoded unconstrained, one after another, by
    `viterbi_joint`."""

    def __init__(self, work_dir: Path):
        from chordscribe import decode, model
        from chordscribe.chroma import Chromagram

        self.decode = decode
        self.model = model.load_model(work_dir / "model.txt")
        self.songs = []
        for path in sorted(work_dir.glob("song*.npz")):
            with np.load(path) as z:
                arrays = {k: z[k] for k in z.files}
            grid = arrays["starts"], arrays["ends"]
            arrays["treble_ch"] = Chromagram(arrays["treble"].T, *grid, "treble")
            arrays["bass_ch"] = Chromagram(arrays["bass"].T, *grid, "bass")
            arrays["stem"] = path.stem
            self.songs.append(arrays)
        self.ops_per_round = len(self.songs)
        self._scorers = {}

    def run_round(self, tracer=None):
        constraints = self.decode.Constraints(*FREE)
        outputs, frames, viterbi_s = [], 0, 0.0
        t_round = time.perf_counter()
        for song in self.songs:
            if tracer is not None:
                tracer.song = song["stem"]
            t0 = time.perf_counter()
            try:
                path = self.decode.viterbi_joint(self.model, constraints, song["treble_ch"], song["bass_ch"])
            except Exception as exc:  # a failed operation: counted and reported, not timed
                outputs.append((song, exc))
                continue
            viterbi_s += time.perf_counter() - t0
            frames += len(path)
            outputs.append((song, path))
        wall = time.perf_counter() - t_round
        errors = [f"{song['stem']}: {out!r}" for song, out in outputs if isinstance(out, Exception)]
        return {
            "wall": wall,
            "frames": frames,
            "viterbi_s": viterbi_s,
            "failed": len(errors),
            "outputs": outputs,
            "errors": errors,
        }

    def scorer(self, song):
        stem = song["stem"]
        if stem not in self._scorers:
            self._scorers[stem] = PathScorer(self.model, song["treble"], song["bass"], *FREE)
        return self._scorers[stem]

    def check(self, result) -> list[str]:
        problems = []
        for song, path in result["outputs"]:
            stem = song["stem"]
            if isinstance(path, Exception):
                continue  # counted in `failed`, not a wrong output
            sc = self.scorer(song)
            own = sc.score(path.keys, path.chords, path.basses)
            if not abs(path.log_prob - own) <= LOG_PROB_TOL:
                problems.append(f"{stem}: log_prob {path.log_prob!r} but the path scores {own!r}")
            truth = sc.score(song["keys"], song["chords"], song["basses"])
            if path.log_prob < truth - LOG_PROB_TOL:
                problems.append(f"{stem}: log_prob {path.log_prob!r} below the true path's {truth!r}")
            accuracy = float(np.mean(path.chords == song["chords"]))
            if accuracy < CHORD_ACCURACY_FLOOR:
                problems.append(f"{stem}: chord accuracy {accuracy:.3f} < {CHORD_ACCURACY_FLOOR}")
        return problems

    def final_check(self, result) -> list[str]:
        """An exact argmax cannot lose to any path: compare with the path
        the tight setting returns."""
        problems = []
        for song, path in result["outputs"]:
            if isinstance(path, Exception):
                continue
            tight = self.decode.viterbi_joint(
                self.model, self.decode.Constraints(*TIGHT), song["treble_ch"], song["bass_ch"]
            )
            rival = self.scorer(song).score(tight.keys, tight.chords, tight.basses)
            if path.log_prob < rival - LOG_PROB_TOL:
                problems.append(f"{song['stem']}: free log_prob {path.log_prob!r} below the tight path's {rival!r}")
        return problems


# --- cli-audio workload ---------------------------------------------------------------

_MAJ_LIKE = {"maj", "maj6", "maj7", "7", "aug"}
_MIN_LIKE = {"min", "min7", "dim"}
_PITCH = {n: i for i, n in enumerate(("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"))}


def majmin_class(label: str):
    """Major/minor class of a chord label, written from the documented
    quality reductions: (root, 'maj' | 'min'), or 'N'."""
    if label == "N":
        return "N"
    root, _, rest = label.partition(":")
    quality = rest.split("/")[0]
    if quality in _MAJ_LIKE:
        return _PITCH[root], "maj"
    if quality in _MIN_LIKE:
        return _PITCH[root], "min"
    raise ValueError(f"unexpected chord label {label!r}")


def read_lab_rows(path: Path):
    rows = []
    for line in path.read_text().splitlines():
        if line.strip():
            s, e, label = line.split(maxsplit=2)
            rows.append((float(s), float(e), label.strip()))
    return rows


def own_overlap(pred_rows, gt_rows) -> float:
    """Share of ground-truth duration where the major/minor classes agree,
    by direct interval intersection."""
    matched = total = 0.0
    for gs, ge, glab in gt_rows:
        total += ge - gs
        for ps, pe, plab in pred_rows:
            ov = min(ge, pe) - max(gs, ps)
            if ov > 0 and majmin_class(plab) == majmin_class(glab):
                matched += ov
    return matched / total


class AudioWorkload:
    """WAV songs through chroma -> train -> decode -> eval via `cli.main`."""

    STAGES = ("chroma", "train", "decode", "eval")

    def __init__(self, work_dir: Path):
        from chordscribe import cli

        self.cli = cli
        self.dir = work_dir
        self.stems = sorted(p.stem for p in (work_dir / "audio").glob("*.wav"))
        self.ops_per_round = len(self.stems) * len(self.STAGES)

    def _argv(self, stage):
        d = {k: str(self.dir / k) for k in ("audio", "chroma", "chords", "keys", "beats", "pred", "report")}
        model = str(self.dir / "model" / "model.txt")
        return {
            "chroma": ["chroma", "--audio-dir", d["audio"], "--chroma-dir", d["chroma"], "--beats", d["beats"]],
            "train": [
                "train", "--chroma-dir", d["chroma"], "--chords-dir", d["chords"], "--keys-dir", d["keys"],
                "--model", model, "--alphabet", "full121", "--train-fraction", "1.0",
            ],
            "decode": [
                "decode", "--chroma-dir", d["chroma"], "--model", model, "--output-dir", d["pred"],
                "--gamma", "0", "--tau", "3", "--cac",
            ],
            "eval": [
                "eval", "--pred-dir", d["pred"], "--chords-dir", d["chords"], "--keys-dir", d["keys"],
                "--beats", d["beats"], "--output-dir", d["report"],
            ],
        }[stage] + ["--jobs", "1"]  # fmt: skip

    def run_round(self, tracer=None):
        for name in ("chroma", "model", "pred", "report"):
            shutil.rmtree(self.dir / name, ignore_errors=True)
        stages = {}
        t_round = time.perf_counter()
        for stage in self.STAGES:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{stage}", song="*") if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(self._argv(stage))
                except SystemExit as exc:
                    rc = exc.code
            stages[stage] = {"rc": rc, "seconds": time.perf_counter() - t0, "stderr": err.getvalue()}
        wall = time.perf_counter() - t_round
        errors = [
            f"{stage}: {line}"
            for stage, st in stages.items()
            for line in st["stderr"].splitlines()
            if line.startswith(("error:", "flagged:"))
        ]
        return {"wall": wall, "stages": stages, "failed": self._failed(stages), "errors": errors}

    def _failed(self, stages) -> int:
        d = self.dir
        failed = 0
        for stem in self.stems:
            if not all((d / "chroma" / f"{stem}.{b}.chroma").is_file() for b in ("treble", "bass")):
                failed += 1
            if not all((d / "pred" / f"{stem}.{k}.lab").is_file() for k in ("key", "chord", "bass")):
                failed += 1
            if f"flagged: {stem}:" in stages["eval"]["stderr"]:
                failed += 1
        if stages["train"]["rc"] != 0 or not (d / "model" / "model.txt").is_file():
            failed += len(self.stems)
        return failed

    def audio_duration(self) -> float:
        """Seconds of audio in the workload, from the WAV headers."""
        total = 0.0
        for stem in self.stems:
            with wave.open(str(self.dir / "audio" / f"{stem}.wav")) as w:
                total += w.getnframes() / w.getframerate()
        return total

    def check(self, result, kept, chroma_infos) -> list[str]:
        problems = []
        for stage, s in result["stages"].items():
            if s["rc"] != 0 and not result["failed"]:
                problems.append(f"chordscribe {stage} exited {s['rc']} with no failed song: {s['stderr'][-400:]}")
        d = self.dir
        for stem in self.stems:
            tuning = d / "chroma" / f"{stem}.tuning.txt"
            if tuning.is_file() and float(tuning.read_text()) != 0.0:
                problems.append(f"{stem}: in-tune audio reports {tuning.read_text().strip()} cents")
        bad = sum(i["bad_frames"] for i in chroma_infos)
        if bad:
            problems.append(f"{bad} non-flat raw chroma frames do not span exactly [0, 1]")
        if not chroma_infos:
            problems.append("no raw chromagram seen")

        report = d / "report" / "report.csv"
        if not report.is_file():
            return problems + ["no eval report"]
        per_song: dict[str, dict[str, float]] = {}
        for line in report.read_text().splitlines():
            song, metric, value = line.split(",")
            per_song.setdefault(song, {})[metric] = float(value)
        for metric, floor in (("or_majmin", OR_MAJMIN_FLOOR), ("f_bass", F_BASS_FLOOR), ("key_hit", KEY_HIT_FLOOR)):
            values = [per_song.get(stem, {}).get(metric, 0.0) for stem in self.stems]
            if np.mean(values) < floor:
                problems.append(f"mean {metric} {np.mean(values):.3f} < {floor}")
        stem = self.stems[0]
        pred = d / "pred" / f"{stem}.chord.lab"
        if pred.is_file():
            own = own_overlap(read_lab_rows(pred), read_lab_rows(d / "chords" / f"{stem}.lab"))
            reported = per_song.get(stem, {}).get("or_majmin", -1.0)
            if abs(own - reported) > 1e-6:
                problems.append(f"{stem}: or_majmin {reported} but interval intersection gives {own}")

        for (m, constraints, treble, bass), path in kept:
            sc = PathScorer(m, treble.values.T, bass.values.T, constraints.gamma, constraints.tau, constraints.cac)
            own = sc.score(path.keys, path.chords, path.basses)
            if not abs(path.log_prob - own) <= LOG_PROB_TOL:
                problems.append(f"decode: log_prob {path.log_prob!r} but the path scores {own!r}")
        if not kept:
            problems.append("no decoded path seen")
        return problems


# --- entry point -------------------------------------------------------------------


def emit(obj) -> None:
    print(json.dumps(obj))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["cli-audio", "decode-free"])
    ap.add_argument("--work-dir", required=True, type=Path)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "traced"])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import chordscribe  # noqa: F401  (set-up covers importing the package)

    # decode-free loads its model during set-up: the traced run
    # traces that call too, so model.load_model_s shows there.
    setup_tracer = Tracer()
    if args.mode == "traced":
        setup_tracer.install(targets("model.load_model"))
    if args.workload == "cli-audio":
        workload = AudioWorkload(args.work_dir)
    else:
        workload = DecodeWorkload(args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        emit({"setup_s": setup_s})
        return 0
    setup_tracer.uninstall()

    audio = isinstance(workload, AudioWorkload)
    hooks = targets("decode.viterbi_joint", "chroma.compute_chromagram") if audio else []

    def one_round(traced: bool):
        """Run a round with either the full tracer or the two hooks the
        audio workload needs to time decoding and check raw chroma."""
        tracer = Tracer()
        tracer.install(TARGETS if traced else hooks)
        try:
            result = workload.run_round(tracer if traced else None)
        finally:
            tracer.uninstall()
        # High-water mark so far, before the checks allocate anything.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = []
        if audio:
            frames, viterbi_s, _, _ = viterbi_spans(tracer)
            result["frames"], result["viterbi_s"] = frames, viterbi_s
            infos = [s["info"] for s in tracer.spans if s["name"] == "chroma.compute_chromagram"]
            problems = workload.check(result, tracer.kept, infos)
        else:
            problems = workload.check(result)
        return result, problems, tracer

    problems: list[str] = []
    plain, traced = [], []
    t_begin = time.perf_counter()
    while True:
        result, found, _ = one_round(traced=False)
        plain.append(result)
        problems += found
        if args.mode == "traced":
            result, found, tracer = one_round(traced=True)
            traced.append((result, tracer))
            problems += found
        if time.perf_counter() - t_begin >= args.seconds:
            break
    if not audio:
        problems += workload.final_check(plain[0])

    # The first round of a fresh process runs measurably slower (first
    # touches, lazy imports); it is run and checked but not timed.
    timed = plain[1:] or plain
    rounds = plain + [r for r, _ in traced]
    out = {
        "setup_s": setup_s,
        "rounds": len(rounds),
        "attempted": len(rounds) * workload.ops_per_round,
        "failed": sum(r["failed"] for r in rounds),
        "problems": sorted(set(problems)),
        "errors": sorted({e for r in rounds for e in r["errors"]}),
        "wall_s": [r["wall"] for r in timed],
        "frames_per_s": [r["frames"] / r["viterbi_s"] for r in timed if r["viterbi_s"] > 0],
        # a fresh process after set-up and one round, as a user's run would be
        "peak_rss_mb": plain[0]["peak_rss_mb"],
    }
    if audio:
        out["audio_s"] = workload.audio_duration() * len(timed)
        out["cli_chroma_s"] = sum(r["stages"]["chroma"]["seconds"] for r in timed)
    if args.mode == "traced":
        out["traced_wall_s"] = [r["wall"] for r, _ in traced]
        out["spans_per_round"] = statistics.mean(len(t.spans) for _, t in traced)
        out["span_cost_s"] = span_cost()
        out["self_times"] = setup_tracer.self_times()
        for _, tracer in traced:
            for name, value in tracer.self_times().items():
                out["self_times"][name] = out["self_times"].get(name, 0.0) + value / len(traced)
        first = traced[0][1]
        frames, _, working, expanded = viterbi_spans(first)
        out["counts"] = {
            "audio_io.samples": sum(s["info"]["samples"] for s in first.spans if s["name"] == "audio_io.load_wav"),
            "chroma.cq_frames": sum(
                s["info"]["frames"] for s in first.spans if s["name"] == "chroma.compute_chromagram"
            ),
            "decode.frames": frames,
            "decode.working_set": working,
            "decode.expanded_transitions": expanded,
        }
        # one list per tracer; a span's parent indexes its own list
        out["spans"] = [setup_tracer.spans] + [t.spans for _, t in traced]
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
