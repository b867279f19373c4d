#!/usr/bin/env python3
"""chordscribe benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload cli-audio --seed 1 --seconds 20 --trace 0

Run from the repository root. The inputs are generated from --seed into
.bench_work/, then each measurement runs in a fresh worker process
(worker.py) with one BLAS/OpenMP thread and `--jobs 1`:

- --trace 0: three set-up-only processes and one timed process that runs
  whole rounds for --seconds (the first one untimed, as warm-up; its peak
  memory is read right after it). Prints the end-to-end metrics.
- --trace 1: one process that alternates a plain round with a traced
  round for --seconds. Prints the per-layer metrics and states the
  tracing overhead; the spans go to .bench_work/traces/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
The line before it records the machine and library versions.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every worker (set before numpy loads).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Inputs per workload; see README.md for why each exists.
FREE_SONG_FRAMES = (150,)
AUDIO_SONGS = 6
SETUP_SAMPLES = 3  # set-up-only processes, besides the timed one
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decode_frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "audio_io.load_wav", "audio_io.resample",
    "chroma.estimate_tuning", "chroma.compute_chromagram", "chroma.beat_sync_median",
    "chroma.write_chromagram", "chroma.read_chromagram",
    "annotations.parse_lab", "annotations.beat_sync_labels", "annotations.write_lab",
    "model.train", "model.save_model", "model.load_model", "model.gaussian_logpdf_frames",
    "decode.forward_backward", "decode.chord_alphabet_constraint", "decode.viterbi_joint",
    "evaluate.overlap_ratio",
    "cli.chroma", "cli.train", "cli.decode", "cli.eval",
)  # fmt: skip
LAYER_COUNTS = (
    "audio_io.samples", "chroma.cq_frames",
    "decode.frames", "decode.working_set", "decode.expanded_transitions",
)  # fmt: skip


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREAD_ENV["OMP_NUM_THREADS"],
        "jobs": 1,
    }


def make_inputs(workload: str, seed: int, work_dir: Path) -> None:
    import inputs

    if workload == "cli-audio":
        inputs.write_audio_inputs(work_dir, seed, AUDIO_SONGS)
    else:
        inputs.write_decode_inputs(work_dir, seed, FREE_SONG_FRAMES)


class Runner:
    """Starts worker processes one at a time within the run's time limit."""

    def __init__(self, workload: str, work_dir: Path, seconds: float, deadline: float):
        self.workload = workload
        self.work_dir = work_dir
        self.seconds = seconds
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}

    def __call__(self, mode: str) -> dict:
        spawned_at = time.monotonic()
        argv = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--work-dir", str(self.work_dir), "--mode", mode,
            "--seconds", str(self.seconds), "--spawned-at", repr(spawned_at),
        ]  # fmt: skip
        proc = subprocess.run(
            argv,
            env=self.env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Runner) -> tuple[dict, dict]:
    setups = [run("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    timed = run("timed")
    setups.append(timed["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(timed["wall_s"]),
        "decode_frames_per_s": statistics.median(timed["frames_per_s"]),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    detail = {"setup_samples": setups, "timed": timed}
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, detail


def per_layer(run: Runner) -> tuple[dict, dict]:
    traced = run("traced")
    spans = traced.pop("spans")
    out = {f"{name}_s": (traced["self_times"].get(name, 0.0), "s") for name in LAYER_TIMES}
    out.update({name: (traced["counts"][name], "count") for name in LAYER_COUNTS})
    if "audio_s" in traced:
        out["audio_realtime_x"] = (traced["audio_s"] / traced["cli_chroma_s"], "x")
    else:
        out["audio_realtime_x"] = (0.0, "x")
    plain = statistics.median(traced["wall_s"])
    traced["tracing_overhead_s"] = statistics.median(traced["traced_wall_s"]) - plain
    traced["tracing_cost_s"] = traced["spans_per_round"] * traced["span_cost_s"]
    traced["plain_wall_s"] = plain
    return out, {"traced": traced, "spans": spans}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["cli-audio", "decode-free"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "chordscribe" / "__init__.py").is_file():
        print(f"error: no chordscribe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import scorer

    work_dir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        make_inputs(args.workload, args.seed, work_dir)
        problems = scorer.check_against_enumeration(args.seed)
        run = Runner(args.workload, work_dir, args.seconds, deadline)
        if args.trace:
            metrics, detail = per_layer(run)
            worker = detail["traced"]
        else:
            metrics, detail = end_to_end(run)
            worker = detail["timed"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems += worker["problems"]
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for line in worker["errors"]:
        print(f"failed operation: {line}", file=sys.stderr)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = WORK / "traces" / f"{tag}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"env": env, "spans": detail.pop("spans")}) + "\n")
        t = detail["traced"]
        print(
            f"tracing overhead per round of {t['plain_wall_s']:.4f} s: traced less plain round "
            f"{t['tracing_overhead_s']:+.4f} s; {t['spans_per_round']:.0f} spans x "
            f"{1e6 * t['span_cost_s']:.2f} us = {t['tracing_cost_s']:.6f} s "
            f"({100 * t['tracing_cost_s'] / t['plain_wall_s']:.4f} %); spans in {spans_path.relative_to(ROOT)}"
        )
    result = {
        "correct": not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_path = WORK / "results" / f"{tag}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps({"env": env, "result": result, "detail": detail}) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
