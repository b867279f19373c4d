"""Batch front end: chroma extraction, training, decoding, evaluation,
and synthetic fixture generation.

Songs are paired across directories by file stem. Every setting is a
RunConfig field: a key of the flat key=value file (path via --config or
the HP_CONFIG environment variable), and a flag of the subcommands that
read it, which overrides the file. Beside --config, they take:

    chroma  --audio-dir --chroma-dir --beats --jobs
    train   --chroma-dir --chords-dir --keys-dir --model --alphabet
            --alpha --seed --jobs --train-fraction
    decode  --chroma-dir --model --output-dir --gamma --tau --cac --jobs
    eval    --chords-dir --keys-dir --beats --pred-dir --output-dir --jobs
            --compare
    synth   SCRIPT OUT_STEM --key

Output files are written atomically (temp + rename). `--jobs N` runs the
per-song work in N processes, with the same outputs.

A per-song failure (an unreadable audio, chroma, label or beat file; a
decode with no admissible path) prints `error: {song}: ...` (a decode's
names its setting too) and the run goes on. In eval, a ground-truth fault
fails the song, a prediction fault flags it (`flagged: ...`, scored 0), and
each aggregate covers the songs that report its metric. A run-level
failure (a bad config line or flag, a setting out of range (`path:line:`
in a config file), a required setting left unset (named with its flag), a
missing directory or one with no input files, an unreadable config file,
model file or synth script) prints one `error: ...` line and stops before
anything is written. Either exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import audio_io, chroma as chroma_mod
from .annotations import (
    BASS_LABELS,
    KEY_LABELS,
    chord_pitch_classes,
    derive_bass,
    beat_sync_labels,
    make_alphabet,
    make_intervals,
    merge_intervals,
    most_prevalent_labels,
    parse_chord_symbol,
    parse_lab,
    read_lines,
    write_lab,
)
from .decode import Constraints, viterbi_joint
from .evaluate import (
    EvalReport,
    bass_frame_accuracy,
    first_key,
    overlap_ratio,
    paired_t_test,
    predominant_key,
)
from .model import ModelFormatError, TrainConfig, load_model, save_model, train


def _setting(default, *commands, flag=None, **argparse_kwargs):
    """A RunConfig field that `commands` take as the flag `flag` (default
    `--` + the name with dashes); argparse_kwargs add its help or choices."""
    return field(default=default, metadata={"commands": commands, "flag": flag, "kwargs": argparse_kwargs})


@dataclass
class RunConfig:
    """Every run setting: a field name is its config key and its flag's
    dest, and the default's type is the value's type."""

    audio_dir: str | None = _setting(None, "chroma")
    chroma_dir: str | None = _setting(None, "chroma", "train", "decode")
    chords_dir: str | None = _setting(None, "train", "eval")
    keys_dir: str | None = _setting(None, "train", "eval")
    beats_dir: str | None = _setting(None, "chroma", "eval", flag="--beats", help="directory of <stem>.txt beat files")
    pred_dir: str | None = _setting(None, "eval")
    model_path: str | None = _setting(None, "train", "decode", flag="--model")
    output_dir: str | None = _setting(None, "decode", "eval")
    alphabet: str = _setting("majmin25", "train", choices=["majmin25", "full121"])
    gamma: tuple = _setting((None,), "decode", help="key-transition count floor; comma list sweeps")
    tau: tuple = _setting((None,), "decode", help="admissible basses per chord; comma list sweeps")
    cac: bool = _setting(False, "decode")
    alpha: float = _setting(0.1, "train")
    epsilon: float = 1e-4
    seed: int = _setting(0, "train", help="random seed for dataset splits")
    jobs: int = _setting(1, "chroma", "train", "decode", "eval", help="parallel workers")
    q_factor: float = 17.0
    hop: int = 1024
    bins_per_semitone: int = 1
    sample_rate: int = 11025
    beat_period: float = 0.5
    train_fraction: float = _setting(2.0 / 3.0, "train")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_EXPECTED = {bool: f"one of {'/'.join(_BOOLEANS)}", int: "an integer", float: "a number",
             tuple: "a comma list of integers and nones"}  # fmt: skip


def _setting_value(f, value):
    """A config line's text or a flag's value as RunConfig field f holds it,
    within its bounds. Text takes the type of f's default: a boolean is one
    of _BOOLEANS in any case, a number must be finite, a sweep is a comma
    list of ints and `none`s, and other text (paths, default None) stays
    as it is. argparse has already typed a numeric flag."""
    kind = type(f.default)
    if isinstance(value, str) and kind in _EXPECTED:
        text = value
        try:
            if kind is bool:
                value = _BOOLEANS[text.lower()]
            elif kind is tuple:
                value = tuple(None if p.strip().lower() in ("", "none") else int(p) for p in text.split(","))
            else:
                value = kind(text)
        except (KeyError, ValueError):
            raise ValueError(f"{f.name}: expected {_EXPECTED[kind]}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {text!r}")
    _check_range(f.name, value)
    return value


def _check_range(key: str, value) -> None:
    """The bounds of a setting, each checked by the type that owns it."""
    if key in ("hop", "q_factor", "bins_per_semitone"):
        chroma_mod.treble_config(**{key: value})
    elif key in ("alpha", "epsilon"):
        TrainConfig(**{key: value})
    elif key in ("gamma", "tau"):
        for v in value:
            Constraints(**{key: v})
    elif key == "alphabet":
        make_alphabet(value)
    elif key in ("beat_period", "sample_rate") and not value > 0:
        raise ValueError(f"{key} must be positive, got {value}")
    elif key == "train_fraction" and not 0 < value <= 1:
        raise ValueError(f"train_fraction must be in (0, 1], got {value}")
    elif key == "seed" and value < 0:  # numpy's seeds are non-negative
        raise ValueError(f"seed must be >= 0, got {value}")
    elif key == "jobs" and value < 1:
        raise ValueError(f"jobs must be >= 1, got {value}")


def parse_config_file(path) -> dict:
    """RunConfig fields from flat `key = value` text; `#` comments and blank
    lines ignored. Each value goes through _setting_value."""
    settings = {f.name: f for f in fields(RunConfig)}
    values = {}

    def take(line):
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in settings:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _setting_value(settings[key], val)

    read_lines(path, take)
    return values


def build_config(args) -> RunConfig:
    """The config file's settings, then every flag given, over the defaults."""
    config_path = getattr(args, "config", None) or os.environ.get("HP_CONFIG")
    cfg = replace(RunConfig(), **parse_config_file(config_path)) if config_path else RunConfig()
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            cfg = replace(cfg, **{f.name: _setting_value(f, flag)})
    return cfg


def _flag(f) -> str:
    """The flag that sets RunConfig field f: its `flag`, else `--name-with-dashes`."""
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def _required(cfg: RunConfig, name: str) -> Path:
    """The path that setting `name` holds; unset, it is a run-level error
    naming the flag that sets it."""
    if not getattr(cfg, name):
        (f,) = (f for f in fields(RunConfig) if f.name == name)
        raise ValueError(f"{name} is required (flag {_flag(f)})")
    return Path(getattr(cfg, name))


def _require_dirs(cfg: RunConfig, names: list[str]) -> list[Path]:
    paths = [_required(cfg, name) for name in names]
    for name, p in zip(names, paths):
        if not p.is_dir():
            raise ValueError(f"{name} {p} is not a directory")
    return paths


def _atomic_write_via(path: Path, writer, payload) -> None:
    """writer(tmp_path, payload), then rename over path; text goes through
    Path.write_text."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    writer(tmp, payload)
    os.replace(tmp, path)


_worker_call = None  # a pool worker's fn and shared values, set once by _init_worker


def _init_worker(fn, *shared):
    global _worker_call
    _worker_call = functools.partial(fn, *shared)


def _call_in_worker(job):
    return _worker_call(job)


def _run_per_song(fn, jobs: list, workers: int, report, shared: tuple = (), name=str) -> int:
    """Run fn(*shared, job) for every job and hand each result to report in
    job order: in this process, or in one pool of `workers` processes when
    workers > 1, which receive fn and shared once each. A job holds only
    what differs per song (for most commands, the stem); run-wide values go
    in shared. A job that raises is reported on stderr as
    `error: {name(job)}: {exc}` instead. Returns the number of failed jobs."""
    failures = 0
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(fn, *shared))
            stack.enter_context(pool)
            outcomes = [pool.submit(_call_in_worker, job).result for job in jobs]
        else:
            outcomes = [functools.partial(fn, *shared, job) for job in jobs]
        for job, outcome in zip(jobs, outcomes):
            try:
                result = outcome()
            except Exception as exc:
                failures += 1
                print(f"error: {name(job)}: {exc}", file=sys.stderr)
            else:
                report(result)
    return failures


def _stems(directory: Path, suffix: str) -> list[str]:
    """The sorted stems of directory's `*{suffix}` files; none is a run-level error."""
    stems = sorted(p.name[: -len(suffix)] for p in directory.glob(f"*{suffix}"))
    if not stems:
        raise ValueError(f"no *{suffix} files in {directory}")
    return stems


def _beats_for(cfg: RunConfig, stem: str, duration: float, end: float = math.inf) -> np.ndarray:
    """Beat timestamps from the beats directory, else a fixed grid; a beat
    later than `end` is an error naming its file and line."""
    if cfg.beats_dir:
        beat_file = Path(cfg.beats_dir) / f"{stem}.txt"
        if beat_file.exists():
            beats = chroma_mod.read_beats(beat_file, end)
            if beats.size >= 2:
                return beats
        print(f"note: no usable beats for {stem}; using {cfg.beat_period}s grid", file=sys.stderr)
    return chroma_mod.default_beat_grid(duration, cfg.beat_period)


# --- chroma -----------------------------------------------------------------


def _chroma_one(cfg, audio_dir, out_dir, stem):
    buf = audio_io.resample(audio_io.WavSource(audio_dir / f"{stem}.wav"), cfg.sample_rate)
    cents = chroma_mod.estimate_tuning(buf)
    f_ref = 440.0 * 2.0 ** (cents / 1200.0)
    # One hop of slack: the last frame may reach that far past the audio.
    beats = _beats_for(cfg, stem, buf.duration, end=buf.duration + cfg.hop / cfg.sample_rate)
    for band, make in (("treble", chroma_mod.treble_config), ("bass", chroma_mod.bass_config)):
        band_cfg = make(q_factor=cfg.q_factor, hop=cfg.hop, f_ref=f_ref, bins_per_semitone=cfg.bins_per_semitone)
        ch = chroma_mod.compute_chromagram(buf, band_cfg, band)
        ch = chroma_mod.beat_sync_median(ch, beats)
        _atomic_write_via(out_dir / f"{stem}.{band}.chroma", chroma_mod.write_chromagram, ch)
    _atomic_write_via(out_dir / f"{stem}.tuning.txt", Path.write_text, f"{cents}\n")
    return stem


def cmd_chroma(cfg: RunConfig) -> int:
    (audio_dir,) = _require_dirs(cfg, ["audio_dir"])
    out_dir = _required(cfg, "chroma_dir")
    stems = _stems(audio_dir, ".wav")
    out_dir.mkdir(parents=True, exist_ok=True)
    shared = (cfg, audio_dir, out_dir)
    failures = _run_per_song(_chroma_one, stems, cfg.jobs, lambda stem: print(f"chroma: {stem}"), shared)
    return 1 if failures else 0


# --- train ------------------------------------------------------------------


def _load_song(cfg, chroma_dir, alphabet, stem):
    treble = chroma_mod.read_chromagram(chroma_dir / f"{stem}.treble.chroma")
    bass = chroma_mod.read_chromagram(chroma_dir / f"{stem}.bass.chroma")
    chords = parse_lab(Path(cfg.chords_dir) / f"{stem}.lab")
    keys = None
    if cfg.keys_dir and (Path(cfg.keys_dir) / f"{stem}.lab").exists():
        keys = parse_lab(Path(cfg.keys_dir) / f"{stem}.lab")
    beats = np.append(treble.starts, treble.ends[-1])
    labels = beat_sync_labels(chords, beats, alphabet, key_iv=keys)
    return treble, bass, labels


def cmd_train(cfg: RunConfig) -> int:
    chroma_dir, chords_dir = _require_dirs(cfg, ["chroma_dir", "chords_dir"])
    model_path = _required(cfg, "model_path")
    train_config = TrainConfig(alphabet=cfg.alphabet, alpha=cfg.alpha, epsilon=cfg.epsilon)
    stems = [s for s in _stems(chroma_dir, ".treble.chroma") if (chords_dir / f"{s}.lab").exists()]
    if not stems:
        raise ValueError(f"no training songs (need {chroma_dir}/<stem>.treble.chroma + {chords_dir}/<stem>.lab)")

    rng = np.random.default_rng(cfg.seed)
    order = list(rng.permutation(stems))
    n_train = max(1, round(len(order) * cfg.train_fraction))
    train_stems, test_stems = sorted(order[:n_train]), sorted(order[n_train:])

    dataset = []
    shared = (cfg, chroma_dir, make_alphabet(cfg.alphabet))
    failures = _run_per_song(_load_song, train_stems, cfg.jobs, dataset.append, shared)
    if not dataset:
        raise ValueError("no loadable training songs")

    model = train(dataset, train_config)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_via(model_path, lambda p, m: save_model(m, p), model)
    for split, split_stems in (("train", train_stems), ("test", test_stems)):
        manifest = "".join(s + "\n" for s in split_stems)
        _atomic_write_via(model_path.with_suffix(f".{split}_songs.txt"), Path.write_text, manifest)
    print(f"trained on {len(dataset)} songs -> {model_path}")
    for warning in model.train_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 1 if failures else 0


# --- decode -----------------------------------------------------------------


def _write_decode_labels(out_dir: Path, stem: str, path, alphabet, starts, ends) -> None:
    for kind, labels in (
        ("key", [KEY_LABELS[k] for k in path.keys]),
        ("chord", [alphabet.label_at(c) for c in path.chords]),
        ("bass", [BASS_LABELS[b] for b in path.basses]),
    ):
        merged = merge_intervals(starts, ends, labels)
        _atomic_write_via(out_dir / f"{stem}.{kind}.lab", write_lab, merged)


def _decode_one(model, chroma_dir, job):
    stem, constraints, out_dir = job
    t0 = time.perf_counter()
    treble = chroma_mod.read_chromagram(chroma_dir / f"{stem}.treble.chroma")
    bass = chroma_mod.read_chromagram(chroma_dir / f"{stem}.bass.chroma")
    t_feature = time.perf_counter() - t0
    t0 = time.perf_counter()
    path = viterbi_joint(model, constraints, treble, bass)
    t_decode = time.perf_counter() - t0
    _write_decode_labels(out_dir, stem, path, model.alphabet, treble.starts, treble.ends)
    return constraints, stem, treble.n_frames, t_feature, t_decode, path.expanded_transitions, path.log_prob


def cmd_decode(cfg: RunConfig) -> int:
    (chroma_dir,) = _require_dirs(cfg, ["chroma_dir"])
    model_path, out_root = _required(cfg, "model_path"), _required(cfg, "output_dir")
    model = load_model(model_path)
    stems = _stems(chroma_dir, ".treble.chroma")
    out_root.mkdir(parents=True, exist_ok=True)

    settings = [Constraints(gamma=g, tau=t, cac=cfg.cac) for g in cfg.gamma for t in cfg.tau]
    jobs = []
    for constraints in settings:
        out_dir = out_root
        if len(settings) > 1:
            out_dir = out_root / f"g{constraints.gamma}_t{constraints.tau}"
            out_dir.mkdir(parents=True, exist_ok=True)
        jobs += [(stem, constraints, out_dir) for stem in stems]

    timing_rows = ["gamma,tau,song,frames,feature_s,decode_s,transitions,log_prob"]

    def report(result):
        constraints, stem, frames, t_feat, t_dec, expanded, lp = result
        gamma, tau = constraints.gamma, constraints.tau
        timing_rows.append(f"{gamma},{tau},{stem},{frames},{t_feat:.4f},{t_dec:.4f},{expanded},{lp:.4f}")
        print(f"decode[g={gamma} t={tau}]: {stem} ({t_dec:.2f}s, {expanded} transitions)")

    def name(job):  # the song and its setting
        return f"{job[0]} (gamma={job[1].gamma}, tau={job[1].tau}, cac={job[1].cac})"

    failures = _run_per_song(_decode_one, jobs, cfg.jobs, report, (model, chroma_dir), name)
    _atomic_write_via(out_root / "timing.csv", Path.write_text, "\n".join(timing_rows) + "\n")
    return 1 if failures else 0


# --- eval -------------------------------------------------------------------

_BASS_STATE = {name: i for i, name in enumerate(BASS_LABELS)}


def _song_metrics(pred_dir: Path, stem: str, gt_chords, gt_key, beats, gt_bass) -> dict:
    pred_chords = parse_lab(pred_dir / f"{stem}.chord.lab")
    metrics = {
        "or_majmin": overlap_ratio(pred_chords, gt_chords, "majmin"),
        "cp": overlap_ratio(pred_chords, gt_chords, "exact"),
        "ncp": overlap_ratio(pred_chords, gt_chords, "noteset"),
    }
    if gt_key is not None:
        metrics["key_hit"] = float(predominant_key(parse_lab(pred_dir / f"{stem}.key.lab")) == gt_key)
    bass_path = pred_dir / f"{stem}.bass.lab"
    if bass_path.exists():
        prevalent = most_prevalent_labels(parse_lab(bass_path), beats)
        pred_states = np.array([-1 if lab is None else _BASS_STATE[lab] for lab in prevalent])
        metrics["f_bass"] = bass_frame_accuracy(pred_states, gt_bass)
    return metrics


def _eval_one(cfg, alphabet, other, stem):
    """(stem, metrics, duration, why flagged or None, --compare or_majmin
    or None) of one song. The ground truth (chord, key and beat files) and
    the comparison file are read first, and an unreadable one fails the
    song. A prediction that cannot be scored is flagged and scores 0 on
    every metric its ground truth supports."""
    gt_chords = parse_lab(Path(cfg.chords_dir) / f"{stem}.lab")
    gt_key = None
    if cfg.keys_dir and (key_path := Path(cfg.keys_dir) / f"{stem}.lab").exists():
        gt_key = first_key(parse_lab(key_path))
    end = gt_chords.span[1]
    beats = _beats_for(cfg, stem, end, end=end)
    gt_bass = beat_sync_labels(gt_chords, beats, alphabet).bass
    compared = None
    if other:
        compared = overlap_ratio(parse_lab(other / f"{stem}.chord.lab"), gt_chords, "majmin")
    try:
        metrics, flag = _song_metrics(Path(cfg.pred_dir), stem, gt_chords, gt_key, beats, gt_bass), None
    except Exception as exc:
        metrics = dict.fromkeys(["or_majmin", "cp", "ncp", "f_bass"] + ["key_hit"] * (gt_key is not None), 0.0)
        flag = "missing prediction" if isinstance(exc, FileNotFoundError) else str(exc)
    return stem, metrics, gt_chords.total_duration(), flag, compared


def cmd_eval(cfg: RunConfig, other: Path | None = None) -> int:
    (chords_dir,) = _require_dirs(cfg, ["chords_dir"])
    _, out_dir = _required(cfg, "pred_dir"), _required(cfg, "output_dir")  # _eval_one reads pred_dir
    stems = _stems(chords_dir, ".lab")
    out_dir.mkdir(parents=True, exist_ok=True)

    report, ours, theirs = EvalReport(), [], []

    def take(result):
        stem, metrics, duration, flag, compared = result
        report.add(stem, metrics, duration)
        if flag is not None:
            report.flagged.append(stem)
            print(f"flagged: {stem}: {flag}; scored 0", file=sys.stderr)
        if other:
            ours.append(metrics["or_majmin"])
            theirs.append(compared)

    shared = (cfg, make_alphabet(cfg.alphabet), other)
    failures = _run_per_song(_eval_one, stems, cfg.jobs, take, shared)
    report.finalize()

    lines = [report.table()]
    if other:
        try:
            t, p = paired_t_test(ours, theirs)
            lines.append(f"paired t-test (or_majmin vs {other}): t={t:.4f} p={p:.3g}")
        except ValueError as exc:
            lines.append(f"paired t-test (or_majmin vs {other}): not computable ({exc})")

    text = "\n".join(lines) + "\n"
    print(text, end="")
    _atomic_write_via(out_dir / "report.txt", Path.write_text, text)
    _atomic_write_via(out_dir / "report.csv", Path.write_text, "\n".join(report.csv_rows()) + "\n")
    return 1 if failures or report.flagged else 0


# --- synth ------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, script_path: str, out_stem: str, key: str) -> int:
    """Render a `chord duration` script into a WAV plus matching chord,
    key, and beat annotation files."""
    records = []

    def take(line):
        fields_ = line.split()
        if len(fields_) != 2:
            raise ValueError("expected `chord duration`")
        dur = float(fields_[1])
        if not 0 < dur < math.inf:
            raise ValueError(f"duration {dur} is not a positive number of seconds")
        records.append((fields_[0], parse_chord_symbol(fields_[0]), dur))

    read_lines(script_path, take)
    if not records:
        raise ValueError(f"{script_path}: empty script")

    segments, lab_records, t = [], [], 0.0
    for label, sym, dur in records:
        if sym.is_no_chord:
            segments.append(np.zeros(int(round(dur * cfg.sample_rate))))
        else:
            seg = audio_io.synthesize_triads([(chord_pitch_classes(sym), derive_bass(sym), dur)], cfg.sample_rate)
            segments.append(seg.samples)
        lab_records.append((t, t + dur, label))
        t += dur
    buf = audio_io.AudioBuffer(np.concatenate(segments), cfg.sample_rate)

    out = Path(out_stem)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_via(Path(f"{out}.wav"), audio_io.write_wav, buf)
    _atomic_write_via(Path(f"{out}.chords.lab"), write_lab, make_intervals(lab_records))
    _atomic_write_via(Path(f"{out}.keys.lab"), write_lab, make_intervals([(0.0, t, key)]))
    beats = chroma_mod.default_beat_grid(t, cfg.beat_period)
    _atomic_write_via(Path(f"{out}.beats.txt"), Path.write_text, "".join(f"{b}\n" for b in beats))
    print(f"synth: {out}.wav ({t:.1f}s, {len(records)} segments)")
    return 0


# --- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    about = "Estimate keys, chords, and bass notes from audio."
    parser = argparse.ArgumentParser(prog="chordscribe", description=about)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "chroma": sub.add_parser("chroma", help="extract beat-synchronous chromagrams"),
        "train": sub.add_parser("train", help="estimate model tables from labeled songs"),
        "decode": sub.add_parser("decode", help="decode key/chord/bass label files"),
        "eval": sub.add_parser("eval", help="score predictions against ground truth"),
        "synth": sub.add_parser("synth", help="render a chord script to WAV + annotations"),
    }
    for p in commands.values():
        p.add_argument("--config", help="key=value config file (default: $HP_CONFIG)")
    # A flag takes its setting's type; others stay text, and build_config converts a sweep list.
    kinds = {bool: {"action": "store_const", "const": True}, int: {"type": int}, float: {"type": float}}
    for f in fields(RunConfig):
        for command in f.metadata.get("commands", ()):
            commands[command].add_argument(_flag(f), dest=f.name, **kinds.get(type(f.default), {}), **f.metadata["kwargs"])
    commands["eval"].add_argument("--compare", type=Path, help="second prediction dir for a paired t-test")
    commands["synth"].add_argument("script", help="text file of `chord duration` lines")
    commands["synth"].add_argument("out_stem", help="output path stem")
    commands["synth"].add_argument("--key", default="C:maj", help="key annotation for the whole piece")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # a run-level input error; _run_per_song reports per-song ones
        cfg = build_config(args)
        if args.command == "chroma":
            return cmd_chroma(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "decode":
            return cmd_decode(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.compare)
        return cmd_synth(cfg, args.script, args.out_stem, args.key)
    except (ValueError, ModelFormatError) as exc:
        raise SystemExit(f"error: {exc}") from None
    except OSError as exc:  # e.g. a config file or synth script that cannot be opened
        raise SystemExit(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
