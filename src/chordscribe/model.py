"""Maximum-likelihood training of the key/chord/bass model.

All probability tables are relative-frequency estimates (optionally with
additive smoothing); emissions are per-state multivariate Gaussians over
chroma frames. Chord transitions are learned in key-relative coordinates:
every transition is transposed so its key tonic sits on C before counting,
one table per mode, which multiplies the usable evidence per cell by 12.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .annotations import N_BASS, N_KEYS, UNLABELED, Alphabet, make_alphabet, utf8_lines
from .chroma import Chromagram


class ModelFormatError(Exception):
    """Model file is corrupt, truncated, or from an unknown version."""


@dataclass
class TrainConfig:
    alphabet: str = "majmin25"
    alpha: float = 0.1  # additive pseudo-count on initial/transition counts
    epsilon: float = 1e-4  # diagonal covariance regularizer

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"smoothing alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"covariance regularizer epsilon must be finite and > 0, got {self.epsilon}")


class Gaussians(NamedTuple):
    """An emission table's distinct Gaussians (equal bytes of mean and covariance), each
    factored once: row r of `tables`, the (means, covs) it was built from, is index[r]."""

    means: np.ndarray  # (g, d)
    inverses: np.ndarray  # (g, d, d) the inverse of each lower Cholesky factor L
    logdets: np.ndarray  # (g,)
    index: np.ndarray  # (n,)
    tables: tuple


class _KeepsGaussians:
    """A model that keeps Gaussians of its emission tables, which `_factor`
    made read-only. Pickle does not record that flag, so pickling drops any
    kept Gaussians whose tables are writeable (perhaps edited since, as a
    deep copy's may be) and unpickling marks the rest read-only again: a
    decode uses the kept factors only where they still hold, and a copy
    (shallow or deep) never makes the tables it shares read-only."""

    def __getstate__(self):
        return {
            name: None if isinstance(held, Gaussians) and any(t.flags.writeable for t in held.tables) else held
            for name, held in self.__dict__.items()
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        for held in state.values():
            if isinstance(held, Gaussians):
                for table in held.tables:
                    table.setflags(write=False)

    def __deepcopy__(self, memo):
        copied = memo[id(self)] = object.__new__(type(self))
        copied.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return copied


@dataclass
class ChordOnlyHmm(_KeepsGaussians):
    """Simple chord-chain HMM over concatenated treble+bass chroma (24-d
    emissions); first stage of the two-stage chord-alphabet reduction."""

    init: np.ndarray  # (C,)
    trans: np.ndarray  # (C, C)
    means: np.ndarray  # (C, 24)
    covs: np.ndarray  # (C, 24, 24)
    gaussians: Gaussians | None = None  # of means and covs, kept by train and load_model


@dataclass
class HpModel(_KeepsGaussians):
    """All learned probability tables plus the raw counts kept for pruning.

    chord_trans_rel holds the two key-relative chord transition tables
    (row 0: major-mode contexts, row 1: minor), indexed by chord states
    transposed so the key tonic is C. The absolute table for a concrete
    key is the mode table permuted by the key's row of key_shift_table.
    """

    alphabet: Alphabet
    init_key: np.ndarray  # (24,)
    init_chord: np.ndarray  # (C,)
    init_bass: np.ndarray  # (13,)
    key_trans: np.ndarray  # (24, 24)
    chord_trans_rel: np.ndarray  # (2, C, C)
    bass_given_chord: np.ndarray  # (C, 13)
    bass_trans: np.ndarray  # (13, 13)
    chord_emis_mean: np.ndarray  # (C, 12)
    chord_emis_cov: np.ndarray  # (C, 12, 12)
    bass_emis_mean: np.ndarray  # (13, 12)
    bass_emis_cov: np.ndarray  # (13, 12, 12)
    key_trans_counts: np.ndarray  # (24, 24) raw
    chord_bass_counts: np.ndarray  # (C, 13) raw
    cac: ChordOnlyHmm
    train_warnings: list[str] = field(default_factory=list)
    chord_emis_gaussians: Gaussians | None = None  # kept by train and load_model
    bass_emis_gaussians: Gaussians | None = None

    @property
    def n_chords(self) -> int:
        return self.alphabet.size


def _normalize_rows(counts: np.ndarray, alpha: float) -> np.ndarray:
    """(count + alpha) / (rowsum + alpha*n). With alpha=0, unobserved rows
    stay all-zero (their MLE is undefined)."""
    smoothed = counts + alpha
    sums = smoothed.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        out = np.where(sums > 0, smoothed / np.where(sums > 0, sums, 1.0), 0.0)
    return out


def _fit_gaussians(frames, states, n, epsilon, state_names, warnings_out):
    """Sample mean and MLE covariance (+ epsilon*I) of the frames of each
    state 0..n-1, taken in frame order; states with no observations get a
    flat fallback (mean 0.5, cov 0.1*I) and a warning."""
    dim = frames.shape[1]
    means = np.full((n, dim), 0.5)
    covs = np.tile(0.1 * np.eye(dim), (n, 1, 1))
    for s in range(n):
        x = frames[states == s]
        if len(x) == 0:
            warnings_out.append(f"no emission observations for {state_names(s)}")
            continue
        means[s] = x.mean(axis=0)
        centered = x - means[s]
        covs[s] = centered.T @ centered / x.shape[0] + epsilon * np.eye(dim)
    return means, covs


def _counts(shape, *idx) -> np.ndarray:
    """Table counting the index tuples (idx[0][t], idx[1][t], ...) over
    frames t, except every tuple that holds an UNLABELED entry."""
    labeled = np.logical_and.reduce([i != UNLABELED for i in idx])
    out = np.zeros(shape)
    np.add.at(out, tuple(i[labeled] for i in idx), 1)
    return out


def train(dataset, cfg: TrainConfig) -> HpModel:
    """Estimate every table of the model from labeled chromagram frames.

    dataset: iterable of (treble Chromagram, bass Chromagram, FrameLabels)
    with equal frame counts per song, counted as one concatenation. One
    rule holds for every count: it is skipped when a state it reads is
    UNLABELED, and frame t - 1's states are UNLABELED at each song's first
    frame, so no transition crosses two songs. A chord transition also
    reads frame t's key, whose row of key_shift_table transposes both
    chords. p(bass | chord) skips each song's first frame, where the
    initial bass distribution applies instead. A state at or above its
    count (24 keys, the alphabet's chords, 13 basses) is an error naming
    the song, by its position in dataset, and the frame."""
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty training dataset")
    alphabet = make_alphabet(cfg.alphabet)
    n_chords = alphabet.size
    for song, (treble, bass, labels) in enumerate(dataset):
        if not (len(labels) == treble.n_frames == bass.n_frames):
            raise ValueError("label/chromagram frame counts differ")
        for name, n in (("key", N_KEYS), ("chord", n_chords), ("bass", N_BASS)):
            states = getattr(labels, name)
            bad = np.flatnonzero(states >= n)
            if bad.size:
                state, frame = states[bad[0]], bad[0]
                raise ValueError(f"song {song}: {name} state {state} at frame {frame} exceeds the last, {n - 1}")

    t_frames = np.concatenate([treble.values.T for treble, _, _ in dataset])
    b_frames = np.concatenate([bass.values.T for _, bass, _ in dataset])
    k, c, b = (np.concatenate([getattr(fl, f) for *_, fl in dataset]) for f in ("key", "chord", "bass"))
    first = np.isin(np.arange(len(k)), np.cumsum([0] + [len(fl) for *_, fl in dataset[:-1]]))
    kp, cp, bp = (np.where(first, UNLABELED, np.roll(x, 1)) for x in (k, c, b))  # frame t - 1
    shift = alphabet.key_shift_table()

    def relative(chords):  # chord states moved by the target frame's key, tonic on C
        return np.where(chords == UNLABELED, UNLABELED, shift[k, chords])

    init_chord_c = _counts(n_chords, np.where(first, c, UNLABELED))
    key_c = _counts((N_KEYS, N_KEYS), kp, k)
    rel_c = _counts((2, n_chords, n_chords), k // 12, relative(cp), relative(c))  # mode; -1 // 12 is -1
    bc_c = _counts((n_chords, N_BASS), np.where(first, UNLABELED, c), b)
    cac_c = _counts((n_chords, n_chords), cp, c)

    warnings: list[str] = []
    chord_mean, chord_cov = _fit_gaussians(t_frames, c, n_chords, cfg.epsilon, alphabet.label_at, warnings)
    bass_mean, bass_cov = _fit_gaussians(b_frames, b, N_BASS, cfg.epsilon, lambda s: f"bass {s}", warnings)
    cac_mean, cac_cov = _fit_gaussians(
        np.hstack([t_frames, b_frames]), c, n_chords, cfg.epsilon,
        lambda s: f"{alphabet.label_at(s)} (chord-only)", warnings,
    )  # fmt: skip

    return HpModel(
        alphabet=alphabet,
        init_key=_normalize_rows(_counts(N_KEYS, np.where(first, k, UNLABELED)), cfg.alpha),
        init_chord=_normalize_rows(init_chord_c, cfg.alpha),
        init_bass=_normalize_rows(_counts(N_BASS, np.where(first, b, UNLABELED)), cfg.alpha),
        key_trans=_normalize_rows(key_c, cfg.alpha),
        chord_trans_rel=_normalize_rows(rel_c, cfg.alpha),
        bass_given_chord=_normalize_rows(bc_c, cfg.alpha),
        bass_trans=_normalize_rows(_counts((N_BASS, N_BASS), bp, b), cfg.alpha),
        chord_emis_mean=chord_mean,
        chord_emis_cov=chord_cov,
        bass_emis_mean=bass_mean,
        bass_emis_cov=bass_cov,
        key_trans_counts=key_c,
        chord_bass_counts=bc_c,
        cac=ChordOnlyHmm(
            init=_normalize_rows(init_chord_c, cfg.alpha),
            trans=_normalize_rows(cac_c, cfg.alpha),
            means=cac_mean,
            covs=cac_cov,
            gaussians=_factor(cac_mean, cac_cov)[0],  # None where a row has no factor, for a decode to name
        ),
        train_warnings=warnings,
        chord_emis_gaussians=_factor(chord_mean, chord_cov)[0],
        bass_emis_gaussians=_factor(bass_mean, bass_cov)[0],
    )


def _factor(means: np.ndarray, covs: np.ndarray) -> tuple[Gaussians | None, tuple | None]:
    """(the table's Gaussians, None), or (None, (row, what, "is not ...")) at
    the first distinct row with a non-finite mean or covariance or with no
    factor. The tables become read-only: no edit in place can leave the set stale."""
    for table in (means, covs):
        table.setflags(write=False)
    first = {}  # bytes of each distinct Gaussian -> the first row that has it
    rows = [first.setdefault(m.tobytes() + c.tobytes(), s) for s, (m, c) in enumerate(zip(means, covs))]
    firsts = list(first.values())
    finite = np.isfinite(means[firsts]).all(axis=1) & np.isfinite(covs[firsts]).all(axis=(1, 2))
    n_ok = len(firsts) if finite.all() else int(np.argmin(finite))  # errors keep row order
    try:  # one LAPACK call, which reads lower triangles only and gives each matrix the bits of its own call
        factors = np.linalg.cholesky(covs[firsts[:n_ok]])
    except np.linalg.LinAlgError:
        for row in firsts[:n_ok]:
            try:
                np.linalg.cholesky(covs[row])
            except np.linalg.LinAlgError:
                return None, (row, "covariance", "is not positive definite")
        raise
    if n_ok < len(firsts):
        return None, (firsts[n_ok], "mean or covariance", "is not finite")
    logdets = 2.0 * np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
    return Gaussians(means[firsts], np.linalg.inv(factors), logdets, np.searchsorted(firsts, rows), (means, covs)), None


def gaussian_logpdf_frames(
    frames: np.ndarray, means: np.ndarray, covs: np.ndarray, state_name=lambda s: f"state {s}", rows=None, held=None
) -> np.ndarray:
    """Log densities of every frame under the Gaussians of the rows `rows`
    (all by default) of the table (means, covs): (T, n). Each distinct
    Gaussian is evaluated once and every row sharing it gets that column,
    so identical states get identical bits (the decoder's tie-breaks).
    held is the set a model keeps: while these are its very tables, still
    read-only, only the products L^-1 (x - mean) remain, one per Gaussian.
    Otherwise the rows are factored here (numpy's LAPACK, a few ulp from
    scipy's cho_solve), and state_name(s) names row s of them in the error
    for a non-finite mean or covariance or a covariance that is not
    positive definite."""
    frames = np.asarray(frames, dtype=np.float64)
    t, d = frames.shape
    if not np.isfinite(frames).all():
        raise ValueError("frames must be finite")
    rows = slice(None) if rows is None else rows
    if held is None or any(a is not b or a.flags.writeable for a, b in zip((means, covs), held.tables)):
        held, fault = _factor(means[rows], covs[rows])  # a view or a copy: the caller's tables stay writeable
        if fault is not None:
            raise ValueError(f"{fault[1]} of {state_name(fault[0])} {fault[2]}")
        rows = slice(None)
    cols, index = np.unique(held.index[rows], return_inverse=True)
    maha = np.empty((t, cols.size))
    for j, i in enumerate(cols):
        z = (frames - held.means[i]) @ held.inverses[i].T
        maha[:, j] = np.einsum("td,td->t", z, z)
    return np.take(-0.5 * (d * np.log(2.0 * np.pi) + held.logdets[cols] + maha), index, axis=1)


# --- serialization -------------------------------------------------------------

_FORMAT_HEADER = "chordscribe-model v1"

# The model file's tables in file order: name, shape given the chord count,
# and kind. `cac_` names are fields of the chord-only model, the rest of
# HpModel. load_model requires every value to be finite, `prob` entries in
# [0, 1] with rows (last axis) summing to at most 1 (alpha=0 training
# leaves unseen rows all-zero), `count` entries >= 0, and `cov` matrices
# symmetric positive definite.
_SCHEMA = (
    ("init_key", lambda c: (N_KEYS,), "prob"),
    ("init_chord", lambda c: (c,), "prob"),
    ("init_bass", lambda c: (N_BASS,), "prob"),
    ("key_trans", lambda c: (N_KEYS, N_KEYS), "prob"),
    ("chord_trans_rel", lambda c: (2, c, c), "prob"),
    ("bass_given_chord", lambda c: (c, N_BASS), "prob"),
    ("bass_trans", lambda c: (N_BASS, N_BASS), "prob"),
    ("chord_emis_mean", lambda c: (c, 12), "mean"),
    ("chord_emis_cov", lambda c: (c, 12, 12), "cov"),
    ("bass_emis_mean", lambda c: (N_BASS, 12), "mean"),
    ("bass_emis_cov", lambda c: (N_BASS, 12, 12), "cov"),
    ("key_trans_counts", lambda c: (N_KEYS, N_KEYS), "count"),
    ("chord_bass_counts", lambda c: (c, N_BASS), "count"),
    ("cac_init", lambda c: (c,), "prob"),
    ("cac_trans", lambda c: (c, c), "prob"),
    ("cac_means", lambda c: (c, 24), "mean"),
    ("cac_covs", lambda c: (c, 24, 24), "cov"),
)


def _table_header(name: str, shape: tuple) -> str:
    return f"table {name} " + " ".join(str(s) for s in shape)


def save_model(m: HpModel, path) -> None:
    """Versioned plain-text model file, one table per section; values are
    shortest round-trip decimals, so save->load->save is byte-identical."""
    with open(path, "w") as fh:
        fh.write(f"{_FORMAT_HEADER}\nalphabet {m.alphabet.kind}\n")
        for name, shape_of, _ in _SCHEMA:
            shape = shape_of(m.n_chords)
            owner = m.cac if name.startswith("cac_") else m
            arr = np.asarray(getattr(owner, name.removeprefix("cac_")), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"table {name} has shape {arr.shape}, expected {shape}")
            fh.write(_table_header(name, shape) + "\n")
            for row in arr.reshape(shape[0], -1).tolist():
                fh.write(" ".join(map(repr, row)) + "\n")
        fh.write("end\n")


def _table_fault(kind: str, arr: np.ndarray) -> tuple[int, str] | None:
    """First value of a table that its kind forbids, as (row of the table
    in the file, what is wrong); None when the table is valid."""
    checks = {"non-finite value": ~np.isfinite(arr)}
    with np.errstate(invalid="ignore"):  # inf - inf in a row sum; caught above
        if kind == "prob":
            checks["probability outside [0, 1]"] = (arr < 0.0) | (arr > 1.0)
            checks["probabilities sum above 1"] = arr.sum(axis=-1, keepdims=True) > 1.0 + 1e-9
        elif kind == "count":
            checks["negative count"] = arr < 0.0
        elif kind == "cov":  # and positive definite, which load_model checks as it factors the table
            checks["covariance is not symmetric"] = ~np.isclose(arr, arr.swapaxes(1, 2), atol=1e-10)
    for what, mask in checks.items():
        rows = np.flatnonzero(mask.reshape(mask.shape[0], -1).any(axis=1))
        if rows.size:
            return int(rows[0]), what
    return None


def load_model(path) -> HpModel:
    """Read a model file written by save_model, a line at a time. The tables
    must follow the schema for the file's alphabet in order, name and shape,
    and hold values their kind allows; anything else raises ModelFormatError
    naming the file, the line and the table; the model keeps the factored Gaussians."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            parts = (part for line in fh for part in line.splitlines())  # str.splitlines, as of the whole text
            return _read_model(path, utf8_lines(path, parts, ModelFormatError))
    except OSError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _read_model(path, lines) -> HpModel:
    if next(lines, None) != _FORMAT_HEADER:
        raise ModelFormatError(f"{path}: not a {_FORMAT_HEADER!r} file")
    line = next(lines, "")
    if not line.startswith("alphabet "):
        raise ModelFormatError(f"{path}:2: missing alphabet line")
    try:
        alphabet = make_alphabet(line.partition(" ")[2])
    except ValueError as exc:
        raise ModelFormatError(f"{path}:2: {exc}") from exc

    tables = {}
    lineno = 3  # of the next line to read
    for name, shape_of, kind in _SCHEMA:
        shape = shape_of(alphabet.size)
        header, width = _table_header(name, shape), int(np.prod(shape[1:]))
        got = next(lines, "end of file")
        if got != header:
            raise ModelFormatError(f"{path}:{lineno}: expected `{header}`, got `{got}`")
        table = np.empty((shape[0], width))
        for lineno, row in enumerate(table, lineno + 1):
            values = next(lines, "").split()
            try:  # a row of another width takes (), which raises
                row[:] = [float(v) for v in values] if len(values) == width else ()
            except ValueError:
                raise ModelFormatError(f"{path}:{lineno}: table {name}: expected a row of {width} numbers") from None
        tables[name] = table.reshape(shape)
        fault = _table_fault(kind, tables[name])
        if fault is None and kind == "cov":  # factored with its means, read before it; the field is *_gaussians
            held, bad = _factor(tables[name.replace("cov", "mean")], tables[name])
            tables[name[: name.rindex("_")] + "_gaussians"], fault = held, bad and (bad[0], f"{bad[1]} {bad[2]}")
        if fault is not None:
            raise ModelFormatError(f"{path}:{lineno - shape[0] + 1 + fault[0]}: table {name}: {fault[1]}")
        lineno += 1
    if next(lines, None) != "end":
        raise ModelFormatError(f"{path}:{lineno}: expected the `end` marker")
    for _ in lines:  # a byte that is not UTF-8 after `end` is an error too
        pass

    cac = ChordOnlyHmm(**{n.removeprefix("cac_"): tables.pop(n) for n in list(tables) if n.startswith("cac_")})
    return HpModel(alphabet=alphabet, cac=cac, **tables)
