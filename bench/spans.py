"""Spans around calls into chordscribe, recorded from outside the package.

`Tracer.install` replaces a public function with a timing wrapper in every
chordscribe module that holds a reference to it, so a call nested inside
another public function (say `chord_alphabet_constraint` inside
`viterbi_joint`) gets a span of its own. Spans stay in memory; run.py
writes them as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A public function to wrap. `info` maps (args, result) to the counts
    a span keeps; `whole_set` marks calls that work on every song at once;
    `keep` stores the call's arguments and result for later checks."""

    module: str
    attr: str
    info: Callable | None = None
    whole_set: bool = False
    keep: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


def _song_of(args):
    """Song stem of the first path argument, if any (plain strings are
    settings such as a band or a comparison mode, not files)."""
    for a in args:
        if isinstance(a, os.PathLike):
            return Path(a).name.split(".", 1)[0]
    return None


def _chordscribe_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "chordscribe"]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.kept: list[tuple] = []
        self.song = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name, song):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "song": song,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        return record

    def _close(self, record):
        record["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, song=None):
        """A span the benchmark opens itself."""
        record = self._open(name, self.song if song is None else song)
        try:
            yield record
        finally:
            self._close(record)

    def _wrapper(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            song = "*" if target.whole_set else _song_of(args)
            if song is None:
                song = self.song
            elif song != "*":
                self.song = song
            with self.span(target.name, song) as record:
                result = fn(*args, **kwargs)
            if target.info is not None:
                record["info"] = target.info(args, result)
            if target.keep:
                self.kept.append((args, result))
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each target wherever chordscribe holds a reference to it.
        A module imported later picks the wrapper up from the module that
        defines the function, so `uninstall` scans every module again."""
        for target in targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrapper(target, original)
            self._patched.append((target.attr, original, wrapper))
            for module in _chordscribe_modules():
                if getattr(module, target.attr, None) is original:
                    setattr(module, target.attr, wrapper)

    def uninstall(self) -> None:
        for attr, original, wrapper in self._patched:
            for module in _chordscribe_modules():
                if getattr(module, attr, None) is wrapper:
                    setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration less the
        durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - child_time[i])
        return out


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer()._wrapper(Target("bench", "noop"), noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - t0 - bare) / calls
