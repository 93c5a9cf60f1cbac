"""Span recorder for the traced run.

A span is (name, start, end, parent) with times from ``time.perf_counter``;
``parent`` is the index of the enclosing span or -1.  Spans come from two
places, both in the benchmark's own files: ``Tracer.span`` around the
benchmark's calls, and ``Tracer.wrap``, which swaps a module attribute for
a recording wrapper.  ``wrap`` works on attributes that the program looks
up at call time (``training._presolve``, ``ad.backward``, ...), so the
program itself is not edited.  Spans stay in memory and are written once,
when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._finish(index)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Record a span around every call of ``module.attr``.

        ``count(args, kwargs, result)`` may return a dict of counts for the
        span; it runs after the span has closed, so its cost is not timed.
        A call that raises closes its span with ``counts["raised"] = 1``.
        An attribute the module no longer has is listed in ``missing``, and
        the metrics read from its spans fall to 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._finish(index).counts["raised"] = 1
                raise
            span = self._finish(index)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def tree(self) -> dict[int, list[int]]:
        """Indices of each span's direct children, keyed by parent."""
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s.parent, []).append(i)
        return kids

    def named(self, name: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.name == name]

    def self_ms(self, index: int, excluded: str, kids: dict) -> float:
        """Duration of span ``index`` minus its direct children named
        ``excluded``."""
        return self.spans[index].ms - sum(
            self.spans[c].ms for c in kids.get(index, [])
            if self.spans[c].name == excluded)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "counts"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.counts]
                                 for s in self.spans]}, fh)
            fh.write("\n")
