"""An in-memory span recorder and the self-time arithmetic over its spans.

A span is (name, start, end, parent index, line id).  Spans are kept in a
list while the traced run goes on and written out once at the end.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    line: str


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    line: str = ""
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``after(args, kwargs, result)``
        runs once the span has closed, to take counts at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.line)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.line] for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def _rank(n: int, q: float) -> int:
    """Index of the nearest-rank q-quantile among n sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def p50(values: list[float]) -> float:
    return sorted(values)[_rank(len(values), 0.5)] if values else 0.0


def tail(values: list[float]) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it;
    0.0 when there are fewer than 20 samples."""
    n = len(values)
    ordered = sorted(values)
    best = 0.0
    for q in (0.5, 0.9, 0.99, 0.999):
        if n - 1 - _rank(n, q) >= 10:
            best = ordered[_rank(n, q)]
    return best
