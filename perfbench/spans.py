"""Spans and counters recorded from outside the program, for the traced run.

The traced run rebinds public functions of the statspace modules (and
``numpy.linalg.eigh``/``eigvalsh``) to wrappers that record a span or bump a
counter, then restores them. The CLI and the library look these names up on
their modules at call time, so no program file changes. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # operation the span belongs to


class Tracer:
    """Collects spans (name, start, end, parent, op id) and named counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def timed(
        self,
        fn: Callable,
        name: str,
        counted: Callable[..., dict[str, float]] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``counted(result, *args)`` adds counts."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counted is not None:
                self.counts.update(counted(result, *args, **kwargs))
            return result

        return wrapper

    def counting(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to count its calls, without a span."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


@contextmanager
def installed(patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Rebind ``(owner, attribute, replacement)`` triples; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
