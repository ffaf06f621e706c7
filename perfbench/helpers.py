"""Pure helpers for the benchmark: order statistics, the failure ledger and
an in-memory span tracer.  Nothing here imports numpy or sst, so the
helpers can be tested without the program and never skew its import time.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples.  The
    product is rounded first so that 99.9% of 10000 is 9990, not 9991."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return sorted(values)[rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th."""
    return n - rank(n, p)


def tail_percentile(n: int, ladder=TAIL_LADDER) -> float | None:
    """The highest percentile of the ladder with at least MIN_BEYOND samples
    beyond it, or None when even the lowest has fewer."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def failure_ratio(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError(f"failure ratio needs at least one attempt, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


class Ledger:
    """Counts checked operations; each failed check keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.errors)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(what)
        return bool(ok)

    @property
    def ratio(self) -> float:
        return failure_ratio(self.failed, self.attempted)


# -- tracing -----------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: int       # id of the root span of the same request
    name: str
    start: float        # perf_counter seconds
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, spans) -> float:
    """The span's duration minus the part of its interval that its direct
    children cover; overlapping children are counted once."""
    pieces = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans if c.parent_id == span.span_id
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in pieces:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


class Tracer:
    """Records nested spans in memory; ``write`` saves them at the end of a
    run.  A span opened with no span open starts a new request."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans) + len(self._open)
        span = Span(span_id, parent.span_id if parent else None,
                    parent.trace_id if parent else span_id, name, self.clock(), 0.0)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()
            self.spans.append(span)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path) -> None:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent_id, []).append(s)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                own = self_time(s, children.get(s.span_id, []))
                fh.write(json.dumps({**asdict(s), "self": own}) + "\n")
