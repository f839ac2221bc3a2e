"""Outside-in span recording for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: around the calls
it makes into each layer, and through :class:`SpanProxy` objects it hands
to the program in place of a heuristic, a LOCD algorithm, a capacity
schedule or a tracer.  No program module is patched.

Spans stay in memory while the run is measured; :meth:`SpanRecorder.dump`
writes them out once at the end, and the summaries are computed from the
written file (:func:`load_spans`), so the file holds everything they use.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = [
    "Span",
    "SpanRecorder",
    "SpanProxy",
    "load_spans",
    "self_times",
    "tiling_error",
    "summarize",
    "tail_percentile",
]


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack; every span carries its unit's id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Work counters summed over the run (moves, trace bytes, ...).
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._unit = ""

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None) -> Iterator[None]:
        """Record ``name`` around the body; ``unit`` opens a new unit."""
        if unit is not None:
            if self._stack:
                raise RuntimeError(f"unit {unit!r} opened inside a span")
            self._unit = unit
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # Placeholder keeps parents ahead of children in the list.
        self.spans.append(Span(name, 0.0, 0.0, parent, self._unit))
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._unit)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "unit": s.unit,
                }
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def load_spans(path: str) -> List[Span]:
    """Read back what :meth:`SpanRecorder.dump` wrote, in order."""
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["unit"]) for r in rows]


class SpanProxy:
    """Transparent stand-in recording a span around selected methods.

    ``methods`` maps a method name to the span name recorded around each
    call.  Every other attribute — and the absence of one, such as a
    heuristic without ``propose_vector`` — is the target's own, so the
    program sees the same object it would have without the proxy.
    """

    def __init__(
        self, target: Any, recorder: SpanRecorder, methods: Mapping[str, str]
    ) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_recorder", recorder)
        object.__setattr__(self, "_methods", dict(methods))

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._target, attr)
        span_name = self._methods.get(attr)
        if span_name is None:
            return value
        span = self._recorder.span

        def timed(*args: Any, **kwargs: Any) -> Any:
            with span(span_name):
                return value(*args, **kwargs)

        return timed

    def __setattr__(self, attr: str, value: Any) -> None:
        setattr(self._target, attr, value)


def _covered(intervals: List[Sequence[float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Sequence[float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def tiling_error(spans: Sequence[Span]) -> float:
    """Largest gap, over units, between the sum of self times and the
    unit's root duration (0 when the self times tile every unit)."""
    selfs = self_times(spans)
    roots: Dict[str, float] = {}
    sums: Dict[str, float] = {}
    for s, own in zip(spans, selfs):
        if s.parent is None:
            roots[s.unit] = roots.get(s.unit, 0.0) + s.duration
        sums[s.unit] = sums.get(s.unit, 0.0) + own
    return max((abs(sums[u] - roots[u]) for u in roots), default=0.0)


def _rank(count: int, permille: int) -> int:
    """Nearest rank (1-based) of the ``permille``/1000 quantile."""
    return max(1, -(-permille * count // 1000))


def tail_percentile(count: int) -> float:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it;
    50 when there are too few samples for any of them."""
    for permille in (999, 990, 900):
        if count - _rank(count, permille) >= 10:
            return permille / 10
    return 50.0


def summarize(
    spans: Sequence[Span], rounds: int = 1
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self time and wall time per round, plus the
    median and tail of single-call durations in milliseconds."""
    selfs = self_times(spans)
    durations: Dict[str, List[float]] = {}
    busy: Dict[str, float] = {}
    for s, own in zip(spans, selfs):
        durations.setdefault(s.name, []).append(s.duration)
        busy[s.name] = busy.get(s.name, 0.0) + own
    out: Dict[str, Dict[str, float]] = {}
    for name, values in durations.items():
        ordered = sorted(values)
        pct = tail_percentile(len(ordered))
        out[name] = {
            "calls": len(ordered) / rounds,
            "busy_s": busy[name] / rounds,
            "wall_s": sum(ordered) / rounds,
            "p50_ms": ordered[_rank(len(ordered), 500) - 1] * 1e3,
            "tail_ms": ordered[_rank(len(ordered), round(pct * 10)) - 1] * 1e3,
            "tail_pct": pct,
        }
    return out
