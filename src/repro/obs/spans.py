"""Nested wall-time spans on ``perf_counter``.

A span times one region of work (a 2Phase phase, one hub query, one CG
build). Spans nest: entering a span pushes it onto a thread-local stack,
so concurrently-running threads keep independent nestings and every span
knows its parent and depth. Each completed span updates a per-name rollup
(the CLI summary table, exact over the whole run), joins a bounded window
of the most recent records and, when a journal is active, is emitted as a
``span`` event on exit.

When telemetry is disabled :func:`span` returns a shared inert context
manager, so instrumented code pays one flag check and no allocation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import runtime, trace
from repro.obs.metrics import Histogram


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    start: float
    duration: float
    depth: int
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None


class _NullSpan:
    """Inert stand-in returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: :func:`records` keeps this many of the most recent spans; a long-lived
#: ``serve --metrics`` opens ~5 per request, so the full list cannot be kept.
RECORDS_WINDOW = 4096

_lock = threading.Lock()
_records: "deque[SpanRecord]" = deque(maxlen=RECORDS_WINDOW)
_rollup: Dict[str, Histogram] = {}
_local = threading.local()


def _stack() -> List["Span"]:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


class Span:
    """Live timing context; use via :func:`span`."""

    __slots__ = (
        "name", "attrs", "start", "depth", "parent",
        "span_id", "parent_id", "trace_id",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.depth = 0
        self.parent: Optional[str] = None
        self.span_id = trace.new_span_id()
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None

    def __enter__(self) -> "Span":
        stack = _stack()
        self.depth = len(stack)
        if stack:
            self.parent = stack[-1].name
            self.parent_id = stack[-1].span_id
        else:
            # First span this thread opens for a request: parent under the
            # propagated trace context's owning span (usually the request
            # root minted at submit), so cross-thread trees stay connected.
            ctx = trace.current()
            if ctx is not None:
                self.parent_id = ctx.span_id
        ctx = trace.current()
        self.trace_id = None if ctx is None else ctx.trace_id
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self.start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        record = SpanRecord(
            name=self.name,
            start=self.start,
            duration=duration,
            depth=self.depth,
            parent=self.parent,
            attrs=self.attrs,
            span_id=self.span_id,
            parent_span_id=self.parent_id,
        )
        with _lock:
            _records.append(record)
            agg = _rollup.get(self.name)
            if agg is None:
                agg = _rollup[self.name] = Histogram()
            agg.observe(duration)
        # Every completed span feeds a streaming histogram keyed by span
        # name, which is how per-phase engine time and per-hub CG-build
        # time get full latency distributions without instrumenting the
        # kernels themselves (wall-clock reads stay out of their loops).
        # The owning trace id rides along as the bucket's exemplar.
        from repro.obs import metrics as obs_metrics

        obs_metrics.stream_hist(
            "obs.live.span_ms", span=self.name
        ).observe(duration * 1e3, exemplar=self.trace_id)
        from repro.obs import journal

        event = {
            "type": "span",
            "name": self.name,
            "duration_s": duration,
            "depth": self.depth,
            "parent": self.parent,
            "span_id": self.span_id,
            "parent_span_id": self.parent_id,
            **self.attrs,
        }
        if self.trace_id is not None:
            event["trace"] = self.trace_id
        active = journal.active_journal()
        if active is not None:
            # Spans journal on *exit*; the explicit start time is what lets
            # consumers place other events inside the right span interval.
            event["start_t"] = active.rel_time(self.start)
        journal.emit(event)
        return False


def span(name: str, **attrs: Any):
    """Context manager timing a named region (no-op when disabled)."""
    if not runtime._enabled:
        return _NULL_SPAN
    return Span(name, attrs)


def current_span_name() -> Optional[str]:
    """Name of the innermost open span on this thread, if any."""
    stack = _stack()
    return stack[-1].name if stack else None


def records() -> List[SpanRecord]:
    """The most recent completed spans (at most :data:`RECORDS_WINDOW`)."""
    with _lock:
        return list(_records)


def reset() -> None:
    """Drop all completed spans (the open stack is left alone)."""
    with _lock:
        _records.clear()
        _rollup.clear()


def summary() -> Dict[str, Dict[str, float]]:
    """Per-name rollup over every span since :func:`reset`: count,
    total/min/max seconds."""
    with _lock:
        return {
            name: {"count": agg.count, "total_s": agg.total,
                   "min_s": agg.min, "max_s": agg.max}
            for name, agg in _rollup.items()
        }


def render_summary() -> str:
    """Aligned text table of :func:`summary` (total-time descending)."""
    rollup = summary()
    if not rollup:
        return "no spans recorded"
    lines = [f"{'span':32s} {'count':>6s} {'total ms':>10s} "
             f"{'min ms':>10s} {'max ms':>10s}"]
    for name, agg in sorted(
        rollup.items(), key=lambda kv: kv[1]["total_s"], reverse=True
    ):
        lines.append(
            f"{name:32s} {agg['count']:>6d} {agg['total_s'] * 1e3:>10.2f} "
            f"{agg['min_s'] * 1e3:>10.2f} {agg['max_s'] * 1e3:>10.2f}"
        )
    return "\n".join(lines)
