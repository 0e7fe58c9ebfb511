"""Request-scoped causal tracing: propagated context + tail-based sampling.

A *trace* ties every telemetry artifact a request produces — span events,
engine ``rounds`` lines, fault fires, the final explain record — to one
``trace_id``, across the threads the request crosses (submitter, queue,
worker) and, via :meth:`TraceContext.to_env`, across future process
boundaries. The design splits three concerns:

* **Context propagation** (:class:`TraceContext`, :func:`use`,
  :func:`current`) — an immutable ``(trace_id, span_id)`` pair carried in
  a thread-local. :mod:`repro.obs.spans` consults it when a thread's own
  span stack is empty, so the first span a worker opens for a request
  parents under the request's *root* span instead of floating free, and
  :mod:`repro.obs.journal` stamps every emitted line with the active
  trace id.
* **Collection** (:func:`install_collector`, :func:`dispatch`) — a
  process-wide hook fed every journal-bound event that carries a trace
  id, whether or not a journal file is open. The query service installs
  a :class:`TraceStore` here so live traces are inspectable without
  ``--trace``.
* **Tail-based sampling** (:class:`TailSampler`, :class:`TraceStore`) —
  the store buffers events per in-flight trace under hard caps and
  decides retention only when the outcome is known: slow, degraded,
  failed, or poisoned traces are always kept; healthy traffic is
  head-sampled (a deterministic 1-in-``head_every`` choice hashed from
  the trace id). Memory stays bounded by evicting retained head samples
  before retained problem traces, never the other way around.

Ids are process-unique: a per-process nonce (so two cooperating
processes — the future sharded backend — cannot collide) plus a locked
counter. Nothing here reads the wall clock or global RNG state.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

ENV_TRACE_ID = "REPRO_TRACE_ID"
ENV_SPAN_ID = "REPRO_TRACE_SPAN"

#: Retention reasons a :class:`TailSampler` decision may carry.
RETAIN_DEGRADED = "degraded"
RETAIN_FAILED = "failed"
RETAIN_SLOW = "slow"
RETAIN_SHED = "shed"
RETAIN_HEAD = "head"

_NONCE = os.urandom(4).hex()
_id_lock = threading.Lock()
_next_span = 0


def new_span_id() -> str:
    """A process-unique span id (nonce + locked counter)."""
    global _next_span
    with _id_lock:
        _next_span += 1
        n = _next_span
    return f"{_NONCE}{n:08x}"


def new_trace_id() -> str:
    """A fresh trace id (same shape as span ids, distinct sequence)."""
    return f"t{new_span_id()}"


@dataclass(frozen=True)
class TraceContext:
    """Immutable propagation unit: which trace, and which span owns work.

    ``span_id`` is the id new child spans (and synthetic events) parent
    under — for a freshly minted context it is the request's root span.
    """

    trace_id: str
    span_id: str

    def child(self, span_id: str) -> "TraceContext":
        """The same trace re-rooted under ``span_id``."""
        return TraceContext(self.trace_id, span_id)

    # -- serialization (dict for queues/journals, env for subprocesses) --
    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        return cls(str(payload["trace_id"]), str(payload["span_id"]))

    def to_env(self) -> Dict[str, str]:
        """Environment form a child process re-enters via :meth:`from_env`."""
        return {ENV_TRACE_ID: self.trace_id, ENV_SPAN_ID: self.span_id}

    @classmethod
    def from_env(
        cls, environ: Optional[Dict[str, str]] = None
    ) -> Optional["TraceContext"]:
        env = os.environ if environ is None else environ
        trace_id = env.get(ENV_TRACE_ID)
        if not trace_id:
            return None
        return cls(trace_id, env.get(ENV_SPAN_ID) or trace_id)


def new_trace() -> TraceContext:
    """Mint a new trace with its root span id."""
    return TraceContext(new_trace_id(), new_span_id())


# ---------------------------------------------------------------------------
# Thread-local current context
# ---------------------------------------------------------------------------

_local = threading.local()


def current() -> Optional[TraceContext]:
    """The context active on this thread, if any."""
    return getattr(_local, "ctx", None)


def current_trace_id() -> Optional[str]:
    ctx = current()
    return None if ctx is None else ctx.trace_id


def set_current(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` on this thread; returns the prior context."""
    prior = current()
    _local.ctx = ctx
    return prior


@contextmanager
def use(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Scoped :func:`set_current`; ``use(None)`` is an inert passthrough."""
    if ctx is None:
        yield None
        return
    prior = set_current(ctx)
    try:
        yield ctx
    finally:
        set_current(prior)


# ---------------------------------------------------------------------------
# Collector hook: journal-bound events fan out here too
# ---------------------------------------------------------------------------

_collector: Optional[Callable[[Dict[str, Any]], None]] = None


def install_collector(fn: Callable[[Dict[str, Any]], None]) -> None:
    """Install the process-wide trace collector (one at a time)."""
    global _collector
    _collector = fn


def uninstall_collector(fn: Optional[Callable] = None) -> None:
    """Remove the collector (or only ``fn``, if it is still installed)."""
    global _collector
    if fn is None or _collector is fn:
        _collector = None


def dispatch(event: Dict[str, Any]) -> None:
    """Hand a trace-stamped event to the collector (no-op without one).

    Called by :func:`repro.obs.journal.emit` for every event that carries
    a ``trace`` field. A collector must never take the workload down:
    exceptions are swallowed here, at the boundary.
    """
    fn = _collector
    if fn is None or "trace" not in event:
        return
    try:
        fn(event)
    except Exception:  # repro: noqa RC004 — collector boundary: tracing must never break the traced workload
        pass


# ---------------------------------------------------------------------------
# Tail-based sampling
# ---------------------------------------------------------------------------


class TailSampler:
    """Retention policy decided at end of request (tail), not at start.

    ``decide`` returns the retention reason, or ``None`` to drop:

    * degraded / failed outcomes and shed requests are always retained;
    * anything slower than ``slow_ms`` is retained;
    * remaining (healthy) traffic is *head*-sampled — a deterministic
      1-in-``head_every`` choice hashed from the trace id, so the same
      trace id always gets the same verdict regardless of which process
      asks.
    """

    def __init__(
        self, slow_ms: Optional[float] = 500.0, head_every: int = 16
    ) -> None:
        if head_every < 1:
            raise ValueError(f"head_every must be >= 1, got {head_every}")
        self.slow_ms = slow_ms
        self.head_every = head_every

    def head_sampled(self, trace_id: str) -> bool:
        """Deterministic 1-in-``head_every`` verdict for healthy traces."""
        if self.head_every == 1:
            return True
        digest = zlib.crc32(trace_id.encode("utf-8"))
        return digest % self.head_every == 0

    def decide(
        self,
        trace_id: str,
        status: str,
        latency_ms: Optional[float] = None,
        shed: bool = False,
    ) -> Optional[str]:
        """The retention reason for one finished trace, or None (drop)."""
        if status == "failed":
            return RETAIN_FAILED
        if status == "degraded":
            return RETAIN_DEGRADED
        if shed:
            return RETAIN_SHED
        if (
            self.slow_ms is not None
            and latency_ms is not None
            and latency_ms >= self.slow_ms
        ):
            return RETAIN_SLOW
        return RETAIN_HEAD if self.head_sampled(trace_id) else None


@dataclass
class TraceRecord:
    """One finished, retained trace in a :class:`TraceStore`."""

    trace_id: str
    status: str
    reason: str
    latency_ms: Optional[float]
    events: List[Dict[str, Any]]
    truncated: int = 0
    explain: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "status": self.status,
            "reason": self.reason,
            "latency_ms": self.latency_ms,
            "events": len(self.events),
            "truncated": self.truncated,
        }


class TraceStore:
    """Bounded in-memory trace retention driven by a :class:`TailSampler`.

    Lifecycle per trace: :meth:`begin` opens an in-flight buffer,
    :meth:`record` (the collector hook) appends stamped events up to
    ``max_events_per_trace`` (overflow is counted, not stored), and
    :meth:`finish` asks the sampler whether to keep the buffer. Retained
    traces live in an insertion-ordered map capped at ``capacity``;
    eviction removes the oldest *head-sampled* trace first, so problem
    traces (degraded/failed/slow/shed) are only displaced by newer
    problem traces once head samples are exhausted — the bounded-memory
    guarantee the chaos tests assert.
    """

    def __init__(
        self,
        sampler: Optional[TailSampler] = None,
        capacity: int = 256,
        max_events_per_trace: int = 512,
        max_in_flight: int = 1024,
    ) -> None:
        self.sampler = sampler or TailSampler()
        self.capacity = capacity
        self.max_events_per_trace = max_events_per_trace
        self.max_in_flight = max_in_flight
        self._lock = threading.Lock()
        self._in_flight: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
        self._truncated: Dict[str, int] = {}
        self._retained: "OrderedDict[str, TraceRecord]" = OrderedDict()
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _inc(self, key: str, amount: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def begin(self, trace_id: str) -> None:
        """Open the in-flight buffer for a just-minted trace."""
        with self._lock:
            if len(self._in_flight) >= self.max_in_flight:
                # A leaked begin() (caller never finished) must not grow
                # without bound; drop the stalest in-flight buffer.
                self._in_flight.popitem(last=False)
                self._inc("abandoned")
            self._in_flight[trace_id] = []
            self._truncated.pop(trace_id, None)

    def record(self, event: Dict[str, Any]) -> None:
        """Collector hook: buffer one stamped event for its trace."""
        trace_id = event.get("trace")
        if not isinstance(trace_id, str):
            return
        with self._lock:
            buf = self._in_flight.get(trace_id)
            if buf is None:
                return
            if len(buf) >= self.max_events_per_trace:
                self._truncated[trace_id] = (
                    self._truncated.get(trace_id, 0) + 1
                )
                self._inc("truncated")
                return
            buf.append(event)

    def finish(
        self,
        trace_id: str,
        status: str,
        latency_ms: Optional[float] = None,
        shed: bool = False,
        explain: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Close a trace; returns the retention reason or None (dropped)."""
        reason = self.sampler.decide(trace_id, status, latency_ms, shed)
        with self._lock:
            events = self._in_flight.pop(trace_id, [])
            truncated = self._truncated.pop(trace_id, 0)
            if reason is None:
                self._inc("dropped")
                return None
            self._retained[trace_id] = TraceRecord(
                trace_id=trace_id,
                status=status,
                reason=reason,
                latency_ms=latency_ms,
                events=events,
                truncated=truncated,
                explain=explain,
            )
            self._retained.move_to_end(trace_id)
            self._inc("retained")
            self._inc(f"retained_{reason}")
            self._evict_locked()
        return reason

    def _evict_locked(self) -> None:
        while len(self._retained) > self.capacity:
            victim = None
            for tid, rec in self._retained.items():  # oldest first
                if rec.reason == RETAIN_HEAD:
                    victim = tid
                    break
            if victim is None:
                victim = next(iter(self._retained))
            del self._retained[victim]
            self._inc("evicted")

    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> Optional[TraceRecord]:
        with self._lock:
            return self._retained.get(trace_id)

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._retained)

    def records(self) -> List[TraceRecord]:
        with self._lock:
            return list(self._retained.values())

    def recent(self, n: int = 5) -> List[Dict[str, Any]]:
        """Newest retained traces, summarized for /statz."""
        with self._lock:
            newest = list(self._retained.values())[-n:]
        return [rec.to_dict() for rec in reversed(newest)]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            buffered = sum(len(b) for b in self._in_flight.values())
            stored = sum(len(r.events) for r in self._retained.values())
            out = dict(self._counts)
            # The container sizes must come from the same critical
            # section as the sums above, or a concurrent finish() makes
            # the snapshot internally inconsistent.
            out.update(
                in_flight=len(self._in_flight),
                traces=len(self._retained),
                events=stored,
                buffered_events=buffered,
            )
        return out

    def clear(self) -> None:
        with self._lock:
            self._in_flight.clear()
            self._truncated.clear()
            self._retained.clear()
            self._counts.clear()
