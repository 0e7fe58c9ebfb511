"""Request-scoped causal tracing: a propagated ``(trace_id, span_id)`` context.

A *trace* ties every telemetry artifact a request produces — span events,
engine ``rounds`` lines, fault fires, the final explain record — to one
``trace_id``, across the threads the request crosses (submitter, queue,
worker). The context (:class:`TraceContext`, :func:`use`,
:func:`current`) is an immutable pair carried in a thread-local.
:mod:`repro.obs.spans` consults it when a thread's own span stack is
empty, so the first span a worker opens for a request parents under the
request's *root* span instead of floating free, and
:mod:`repro.obs.journal` stamps every emitted line with the active trace
id. The journal is the one record of a trace: ``obs trace`` and
``obs explain`` rebuild a request's tree and explain record from it.

Ids are process-unique: a per-process nonce plus a locked counter.
Nothing here reads the wall clock or global RNG state.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

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
