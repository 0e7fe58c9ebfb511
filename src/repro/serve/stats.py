"""Service-level accounting, independent of the telemetry switch.

The service keeps its own thread-safe :class:`Tally` (plain ints under a
lock, keyed by the :class:`ServiceStats` field names) so stats are always
available — even when telemetry is off and nothing feeds the metrics
registry. Each counted field names the ``/metrics`` series it is exported
as, so the snapshot, the ``serve.stats`` journal event that
``repro-coregraph obs report`` renders in its Resilience table, and the
exporter rows are all the same fields read three ways.

The load-bearing identity is :meth:`ServiceStats.lost`::

    lost = submitted - (ok + degraded + failed + rejected)

Zero lost requests is the chaos invariant: every admitted request
resolves, even across worker kills, breaker trips, and shutdown.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.live.hist import StreamingHistogram
from repro.serve.request import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_SHUTDOWN,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
)


def _counted(metric: str, **labels: str) -> Any:
    """A :class:`Tally`-backed counter field exported as ``metric``."""
    return field(
        default=0,
        metadata={"metric": metric, "labels": tuple(labels.items())},
    )


@dataclass
class ServiceStats:
    """Point-in-time snapshot of a :class:`~repro.serve.service.QueryService`."""

    submitted: int = _counted("serve.submitted")
    admitted: int = _counted("serve.admitted")
    completed: int = _counted("serve.completed")
    degraded: int = _counted("serve.degraded")
    shed_completions: int = _counted("serve.shed")
    failed: int = _counted("serve.failed")
    poisoned: int = _counted("serve.poisoned")
    rejected_queue_full: int = _counted(
        "serve.rejected", reason=REASON_QUEUE_FULL
    )
    rejected_deadline: int = _counted("serve.rejected", reason=REASON_DEADLINE)
    rejected_shutdown: int = _counted("serve.rejected", reason=REASON_SHUTDOWN)
    requeued: int = _counted("serve.requeued")
    worker_restarts: int = _counted("serve.worker.restarts")
    breaker_trips: int = 0
    breaker_state: str = "closed"
    queue_depth: int = 0
    latency_p50_ms: Optional[float] = None
    latency_p95_ms: Optional[float] = None
    #: Answers computed on an epoch that was superseded before resolve
    #: (live-graph services only; every one carries a staleness
    #: certificate — the chaos job asserts certified == stale).
    stale_answers: int = _counted("evolve.stale_answers")
    #: Current epoch number (0 for static services).
    graph_epoch: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_shutdown
        )

    @property
    def resolved(self) -> int:
        """Requests that reached a terminal outcome."""
        return self.completed + self.degraded + self.failed + self.rejected

    @property
    def lost(self) -> int:
        """Submitted requests with no terminal outcome (must be 0 at rest)."""
        return self.submitted - self.resolved

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "lost": self.lost}

    def counter_rows(self) -> List[Tuple[str, str, tuple, int]]:
        """One exporter ``("counter", name, labels, value)`` row per
        counted field."""
        return [
            ("counter", f.metadata["metric"], f.metadata["labels"],
             getattr(self, f.name))
            for f in _COUNTED
        ]

    def render(self) -> str:
        """Aligned text table (the ``repro-coregraph serve`` report)."""
        rows = self.to_dict()
        width = max(len(k) for k in rows)
        return "\n".join(
            f"{k:{width}s}  {'-' if v is None else v}" for k, v in rows.items()
        )


_COUNTED = tuple(f for f in fields(ServiceStats) if f.metadata)
#: Which counter one terminal request lands in: by status, or for
#: rejections by the reason label of the matching ``serve.rejected`` field.
_STATUS_KEY = {
    STATUS_OK: "completed", STATUS_DEGRADED: "degraded", STATUS_FAILED: "failed",
}
_REASON_KEY = {
    reason: f.name for f in _COUNTED
    for _, reason in f.metadata["labels"]
}


class Tally:
    """Thread-safe counters + full-run streaming latency histograms.

    Latency and queue-wait distributions are log-bucketed streaming
    histograms (:mod:`repro.obs.live.hist`): constant memory, every
    observation retained, percentiles of the whole run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {f.name: 0 for f in _COUNTED}
        self.latency_ms = StreamingHistogram()
        self.wait_ms = StreamingHistogram()

    def inc(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1

    def settle(self, explain: Any) -> None:
        """Count one terminal request off its explain record: its status
        (or rejection reason), a shed completion, a stale answer and, for
        served requests, both timings."""
        key = _STATUS_KEY.get(explain.status) or _REASON_KEY[explain.reason]
        with self._lock:
            self._counts[key] += 1
            if explain.shed:
                self._counts["shed_completions"] += 1
            if explain.staleness is not None:
                self._counts["stale_answers"] += 1
        if explain.status in (STATUS_OK, STATUS_DEGRADED):
            self.latency_ms.observe(
                explain.service_ms, exemplar=explain.trace_id
            )
            self.wait_ms.observe(
                explain.queue_wait_ms, exemplar=explain.trace_id
            )

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)
