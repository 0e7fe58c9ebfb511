"""repro.serve — concurrent 2Phase query service with graceful degradation.

An in-process, thread-based service that runs many
:func:`repro.core.twophase.two_phase` queries concurrently over one shared
``(Graph, CoreGraph)`` pair, and stays correct and responsive under
overload and injected faults:

* bounded priority admission with typed load shedding
  (:class:`~repro.serve.queue.AdmissionQueue`);
* per-request deadlines that become
  :class:`~repro.resilience.budget.Budget` limits inside the engines;
* a circuit breaker around the Completion Phase
  (:class:`~repro.serve.breaker.CircuitBreaker`) that degrades to
  certificate-carrying Core-Phase answers instead of queue collapse;
* supervised workers (:class:`~repro.serve.workers.WorkerPool`) with
  requeue-once / poison semantics for crashed requests.

Entry point: :class:`~repro.serve.service.QueryService`. See
``docs/robustness.md`` ("Serving under overload") for the operational
story and ``repro-coregraph serve`` for a self-checking demo.
"""

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.queue import AdmissionQueue
from repro.serve.request import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_SHUTDOWN,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    Outcome,
    QueryRequest,
    Rejection,
    Ticket,
)
from repro.serve.service import QueryService, ServiceConfig
from repro.serve.stats import ServiceStats
from repro.serve.workers import WorkerPool

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "Outcome",
    "QueryRequest",
    "QueryService",
    "Rejection",
    "ServiceConfig",
    "ServiceStats",
    "Ticket",
    "WorkerPool",
    "REASON_DEADLINE",
    "REASON_QUEUE_FULL",
    "REASON_SHUTDOWN",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_REJECTED",
]
