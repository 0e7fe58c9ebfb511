"""The query service: many concurrent 2Phase queries over one shared pair.

:class:`QueryService` owns a shared ``(Graph, CoreGraph)`` pair plus a
bounded admission queue, a supervised worker pool, and a circuit breaker
around the Completion Phase. The degradation ladder under load:

1. healthy — every request runs both phases and returns a full result;
2. breaker OPEN — the Completion Phase is shed; requests get Core-Phase
   answers flagged ``degraded=True`` with per-vertex certificates;
3. queue full / deadline unmeetable — requests are rejected at the door
   with a typed :class:`~repro.serve.request.Rejection`.

Every path resolves the caller's :class:`~repro.serve.request.Ticket`
exactly once — including worker deaths (requeue once, then poison) and
shutdown (leftover queue entries become ``shutdown`` rejections). The
``ServiceStats.lost == 0`` identity over that contract is what the chaos
CI step asserts under injected worker kills.

With an :class:`~repro.evolve.EpochStore` (live-graph mode) the service
pins one immutable epoch per request: the graph and CG the engines see
are always a matched pair, mutations publish *new* epochs concurrently,
and answers computed on a superseded epoch carry a
:class:`~repro.evolve.StalenessCertificate` quantifying the lag.

Thread-safety notes: 2Phase itself keeps all mutable state per-call (see
:mod:`repro.core.twophase`); the shared caches the workers touch
(``symmetric_view``, :mod:`repro.harness.cache`) are individually
locked.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.core.coregraph import CoreGraph
from repro.core.twophase import two_phase
from repro.evolve.epoch import EpochStore
from repro.graph.csr import Graph
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.obs.live import prom
from repro.obs.spans import span
from repro.queries.registry import get_spec
from repro.resilience.budget import Budget

from repro.serve.breaker import CircuitBreaker
from repro.serve.explain import build_explain
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
from repro.serve.stats import ServiceStats, Tally
from repro.serve.workers import WorkerPool

#: A request whose worker died is requeued until it has failed this many
#: times, then poisoned (resolved ``failed``) instead of retried forever.
MAX_ATTEMPTS = 2
#: EWMA smoothing for the admission-time service estimate.
_EWMA_ALPHA = 0.2


@dataclass
class ServiceConfig:
    """Tunables for one :class:`QueryService`."""

    workers: int = 4
    queue_capacity: int = 64
    default_max_iterations: Optional[int] = None
    triangle: bool = False
    breaker_cooldown_s: float = 1.0


class QueryService:
    """Concurrent 2Phase query service over one shared graph/proxy pair."""

    def __init__(
        self,
        g: Optional[Graph] = None,
        proxy: Optional[Union[CoreGraph, Graph]] = None,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        epochs: Optional[EpochStore] = None,
        maintainer: Optional[Any] = None,
    ) -> None:
        if epochs is not None:
            # Live-graph mode: the store owns the pair; requests pin an
            # epoch for their lifetime instead of touching self.g/proxy.
            initial = epochs.current()
            g = initial.graph if g is None else g
            proxy = initial.proxy if proxy is None else proxy
        if g is None or proxy is None:
            raise ValueError(
                "QueryService needs either (g, proxy) or an EpochStore"
            )
        self.g = g
        self.proxy = proxy
        self.epochs = epochs
        # The EpochMaintainer (when serving a live graph) — the source of
        # the durability facet on explain records and the wal metric rows.
        self.maintainer = maintainer
        self.config = config or ServiceConfig()
        self._clock = clock
        self._queue = AdmissionQueue(self.config.queue_capacity)
        self.breaker = CircuitBreaker(cooldown_s=self.config.breaker_cooldown_s)
        self._pool = WorkerPool(self, self.config.workers)
        self._tally = Tally()
        # Explain-record constants: the CG/full-graph edge ratio and hub
        # count are properties of the shared pair, computed once.
        self._num_vertices = int(g.num_vertices)
        self._cg_edge_fraction: Optional[float] = None
        if g.num_edges:
            self._cg_edge_fraction = float(proxy.num_edges) / float(g.num_edges)
        hubs = getattr(proxy, "hubs", None)
        self._num_hubs: Optional[int] = None if hubs is None else len(hubs)
        self._exporter: Optional[object] = None
        self._cond = threading.Condition()
        self._tickets: Dict[int, Ticket] = {}
        self._next_id = 0
        self._outstanding = 0
        self._ewma_service_s: Optional[float] = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        if not self._started:
            self._started = True
            self._pool.start()
        return self

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def submit(
        self,
        query: str,
        source: Optional[int] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        max_iterations: Optional[int] = None,
        triangle: Optional[bool] = None,
    ) -> Ticket:
        """Admit (or reject) one query; always returns a resolving Ticket.

        Unknown query names raise ``KeyError`` immediately — a malformed
        call is a caller bug, not service load. Everything else resolves
        through the ticket.
        """
        get_spec(query)  # validate before accounting
        cfg = self.config
        with self._cond:
            self._next_id += 1
            req = QueryRequest(
                query=query,
                source=source,
                priority=priority,
                deadline_s=deadline_s,
                max_iterations=(
                    cfg.default_max_iterations
                    if max_iterations is None else max_iterations
                ),
                triangle=cfg.triangle if triangle is None else triangle,
                id=self._next_id,
                submitted_at=self._clock(),
                trace=obs_trace.new_trace(),
                submitted_perf=time.perf_counter(),
            )
            ticket = Ticket(req)
            self._tickets[req.id] = ticket
            self._outstanding += 1
            closed = self._closed
        self._tally.inc("submitted")

        with obs_trace.use(req.trace):
            with span("serve.admit", query=req.query, request=req.id):
                rejection = self._admission_check(req, closed)
            if rejection is not None:
                self._resolve(
                    req,
                    Outcome(request=req, status=STATUS_REJECTED,
                            rejection=rejection),
                )
                return ticket
        self._tally.inc("admitted")
        return ticket

    def _admission_check(
        self, req: QueryRequest, closed: bool
    ) -> Optional[Rejection]:
        """Decide req's fate at the door; None means admitted."""
        if closed:
            return Rejection(REASON_SHUTDOWN, "service is shutting down")
        if req.deadline_s is not None:
            if req.deadline_s <= 0:
                return Rejection(REASON_DEADLINE, "non-positive deadline")
            est = self._estimate_wait_s()
            if est is not None and est > req.deadline_s:
                return Rejection(
                    REASON_DEADLINE,
                    f"estimated queue wait {est:.3f}s exceeds "
                    f"deadline {req.deadline_s:.3f}s",
                )
        if not self._queue.offer(req):
            return Rejection(
                REASON_QUEUE_FULL,
                f"admission queue at capacity {self._queue.capacity}",
            )
        return None

    def _estimate_wait_s(self) -> Optional[float]:
        """Expected queue wait from depth and the EWMA service time."""
        ewma = self._ewma_service_s
        if ewma is None:
            return None
        return (self._queue.depth() / self.config.workers) * ewma

    # ------------------------------------------------------------------
    def _emit_queue_wait(self, req: QueryRequest, wait_s: float) -> None:
        """Synthesize the queue-wait span: no thread owns the queue time,
        so the interval (submit -> worker pickup) is journaled directly as
        a span event parented under the request's root span."""
        if not obs_runtime._enabled or req.trace is None:
            return
        event = {
            "type": "span", "name": "serve.queue.wait",
            "duration_s": wait_s, "depth": 1,
            "parent": "serve.request",
            "span_id": obs_trace.new_span_id(),
            "parent_span_id": req.trace.span_id,
            "trace": req.trace.trace_id,
            "request": req.id,
        }
        active = obs_journal.active_journal()
        if active is not None:
            event["start_t"] = active.rel_time(req.submitted_perf)
        obs_journal.emit(event)

    def _execute(self, req: QueryRequest) -> Outcome:
        """Run one admitted request (worker thread context)."""
        now = self._clock()
        wait_s = now - req.submitted_at
        self._emit_queue_wait(req, wait_s)
        remaining = req.remaining_s(now)
        if remaining is not None and remaining <= 0:
            # Expired while queued: abort before any engine work.
            return Outcome(
                request=req, status=STATUS_REJECTED,
                rejection=Rejection(
                    REASON_DEADLINE, "deadline expired while queued"
                ),
                wait_s=wait_s,
            )
        budget: Optional[Budget] = None
        if remaining is not None or req.max_iterations is not None:
            # two_phase() claims the budget (begin_run); the service only
            # constructs it, so the single-claim invariant holds.
            budget = Budget(
                deadline_s=remaining, max_iterations=req.max_iterations
            )
        shed = not self.breaker.allow_completion()
        spec = get_spec(req.query)
        t0 = self._clock()
        if self.epochs is not None:
            res, epoch, stale = self._execute_pinned(req, spec, budget, shed)
        else:
            epoch, stale = None, None
            with span("serve.execute", query=req.query, request=req.id):
                res = two_phase(
                    self.g, self.proxy, spec, req.source,
                    triangle=req.triangle, budget=budget,
                    anytime=True, completion=not shed,
                )
        service_s = self._clock() - t0

        with self._cond:
            prior = self._ewma_service_s
            self._ewma_service_s = (
                service_s if prior is None
                else _EWMA_ALPHA * service_s + (1.0 - _EWMA_ALPHA) * prior
            )

        if shed:
            status = STATUS_DEGRADED
        elif res.degraded:
            status = STATUS_DEGRADED
            if res.degraded_phase == 2:
                # Only Completion-Phase blowups feed the breaker: a
                # Core-Phase abort says the request's budget was tiny,
                # not that the expensive phase is drowning.
                self.breaker.record_failure()
        else:
            status = STATUS_OK
            self.breaker.record_success()
        if stale is not None and obs_runtime._enabled:
            obs_metrics.gauge("evolve.epoch_lag").set(stale.epoch_lag)
        return Outcome(
            request=req, status=status, result=res, shed=shed,
            wait_s=wait_s, service_s=service_s,
            epoch=None if epoch is None else epoch.number,
            graph_fingerprint=None if epoch is None else epoch.fingerprint,
            staleness=stale,
        )

    def _execute_pinned(self, req, spec, budget, shed):
        """Run one request against a pinned epoch (live-graph services).

        The pin holds the (graph, proxy) pair stable for the request's
        whole execution — concurrent mutations publish *new* epochs and
        never touch a pinned one, so the 2Phase exactness argument holds
        unchanged. If newer epochs exist by the time the answer is
        computed, a :class:`~repro.evolve.StalenessCertificate`
        quantifying the lag rides back on the Outcome.
        """
        assert self.epochs is not None
        with self.epochs.pin() as epoch:
            if san_runtime._enabled:
                san_probes.check_epoch_integrity(epoch, "serve.execute")
            # Theorem-1 triangle inequalities were certified against the
            # CG *as built*; any churn since invalidates them, so the
            # fast path is gated per-epoch (answers stay exact either
            # way — 2Phase just re-derives what the certificate skipped).
            triangle = req.triangle and epoch.triangle_safe
            with obs_journal.context(
                graph_epoch=epoch.number,
                graph_fingerprint=epoch.fingerprint,
            ):
                with span(
                    "serve.execute", query=req.query, request=req.id,
                    epoch=epoch.number,
                ):
                    res = two_phase(
                        epoch.graph, epoch.proxy, spec, req.source,
                        triangle=triangle, budget=budget,
                        anytime=True, completion=not shed,
                    )
            latest = self.epochs.current()
            stale = (
                epoch.staleness(latest)
                if latest.number > epoch.number else None
            )
        return res, epoch, stale

    # ------------------------------------------------------------------
    def _resolve(self, req: QueryRequest, outcome: Outcome) -> None:
        """Deliver a terminal outcome exactly once; all accounting lives here."""
        with self._cond:
            ticket = self._tickets.pop(req.id, None)
        if ticket is None:
            return  # already resolved (e.g. crash after a late resolve)
        with obs_trace.use(req.trace):
            self._account_and_finish(req, outcome)
        ticket.resolve(outcome)
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    def _account_and_finish(self, req: QueryRequest, outcome: Outcome) -> None:
        """Settle one terminal request: build its explain record once;
        the tally, the root span and the journaled wide event are all
        read off it."""
        rec = build_explain(
            req, outcome,
            breaker_state=str(self.breaker.snapshot()["state"]),
            cg_edge_fraction=self._cg_edge_fraction,
            hubs=self._num_hubs,
            num_vertices=self._num_vertices,
            durability=(
                None if self.maintainer is None
                else self.maintainer.durability()
            ),
        )
        self._tally.settle(rec)
        if obs_runtime._enabled:
            self._emit_root_span(req, outcome)
            obs_journal.emit({
                "type": "event", "name": "serve.explain", **rec.to_dict(),
            })

    def _emit_root_span(self, req: QueryRequest, outcome: Outcome) -> None:
        """Synthesize the ``serve.request`` root span (submit -> resolve).

        The root's span id is the one the trace context was minted with,
        so every span/event emitted anywhere in the request's lifetime —
        admission, queue wait, worker execution, engine phases, injected
        faults — already parents under it.
        """
        if req.trace is None:
            return
        event = {
            "type": "span", "name": "serve.request",
            "duration_s": time.perf_counter() - req.submitted_perf,
            "depth": 0, "parent": None,
            "span_id": req.trace.span_id, "parent_span_id": None,
            "trace": req.trace.trace_id,
            "request": req.id, "query": req.query,
            "status": outcome.status,
        }
        active = obs_journal.active_journal()
        if active is not None:
            event["start_t"] = active.rel_time(req.submitted_perf)
        obs_journal.emit(event)

    # ------------------------------------------------------------------
    def _on_worker_death(
        self, wid: int, req: QueryRequest, exc: BaseException
    ) -> None:
        """The in-flight request's worker died: requeue once, then poison."""
        req.attempts += 1
        req.failures.append(f"{type(exc).__name__}: {exc}")
        with self._cond:
            still_open = req.id in self._tickets
        if not still_open:
            return  # the crash landed after resolution; nothing to redo
        if req.attempts >= MAX_ATTEMPTS:
            self._tally.inc("poisoned")
            self._resolve(
                req,
                Outcome(
                    request=req, status=STATUS_FAILED,
                    error="; ".join(req.failures),
                ),
            )
            return
        self._tally.inc("requeued")
        if not self._queue.requeue(req):
            self._resolve(
                req,
                Outcome(
                    request=req, status=STATUS_REJECTED,
                    rejection=Rejection(
                        REASON_SHUTDOWN,
                        "service shut down while the request was retried",
                    ),
                ),
            )

    def _on_worker_restart(
        self, wid: int, exc: Exception, restarts: int
    ) -> None:
        self._tally.inc("worker_restarts")
        if obs_runtime._enabled:
            obs_journal.emit({
                "type": "event", "name": "serve.worker.restart",
                "worker": wid, "restarts": restarts,
                "error": f"{type(exc).__name__}: {exc}",
            })

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has resolved."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while self._outstanding > 0:
                wait = None
                if deadline is not None:
                    wait = deadline - self._clock()
                    if wait <= 0:
                        return False
                self._cond.wait(wait)
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Stop admitting, resolve the backlog as shutdown, stop workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        self.stop_exporter()
        for req in self._queue.close():
            self._resolve(
                req,
                Outcome(
                    request=req, status=STATUS_REJECTED,
                    rejection=Rejection(
                        REASON_SHUTDOWN, "service closed before execution"
                    ),
                ),
            )
        self._pool.stop(timeout)
        if obs_runtime._enabled:
            stats = self.stats()
            obs_journal.emit({
                "type": "event", "name": "serve.stats", **stats.to_dict(),
            })
            # Fold the tally into the registry once, so ``--metrics``
            # tables and the journal's closing snapshot carry its rows.
            for kind, name, labels, value in self._tally_rows(stats):
                if kind == "stream_hist":
                    obs_metrics.stream_hist(name).merge(value.snapshot())
                elif value:
                    obs_metrics.counter(name, **dict(labels)).inc(value)

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        snap = self.breaker.snapshot()
        return ServiceStats(
            **self._tally.counts(),
            breaker_trips=int(snap["trips"]),
            breaker_state=str(snap["state"]),
            queue_depth=self._queue.depth(),
            latency_p50_ms=self._tally.latency_ms.quantile(0.50),
            latency_p95_ms=self._tally.latency_ms.quantile(0.95),
            graph_epoch=(
                0 if self.epochs is None else self.epochs.latest_number()
            ),
        )

    def latency_snapshot(self):
        """Immutable snapshot of the full service-latency distribution."""
        return self._tally.latency_ms.snapshot()

    def wait_snapshot(self):
        """Immutable snapshot of the queue-wait distribution."""
        return self._tally.wait_ms.snapshot()

    def _tally_rows(self, stats: ServiceStats) -> List[prom.Row]:
        """The tally as exporter rows: every counted stats field plus the
        two full-run histograms."""
        return [
            *stats.counter_rows(),
            ("stream_hist", "serve.latency_ms", (), self._tally.latency_ms),
            ("stream_hist", "serve.queue_wait_ms", (), self._tally.wait_ms),
        ]

    # ------------------------------------------------------------------
    # Live observability plane (scrape exporter surfaces)
    # ------------------------------------------------------------------
    def statz(self) -> Dict[str, object]:
        """The /statz document: service stats, always on."""
        doc = dict(self.stats().to_dict())
        doc["workers_alive"] = self._pool.alive_count()
        return doc

    def healthz(self) -> Tuple[bool, Dict[str, object]]:
        """Liveness: healthy while open with at least one live worker."""
        with self._cond:
            closed = self._closed
        alive = self._pool.alive_count()
        healthy = not closed and (alive > 0 or not self._started)
        return healthy, {
            "workers_alive": alive,
            "breaker": str(self.breaker.snapshot()["state"]),
            "queue_depth": self._queue.depth(),
        }

    def metric_rows(self) -> List[prom.Row]:
        """Always-on ``serve.*`` exporter rows from the service tally.

        Independent of the telemetry switch (the tally always counts), so
        a scraper sees accurate service series even on ``--metrics``-less
        runs. The exporter renders these rows before the registry, so a
        live service's series win over the totals closed ones folded in.
        """
        stats = self.stats()
        rows: List[prom.Row] = [
            *self._tally_rows(stats),
            ("gauge", "serve.queue_depth", (), stats.queue_depth),
            ("gauge", "serve.workers_alive", (), self._pool.alive_count()),
            ("gauge", "serve.breaker.trips", (), stats.breaker_trips),
            ("gauge", "serve.lost", (), stats.lost),
        ]
        if self.epochs is not None:
            rows.extend([
                ("gauge", "evolve.epoch", (), stats.graph_epoch),
                ("gauge", "evolve.pinned", (), self.epochs.pinned_count()),
            ])
        wal = getattr(self.maintainer, "wal", None)
        if wal is not None:
            wstats = wal.stats()
            rows.extend([
                ("counter", "evolve.wal.appends", (), wstats["appends"]),
                ("counter", "evolve.wal.fsyncs", (), wstats["fsyncs"]),
                ("counter", "evolve.wal.compacted_segments", (),
                 wstats["compacted_segments"]),
                ("gauge", "evolve.wal.segments", (), wstats["segments"]),
            ])
        return rows

    def start_exporter(self, port: int = 0, host: str = "127.0.0.1"):
        """Start (or return) the /metrics endpoint for this service."""
        if self._exporter is not None:
            return self._exporter
        from repro.obs.live.server import MetricsServer

        self._exporter = MetricsServer(
            port=port,
            host=host,
            collectors=[self.metric_rows],
            healthz=self.healthz,
            statz=self.statz,
        ).start()
        return self._exporter

    def stop_exporter(self) -> None:
        exporter = self._exporter
        self._exporter = None
        if exporter is not None:
            exporter.stop()
