"""Per-request explain records: ``EXPLAIN ANALYZE`` for graph queries.

An :class:`ExplainRecord` is one wide event aggregating everything the
service learned about a single request across its lifecycle — admission
decision, queue wait, budget consumption, breaker state at execution,
per-phase work breakdown from the engines, the CG-vs-full-graph edge
ratio the Core Phase exploited, the Theorem-1 certified fraction, and the
degraded/shed reason if any. It is built in
:meth:`~repro.serve.service.QueryService._resolve` (the single place
every request terminates) and is the request's one terminal record: the
service tally and root span are read off it, and with telemetry on it is
journaled as a ``serve.explain`` event, so ``obs explain <journal>
<trace-id>`` answers "why was *this* query slow/degraded/shed?" from one
line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.resilience.anytime import certificate_counts
from repro.serve.request import Outcome, QueryRequest


def _phase_breakdown(stats: Any) -> Dict[str, Any]:
    """The explain-facing slice of one phase's RunStats."""
    return {
        "wall_ms": round(float(stats.wall_time) * 1000.0, 3),
        "iterations": int(stats.iterations),
        "edges_processed": int(stats.edges_processed),
        "updates": int(stats.updates),
    }


#: The two fields journaled under a different key than their name.
_JOURNAL_KEYS = {"trace_id": "trace", "request_id": "request"}


@dataclass
class ExplainRecord:
    """The wide per-request event (see module docstring).

    Field order is the journal's key order. A field declared with a
    ``None`` default is an optional facet, elided from the event while it
    is ``None``; the others are always present.
    """

    trace_id: Optional[str]
    request_id: int
    query: str
    source: Optional[int]
    priority: int
    status: str
    admitted: bool = False
    attempts: int = 0
    shed: bool = False
    queue_wait_ms: float = 0.0
    service_ms: float = 0.0
    reason: Optional[str] = None
    error: Optional[str] = None
    deadline_s: Optional[float] = None
    budget: Optional[Dict[str, Any]] = None
    breaker_state: Optional[str] = None
    phase1: Optional[Dict[str, Any]] = None
    phase2: Optional[Dict[str, Any]] = None
    impacted: Optional[int] = None
    certified_precise: Optional[int] = None
    certified_fraction: Optional[float] = None
    certificate: Optional[Dict[str, int]] = None
    degraded_phase: Optional[int] = None
    cg_edge_fraction: Optional[float] = None
    hubs: Optional[int] = None
    graph_epoch: Optional[int] = None
    graph_fingerprint: Optional[str] = None
    staleness: Optional[Dict[str, Any]] = None
    durability: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: the fields under their journal keys, timings
        rounded to the microsecond, None-valued optional facets elided."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if f.name in ("queue_wait_ms", "service_ms"):
                value = round(value, 3)
            out[_JOURNAL_KEYS.get(f.name, f.name)] = value
        return out


def build_explain(
    req: QueryRequest,
    outcome: Outcome,
    breaker_state: Optional[str] = None,
    cg_edge_fraction: Optional[float] = None,
    hubs: Optional[int] = None,
    num_vertices: Optional[int] = None,
    durability: Optional[Dict[str, Any]] = None,
) -> ExplainRecord:
    """Assemble the explain record for one terminal outcome."""
    rec = ExplainRecord(
        trace_id=req.trace_id,
        request_id=req.id,
        query=req.query,
        source=req.source,
        priority=req.priority,
        status=outcome.status,
        reason=None if outcome.rejection is None else outcome.rejection.reason,
        error=outcome.error,
        # Door rejections never reach a worker (wait_s stays 0); a
        # rejection carrying queue wait expired *after* admission.
        admitted=outcome.rejection is None or outcome.wait_s > 0.0,
        attempts=req.attempts,
        shed=outcome.shed,
        queue_wait_ms=outcome.wait_s * 1000.0,
        service_ms=outcome.service_s * 1000.0,
        deadline_s=req.deadline_s,
        breaker_state=breaker_state,
        cg_edge_fraction=cg_edge_fraction,
        hubs=hubs,
        graph_epoch=outcome.epoch,
        graph_fingerprint=outcome.graph_fingerprint,
        staleness=(
            None if outcome.staleness is None
            else outcome.staleness.to_dict()
        ),
        durability=durability,
    )
    if req.max_iterations is not None or req.deadline_s is not None:
        rec.budget = {
            "deadline_s": req.deadline_s,
            "max_iterations": req.max_iterations,
        }
    res = outcome.result
    if res is not None:
        rec.phase1 = _phase_breakdown(res.phase1)
        rec.phase2 = _phase_breakdown(res.phase2)
        rec.impacted = int(res.impacted)
        rec.certified_precise = int(res.certified_precise)
        if num_vertices:
            rec.certified_fraction = round(
                res.certified_precise / num_vertices, 6
            )
        if res.certificate is not None:
            rec.certificate = certificate_counts(res.certificate)
        rec.degraded_phase = res.degraded_phase
        if res.budget_error is not None:
            budget = rec.budget or {}
            budget["exceeded"] = res.budget_error.as_dict()
            rec.budget = budget
    return rec


def render_explain(payload: Dict[str, Any]) -> str:
    """Human-readable rendering of one explain event (CLI ``obs explain``)."""
    lines = [
        f"explain: request {payload.get('request')} "
        f"[{payload.get('query')}] -> {payload.get('status')}",
        f"  trace           {payload.get('trace')}",
    ]

    def row(label: str, value: Any) -> None:
        if value is not None:
            lines.append(f"  {label:15s} {value}")

    row("source", payload.get("source"))
    row("priority", payload.get("priority"))
    row("reason", payload.get("reason"))
    row("error", payload.get("error"))
    row("admitted", payload.get("admitted"))
    row("attempts", payload.get("attempts"))
    row("shed", payload.get("shed"))
    row("queue_wait_ms", payload.get("queue_wait_ms"))
    row("service_ms", payload.get("service_ms"))
    row("deadline_s", payload.get("deadline_s"))
    row("breaker", payload.get("breaker_state"))
    budget = payload.get("budget")
    if budget is not None:
        row("budget", budget)
    for phase in ("phase1", "phase2"):
        info = payload.get(phase)
        if info:
            lines.append(
                f"  {phase:15s} {info.get('wall_ms', 0):.3f} ms, "
                f"{info.get('iterations', 0)} iters, "
                f"{info.get('edges_processed', 0)} edges, "
                f"{info.get('updates', 0)} updates"
            )
    row("impacted", payload.get("impacted"))
    row("certified", payload.get("certified_precise"))
    frac = payload.get("certified_fraction")
    if frac is not None:
        row("cert_fraction", f"{frac:.4f}")
    cert = payload.get("certificate")
    if cert:
        row(
            "certificate",
            ", ".join(f"{k}={v}" for k, v in cert.items()),
        )
    row("degraded_phase", payload.get("degraded_phase"))
    cg = payload.get("cg_edge_fraction")
    if cg is not None:
        row("cg_edges", f"{cg:.4f} of full graph")
    row("hubs", payload.get("hubs"))
    epoch = payload.get("graph_epoch")
    if epoch is not None:
        fp = payload.get("graph_fingerprint") or ""
        row("epoch", f"{epoch}" + (f" (fp {fp[:12]})" if fp else ""))
    durable = payload.get("durability")
    if durable:
        mode = durable.get("mode")
        if mode == "wal":
            row(
                "durability",
                f"wal fsync={durable.get('fsync')} "
                f"dir={durable.get('dir')}",
            )
        else:
            row("durability", mode)
    stale = payload.get("staleness")
    if stale:
        probe = stale.get("probe_precision")
        row(
            "staleness",
            f"lag={stale.get('epoch_lag')} "
            f"churned={stale.get('churned_edges')} "
            f"probe={'n/a' if probe is None else f'{probe:.1f}%'}",
        )
    return "\n".join(lines)
