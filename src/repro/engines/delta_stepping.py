"""Delta-stepping SSSP (Meyer & Sanders): the bucketed middle ground.

The evaluation engines span Bellman-Ford-style frontier push (lots of
parallelism, redundant relaxations) and Dijkstra (no redundancy, serial).
Delta-stepping buckets tentative distances by width ``delta`` and settles
one bucket at a time — light edges (w <= delta) re-relax within the bucket,
heavy edges wait until their bucket closes. It is the classic high-
performance SSSP used by many of the systems the paper builds on, included
here to characterize the engine-substrate design space (and differentially
test the others from yet another angle).

Only distance-like MIN/+ queries are supported (SSSP, BFS).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point

_SUPPORTED = {"SSSP", "BFS"}


def delta_stepping(
    g: Graph,
    spec: QuerySpec,
    source: int,
    delta: Optional[float] = None,
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Evaluate SSSP/BFS from ``source`` with bucket width ``delta``.

    ``delta=None`` picks the mean edge weight (a common default).
    ``budget`` is enforced per relaxation round.
    """
    if spec.name not in _SUPPORTED:
        raise ValueError(
            f"delta-stepping requires additive MIN queries, not {spec.name}"
        )
    weights = spec.weight_transform(g.edge_weights())
    if spec.name == "BFS":
        weights = np.ones(g.num_edges)
    if g.num_edges and weights.min() < 0:
        raise ValueError("delta-stepping requires non-negative weights")
    if delta is None:
        delta = float(weights.mean()) if g.num_edges else 1.0
    if delta <= 0:
        raise ValueError("delta must be positive")

    n = g.num_vertices
    light = weights <= delta
    dist = np.full(n, np.inf)
    dist[int(source)] = 0.0
    bucket_of = np.full(n, -1, dtype=np.int64)
    bucket_of[source] = 0
    current = 0
    round_idx = 0
    # Re-improving a previously-settled tentative distance means the prior
    # relaxation was redundant; the mask is only kept while telemetry is on.
    ever_improved = np.zeros(n, dtype=bool) if obs_runtime._enabled else None
    relaxations = redundant = 0

    def _account(improved: np.ndarray) -> int:
        nonlocal relaxations, redundant
        if ever_improved is None:
            return 0
        again = int(np.count_nonzero(ever_improved[improved]))
        ever_improved[improved] = True
        relaxations += int(improved.size)
        redundant += again
        return again

    if san_runtime._enabled:
        san_probes.check_csr(g, "engine.delta_stepping")
    while True:
        in_bucket = np.flatnonzero(bucket_of == current)
        if in_bucket.size == 0:
            remaining = bucket_of[bucket_of > current]
            if remaining.size == 0:
                break
            current = int(remaining.min())
            continue
        settled_this_bucket = np.zeros(n, dtype=bool)
        # Phase 1: relax light edges until the bucket stops changing;
        # vertices improved back *into* this bucket re-enter immediately.
        frontier = in_bucket
        while frontier.size:
            fault_point("engine.delta_stepping.round")
            if budget is not None:
                budget.tick(
                    "engine.delta_stepping", frontier_bytes=frontier.nbytes
                )
            settled_this_bucket[frontier] = True
            bucket_of[frontier] = -1
            edge_idx, u = _gather(g, frontier)
            if edge_idx.size == 0:
                break
            sel = light[edge_idx]
            v = g.dst[edge_idx[sel]]
            cand = dist[u[sel]] + weights[edge_idx[sel]]
            improved = _relax(dist, v, cand)
            again = _account(improved)
            _rebucket(bucket_of, dist, improved, delta)
            if stats is not None:
                stats.record(IterationInfo(
                    index=round_idx, frontier_size=int(frontier.size),
                    edges_scanned=int(edge_idx.size),
                    updates=int(improved.size),
                    activated=int(improved.size),
                    redundant=again,
                ))
            round_idx += 1
            frontier = improved[bucket_of[improved] == current]
        # Phase 2: heavy edges of everything settled in this bucket, once.
        settled = np.flatnonzero(settled_this_bucket)
        if budget is not None:
            budget.tick("engine.delta_stepping", frontier_bytes=settled.nbytes)
        edge_idx, u = _gather(g, settled)
        if edge_idx.size:
            sel = ~light[edge_idx]
            v = g.dst[edge_idx[sel]]
            cand = dist[u[sel]] + weights[edge_idx[sel]]
            improved = _relax(dist, v, cand)
            again = _account(improved)
            _rebucket(bucket_of, dist, improved, delta)
            if stats is not None:
                stats.record(IterationInfo(
                    index=round_idx, frontier_size=int(settled.size),
                    edges_scanned=int(edge_idx.size),
                    updates=int(improved.size), activated=int(improved.size),
                    redundant=again,
                ))
            round_idx += 1
        current += 1
    if obs_runtime._enabled:
        phase = obs_spans.current_span_name()
        obs_metrics.counter(
            "engine.delta_stepping.relaxations", phase=phase
        ).inc(relaxations)
        obs_metrics.counter(
            "engine.delta_stepping.redundant_relaxations", phase=phase
        ).inc(redundant)
        obs_journal.emit(
            {
                "type": "event",
                "name": "delta_stepping.run",
                "engine": "delta_stepping",
                "phase": phase,
                "query": spec.name,
                "rounds": round_idx,
                "relaxations": relaxations,
                "redundant": redundant,
            }
        )
    return dist


def _gather(g: Graph, vertices: np.ndarray):
    from repro.engines.frontier import ragged_gather

    return ragged_gather(g.offsets, vertices)


def _relax(dist: np.ndarray, v: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Apply min-relaxations; return the unique vertices that improved."""
    if v.size == 0:
        return np.empty(0, dtype=np.int64)
    old = dist[v]
    np.minimum.at(dist, v, cand)
    if san_runtime._enabled and bool(np.any(dist[v] > old)):
        san_runtime.report(
            "monotone_watchdog", "engine.delta_stepping",
            "a tentative distance increased during relaxation",
        )
    return np.unique(v[dist[v] < old])


def _rebucket(
    bucket_of: np.ndarray, dist: np.ndarray, improved: np.ndarray,
    delta: float,
) -> None:
    if improved.size:
        bucket_of[improved] = (dist[improved] // delta).astype(np.int64)
