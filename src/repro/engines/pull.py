"""Pull-based dense iterations and Ligra-style direction optimization.

Ligra switches between a *sparse push* (out-edges of the frontier) and a
*dense pull* (in-edges of candidate destinations) depending on the
frontier's total out-degree. Pull mode is what makes REACH/BFS so cheap on
dense frontiers: a destination that already holds a satisfying value is
skipped entirely, and its in-edge scan can stop at the first improving
parent. This engine reproduces that schedule; converged values equal the
push engine's (asserted by tests).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.frontier import (
    DENSE_DIVISOR,
    ragged_gather,
    symmetric_view,
)
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point


def _pull_round(
    work: Graph,
    rev: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    in_frontier: np.ndarray,
    weights_rev: np.ndarray,
) -> tuple:
    """One dense iteration: candidates pull from in-neighbors.

    Returns ``(new_frontier, edges_scanned, updates)``. Destinations whose
    value is saturated are skipped; others scan all in-edges whose source
    is in the frontier.
    """
    n = work.num_vertices
    candidates = np.arange(n, dtype=np.int64)
    saturated = spec.saturated(vals)
    if saturated is not None:
        candidates = candidates[~saturated]
    edge_idx, v = ragged_gather(rev.offsets, candidates)
    if edge_idx.size == 0:
        return np.empty(0, dtype=np.int64), 0, 0
    u = rev.dst[edge_idx]  # in-neighbor in the original orientation
    sel = in_frontier[u]
    edge_idx, v, u = edge_idx[sel], v[sel], u[sel]
    old = vals[v]
    cand = spec.propagate(vals[u], weights_rev[edge_idx])
    improving = spec.better(cand, old)
    updates = int(np.count_nonzero(improving))
    spec.reduce_at(vals, v, cand)
    if san_runtime._enabled:
        san_probes.monotone_watchdog(spec, old, vals[v], "engine.pull")
    changed = np.unique(v[spec.better(vals[v], old)])
    return changed, int(edge_idx.size), updates


def direction_optimizing_evaluate(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    dense_divisor: int = DENSE_DIVISOR,
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Evaluate ``spec`` switching between push and pull per iteration.

    ``budget`` is polled once per round (site ``"engine.pull"``), matching
    the other evaluators' contract; ``fault_point("engine.pull.round")``
    exposes the round boundary to the failure-injection harness.
    """
    work = symmetric_view(g) if spec.symmetric else g
    rev = work.reverse()
    from repro.graph.transform import reverse_edge_permutation

    weights = spec.weight_transform(work.edge_weights())
    weights_rev = weights[reverse_edge_permutation(work)]
    n = g.num_vertices
    m = max(1, work.num_edges)
    vals = spec.initial_values(n, source)
    frontier = np.unique(spec.initial_frontier(n, source))
    out_deg = work.out_degree()
    in_frontier = np.zeros(n, dtype=bool)
    iteration = 0
    while frontier.size:
        fault_point("engine.pull.round")
        if budget is not None:
            budget.tick("engine.pull", frontier_bytes=frontier.nbytes)
        frontier_edges = int(out_deg[frontier].sum())
        dense = frontier_edges > m // dense_divisor
        if dense:
            in_frontier[:] = False
            in_frontier[frontier] = True
            new_frontier, edges_scanned, updates = _pull_round(
                work, rev, spec, vals, in_frontier, weights_rev
            )
        else:
            edge_idx, u = ragged_gather(work.offsets, frontier)
            v = work.dst[edge_idx]
            old = vals[v]
            cand = spec.propagate(vals[u], weights[edge_idx])
            improving = spec.better(cand, old)
            updates = int(np.count_nonzero(improving))
            spec.reduce_at(vals, v, cand)
            if san_runtime._enabled:
                san_probes.monotone_watchdog(
                    spec, old, vals[v], "engine.pull"
                )
            new_frontier = np.unique(v[spec.better(vals[v], old)])
            edges_scanned = int(edge_idx.size)
        if stats is not None:
            stats.record(IterationInfo(
                index=iteration,
                frontier_size=int(frontier.size),
                edges_scanned=edges_scanned,
                updates=updates,
                activated=int(new_frontier.size),
            ))
        frontier = new_frontier
        iteration += 1
    return vals
