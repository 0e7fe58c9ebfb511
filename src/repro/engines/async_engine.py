"""Asynchronous (chunked, immediately-visible) evaluation.

The synchronous engine applies a whole round of candidates before any of
them becomes visible; real systems (Subway's async mode, GridGraph's
in-iteration streaming) let updates propagate within an iteration. This
engine processes the frontier in vertex chunks with immediate visibility —
values written by an earlier chunk feed later chunks of the same round.
For the monotonic query class both schedules converge to the same fixed
point (a test asserts this); asynchrony typically converges in fewer
rounds at the cost of less regular parallelism.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.frontier import ragged_gather, symmetric_view
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point


def async_evaluate(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    chunk_size: int = 1024,
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Evaluate ``spec`` with chunked-asynchronous rounds.

    Budget boundaries are whole rounds (between rounds every chunk's
    writes are visible, so the round boundary is a consistent cut even
    for the asynchronous schedule).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    work = symmetric_view(g) if spec.symmetric else g
    weights = spec.weight_transform(work.edge_weights())
    n = g.num_vertices
    vals = spec.initial_values(n, source)
    frontier = np.unique(spec.initial_frontier(n, source))
    iteration = 0
    in_next = np.zeros(n, dtype=bool)
    if san_runtime._enabled:
        san_probes.check_csr(work, "engine.async")
    while frontier.size:
        fault_point("engine.async.round")
        if budget is not None:
            budget.tick("engine.async", frontier_bytes=frontier.nbytes)
        # Round-entry snapshot for the lost-update shadow replay.
        round_start = vals.copy() if san_runtime._enabled else None
        edges_scanned = 0
        updates = 0
        in_next[:] = False
        for lo in range(0, frontier.size, chunk_size):
            chunk = frontier[lo:lo + chunk_size]
            edge_idx, u = ragged_gather(work.offsets, chunk)
            if edge_idx.size == 0:
                continue
            v = work.dst[edge_idx]
            old = vals[v]
            # Reads vals *after* earlier chunks' writes: immediate visibility.
            cand = spec.propagate(vals[u], weights[edge_idx])
            improving = spec.better(cand, old)
            updates += int(np.count_nonzero(improving))
            spec.reduce_at(vals, v, cand)
            changed = v[spec.better(vals[v], old)]
            in_next[changed] = True
            edges_scanned += int(edge_idx.size)
        new_frontier = np.flatnonzero(in_next)
        if san_runtime._enabled:
            san_probes.monotone_watchdog(
                spec, round_start, vals, "engine.async"
            )
            san_probes.check_async_no_lost_updates(
                work, spec, weights, frontier, round_start, vals,
                "engine.async",
            )
            san_probes.check_frontier(new_frontier, n, "engine.async")
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
