"""Batched evaluation of many queries of one kind at once.

The paper's workload is *many* vertex-specific queries over one graph (each
vertex can be a source). Evaluating a batch together amortizes the edge
gathers: all queries share one frontier (the union of their active
vertices) and the value matrix is updated with one vectorized CASMIN/CASMAX
per round. Queries that are inactive at a vertex simply produce no-op
candidates, so results are identical to evaluating each query alone — a
test asserts this.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.frontier import ragged_gather, symmetric_view
from repro.engines.stats import RunStats, IterationInfo
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec, Selection
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point


def evaluate_batch(
    g: Graph,
    spec: QuerySpec,
    sources: Sequence[int],
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Evaluate ``spec`` from every source; returns a ``(k, n)`` matrix.

    Row ``i`` equals ``evaluate_query(g, spec, sources[i])``. Budget
    boundaries are the shared synchronous rounds.
    """
    if spec.multi_source:
        raise ValueError(f"{spec.name} is already multi-source; batch "
                         "evaluation applies to single-source queries")
    sources = [int(s) for s in sources]
    work = symmetric_view(g) if spec.symmetric else g
    n = g.num_vertices
    k = len(sources)
    weights = spec.weight_transform(work.edge_weights())
    vals = np.full((k, n), spec.init_value, dtype=np.float64)
    for i, s in enumerate(sources):
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range")
        vals[i, s] = spec.source_value
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    iteration = 0
    row_idx = np.arange(k)[:, None]
    while frontier.size:
        fault_point("engine.batch.round")
        if budget is not None:
            budget.tick("engine.batch", frontier_bytes=frontier.nbytes)
        edge_idx, u = ragged_gather(work.offsets, frontier)
        if edge_idx.size == 0:
            break
        v = work.dst[edge_idx]
        old = vals[:, v]
        cand = spec.propagate(vals[:, u], weights[edge_idx][None, :])
        improving = spec.better(cand, old)
        updates = int(np.count_nonzero(improving))
        if spec.selection is Selection.MIN:
            np.minimum.at(vals, (row_idx, v[None, :]), cand)
        else:
            np.maximum.at(vals, (row_idx, v[None, :]), cand)
        if san_runtime._enabled:
            san_probes.monotone_watchdog(
                spec, old, vals[:, v], "engine.batch"
            )
        changed_any = spec.better(vals[:, v], old).any(axis=0)
        new_frontier = np.unique(v[changed_any])
        if stats is not None:
            stats.record(IterationInfo(
                index=iteration,
                frontier_size=int(frontier.size),
                edges_scanned=int(edge_idx.size),
                updates=updates,
                activated=int(new_frontier.size),
            ))
        frontier = new_frontier
        iteration += 1
    return vals
