"""Scalar (pure-Python) evaluation engine.

A deliberately simple worklist Bellman-Ford used to cross-check the
vectorized frontier engine on small graphs. It shares the query specs but no
evaluation code.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.graph.csr import Graph
from repro.graph.transform import symmetrize
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point


def scalar_evaluate(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Worklist evaluation of ``spec`` from ``source``; O(n * m) worst case.

    Iteration boundaries for ``budget`` purposes are worklist pops.

    The worklist is FIFO with at most one entry per vertex, so the pops
    fall into passes: pass 0 pops the initial frontier, and pass k pops
    the vertices updated during pass k - 1, each at most once. After
    pass k every vertex whose best path from the frontier has at most k
    edges holds its final value. The specs here are path algebras in
    which no cycle improves a value, so best paths are simple (at most
    n - 1 edges), pass n makes no update, and the queue drains after at
    most n + 1 passes of at most n pops: n * (n + 1) pops in all. More
    means the spec (or this loop) never settles — it re-queues on ties,
    say — and the run raises ``RuntimeError`` instead of spinning.
    """
    work = symmetrize(g) if spec.symmetric else g
    weights = spec.weight_transform(work.edge_weights())
    vals = spec.initial_values(g.num_vertices, source)
    queue = deque(
        int(x) for x in spec.initial_frontier(g.num_vertices, source)
    )
    pops = 0
    max_pops = g.num_vertices * (g.num_vertices + 1)
    in_queue = np.zeros(g.num_vertices, dtype=bool)
    in_queue[list(queue)] = True
    if san_runtime._enabled:
        san_probes.check_csr(work, "engine.scalar")
    edges_scanned = updates = 0
    # Every write to an already-written vertex means the earlier relaxation
    # was wasted work (Bellman-Ford's redundancy).
    updated = np.zeros(g.num_vertices, dtype=bool) if obs_runtime._enabled else None
    while queue:
        fault_point("engine.scalar.pop")
        if budget is not None:
            budget.tick("engine.scalar")
        u = queue.popleft()
        in_queue[u] = False
        pops += 1
        if pops > max_pops:
            raise RuntimeError(
                f"scalar_evaluate({spec.name}) did not settle: {pops} "
                f"worklist pops exceed n*(n+1) = {max_pops}"
            )
        lo, hi = work.offsets[u], work.offsets[u + 1]
        edges_scanned += int(hi - lo)
        for i in range(lo, hi):
            v = int(work.dst[i])
            cand = float(spec.propagate(vals[u], weights[i]))
            if spec.better(cand, vals[v]):
                if san_runtime._enabled:
                    san_probes.monotone_watchdog(
                        spec,
                        np.asarray([vals[v]]),
                        np.asarray([cand]),
                        "engine.scalar",
                    )
                vals[v] = cand
                updates += 1
                if updated is not None:
                    updated[v] = True
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
    if obs_runtime._enabled:
        phase = obs_spans.current_span_name()
        redundant = updates - int(updated.sum()) if updated is not None else 0
        obs_metrics.counter("engine.scalar.pops", phase=phase).inc(pops)
        obs_metrics.counter(
            "engine.scalar.edges_scanned", phase=phase
        ).inc(edges_scanned)
        obs_metrics.counter("engine.scalar.updates", phase=phase).inc(updates)
        obs_metrics.counter(
            "engine.scalar.redundant_relaxations", phase=phase
        ).inc(redundant)
        obs_journal.emit(
            {
                "type": "event",
                "name": "scalar.run",
                "engine": "scalar",
                "phase": phase,
                "query": spec.name,
                "pops": pops,
                "edges_scanned": edges_scanned,
                "updates": updates,
                "redundant": redundant,
            }
        )
    return vals
