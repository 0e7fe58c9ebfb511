"""Vectorized synchronous frontier-push engine.

This is the workhorse evaluator used everywhere: core-graph identification
(Algorithms 1 and 2 run queries with it), both phases of the 2Phase algorithm
(Algorithm 3), and the system models: Ligra and Subway charge their costs
over the rounds it records, and GridGraph runs its Core Phase with it.

Each round gathers the out-edges of the active frontier, computes candidate
values with the query's ``⊕``, and applies them with a vectorized
CASMIN/CASMAX (``np.minimum.at`` / ``np.maximum.at``). Vertices whose value
improved form the next frontier; the optional ``first_visit`` rule
additionally activates a vertex the first time *any* edge reaches it, which
is the paper's ``FirstPhase2Visit`` guarantee for the completion phase.

A ``first_visit`` round whose frontier is dense (Ligra's test, see
:data:`DENSE_DIVISOR`) -- always the Completion Phase's seed round, which
starts from every impacted vertex -- runs as one masked sweep over the CSR
edge arrays instead of a ragged gather; its values and counters are those
of the sparse round. Every other round is sparse.
"""

from __future__ import annotations

import threading
import time
from typing import Generator, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.graph.transform import symmetrize
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point

#: Ligra's density threshold: a round whose frontier out-degree sum exceeds
#: |E| / DENSE_DIVISOR is dense (pushed as one sweep over the edge arrays).
DENSE_DIVISOR = 20

_SYMMETRIC_CACHE: "WeakKeyDictionary[Graph, Graph]" = WeakKeyDictionary()
# Single-flight guard: concurrent serve workers asking for the same
# graph's symmetric view must not each pay (and race) the symmetrize.
_SYMMETRIC_LOCK = threading.Lock()


def symmetric_view(g: Graph) -> Graph:
    """Cached symmetrized view of ``g`` (used by WCC); thread-safe."""
    with _SYMMETRIC_LOCK:
        sym = _SYMMETRIC_CACHE.get(g)
        if sym is None:
            sym = symmetrize(g)
            if san_runtime._enabled:
                san_probes.check_symmetrized(g, sym, "engine.symmetric_view")
            _SYMMETRIC_CACHE[g] = sym
        return sym


def ragged_gather(
    offsets: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR edge indices and per-edge sources for all out-edges of ``frontier``.

    Returns ``(edge_idx, u_per_edge)`` where ``edge_idx`` indexes the CSR
    edge arrays and ``u_per_edge`` repeats each frontier vertex once per
    out-edge.
    """
    starts = offsets[frontier]
    degs = offsets[frontier + 1] - starts
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.cumsum(degs)
    block_offsets = np.concatenate((np.zeros(1, dtype=np.int64), cum[:-1]))
    edge_idx = np.arange(total, dtype=np.int64) + np.repeat(
        starts - block_offsets, degs
    )
    u_per_edge = np.repeat(frontier, degs)
    return edge_idx, u_per_edge


def _emit_iteration(info: IterationInfo) -> None:
    """Telemetry for one push round: labeled counters + a journal event.

    The phase label is the innermost open span (``twophase.core``,
    ``cg.hub_query``, ...), so the same engine loop is attributed to
    whichever caller is driving it.
    """
    phase = obs_spans.current_span_name()
    obs_metrics.counter("engine.iterations", phase=phase).inc()
    obs_metrics.counter(
        "engine.edges_scanned", phase=phase
    ).inc(info.edges_scanned)
    obs_metrics.counter("engine.updates", phase=phase).inc(info.updates)
    obs_metrics.counter(
        "engine.vertices_activated", phase=phase
    ).inc(info.activated)
    obs_metrics.counter(
        "engine.edges_skipped", phase=phase
    ).inc(info.edges_skipped)
    obs_metrics.counter(
        "engine.redundant_relaxations", phase=phase
    ).inc(info.redundant)
    obs_journal.emit(
        {
            "type": "iteration",
            "engine": "frontier",
            "phase": phase,
            "iteration": info.index,
            "frontier": info.frontier_size,
            "edges_scanned": info.edges_scanned,
            "updates": info.updates,
            "activated": info.activated,
            "edges_skipped": info.edges_skipped,
            "redundant": info.redundant,
        }
    )


def _is_dense(g: Graph, frontier: np.ndarray) -> bool:
    """Ligra's density test: frontier out-degree sum above |E| / divisor."""
    offsets = g.offsets
    out_sum = int((offsets[frontier + 1] - offsets[frontier]).sum())
    return out_sum > g.num_edges // DENSE_DIVISOR


def _sparse_round(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    weights: np.ndarray,
    first_visit: bool,
    visited: Optional[np.ndarray],
    blocked_dst: Optional[np.ndarray],
) -> Tuple[np.ndarray, int, int, int, int]:
    """One push round over the gathered out-edges of ``frontier``.

    Returns ``(new_frontier, edges_scanned, updates, edges_skipped,
    redundant)``.
    """
    edge_idx, u = ragged_gather(g.offsets, frontier)
    v = g.dst[edge_idx]
    skipped = 0
    if blocked_dst is not None and edge_idx.size:
        keep = ~blocked_dst[v]
        skipped = int(edge_idx.size - np.count_nonzero(keep))
        edge_idx, u, v = edge_idx[keep], u[keep], v[keep]
    old_v = vals[v]
    cand = spec.propagate(vals[u], weights[edge_idx])
    improving = spec.better(cand, old_v)
    updates = int(np.count_nonzero(improving))
    # All but one improving candidate per destination lose the reduce
    # race; counting the losers needs a unique() so it only runs traced.
    redundant = 0
    if obs_runtime._enabled and updates:
        redundant = updates - int(np.unique(v[improving]).size)
    spec.reduce_at(vals, v, cand)
    if san_runtime._enabled:
        san_probes.monotone_watchdog(
            spec, old_v, vals[v], "engine.frontier"
        )
    changed = spec.better(vals[v], old_v)
    if first_visit:
        fresh = ~visited[v]
        visited[v[fresh]] = True
        activate = changed | fresh
    else:
        activate = changed
    new_frontier = np.unique(v[activate])
    return new_frontier, int(edge_idx.size), updates, skipped, redundant


def _dense_round(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    weights: np.ndarray,
    visited: np.ndarray,
    blocked_dst: Optional[np.ndarray],
) -> Tuple[np.ndarray, int, int, int, int]:
    """A ``first_visit`` round as one sweep over the whole CSR edge arrays.

    Ligra's dense ``edgeMap``: per-edge masks replace the ragged gather.
    Only edges that can change the round's outcome -- an improving
    candidate or a first visit -- reach the reduce; every other edge
    leaves both ``vals`` and the next frontier as the sparse round would,
    so values and counters match :func:`_sparse_round` exactly.
    """
    n = g.num_vertices
    dst = g.dst
    out_deg = np.diff(g.offsets)
    active = np.zeros(n, dtype=bool)
    active[frontier] = True
    act_e = np.repeat(active, out_deg)
    gathered = int(out_deg[frontier].sum())
    if blocked_dst is not None:
        act_e &= ~blocked_dst[dst]
    scanned = int(np.count_nonzero(act_e))
    if not scanned:
        # Every gathered edge is blocked (REACH's saturated seed round).
        return np.empty(0, dtype=np.int64), 0, 0, gathered, 0
    cand = spec.propagate(np.repeat(vals, out_deg), weights)
    old_e = vals[dst]
    improving = act_e & spec.better(cand, old_e)
    updates = int(np.count_nonzero(improving))
    keep = np.flatnonzero(improving | (act_e & ~visited[dst]))
    v, cand, old_v = dst[keep], cand[keep], old_e[keep]
    redundant = 0
    if obs_runtime._enabled and updates:
        redundant = updates - int(np.unique(v[improving[keep]]).size)
    spec.reduce_at(vals, v, cand)
    if san_runtime._enabled:
        new_v = vals[v]
        san_probes.monotone_watchdog(spec, old_v, new_v, "engine.frontier")
        san_probes.check_reduce_settled(spec, cand, new_v, "engine.frontier")
    changed = spec.better(vals[v], old_v)
    fresh = ~visited[v]
    visited[v[fresh]] = True
    mask = np.zeros(n, dtype=bool)
    mask[v[changed | fresh]] = True
    return (
        np.flatnonzero(mask), scanned, updates, gathered - scanned, redundant
    )


def push_iterations(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    first_visit: bool = False,
    visited: Optional[np.ndarray] = None,
    blocked_dst: Optional[np.ndarray] = None,
    keep_frontier: bool = False,
    budget: Optional[Budget] = None,
) -> Generator[IterationInfo, None, None]:
    """Drive synchronous push rounds, mutating ``vals`` in place.

    Parameters
    ----------
    weights:
        Pre-transformed edge weights (``spec.weight_transform`` applied).
        Computed on the fly when omitted.
    first_visit:
        Enable the completion phase's ``FirstPhase2Visit`` rule: a vertex is
        activated the first time an edge reaches it even without improvement.
        ``visited`` must then be a boolean array; vertices already marked
        True are treated as having pushed their out-edges before.
    blocked_dst:
        Boolean mask of vertices whose *incoming* edges are skipped — the
        triangle-inequality optimization removes the in-edges of provably
        precise vertices this way.
    keep_frontier:
        Attach the frontier array to each yielded :class:`IterationInfo`
        (system models need it for transfer/IO accounting).
    budget:
        Execution limits enforced at each round boundary; exceeding one
        raises :class:`~repro.resilience.budget.BudgetExceeded` with the
        values array left at its (valid, monotonically improving) state.
    """
    if weights is None:
        weights = spec.weight_transform(g.edge_weights())
    frontier = np.unique(np.asarray(frontier, dtype=np.int64))
    if first_visit and visited is None:
        raise ValueError("first_visit requires a visited array")
    if san_runtime._enabled:
        san_probes.check_csr(g, "engine.frontier")
        san_probes.check_frontier(
            frontier, g.num_vertices, "engine.frontier"
        )
    iteration = 0
    while frontier.size:
        fault_point("engine.frontier.iteration")
        if budget is not None:
            budget.tick("engine.frontier", frontier_bytes=frontier.nbytes)
        if first_visit and _is_dense(g, frontier):
            new_frontier, scanned, updates, skipped, redundant = _dense_round(
                g, spec, vals, frontier, weights, visited, blocked_dst
            )
        else:
            new_frontier, scanned, updates, skipped, redundant = _sparse_round(
                g, spec, vals, frontier, weights, first_visit, visited,
                blocked_dst,
            )
        if san_runtime._enabled:
            san_probes.check_frontier(
                new_frontier, g.num_vertices, "engine.frontier"
            )
        info = IterationInfo(
            index=iteration,
            frontier_size=int(frontier.size),
            edges_scanned=scanned,
            updates=updates,
            activated=int(new_frontier.size),
            frontier=frontier if keep_frontier else None,
            edges_skipped=skipped,
            redundant=redundant,
        )
        if obs_runtime._enabled:
            _emit_iteration(info)
        yield info
        frontier = new_frontier
        iteration += 1


def run_push(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[RunStats] = None,
    **kwargs,
) -> np.ndarray:
    """Run :func:`push_iterations` to convergence, accumulating ``stats``."""
    start = time.perf_counter()
    for info in push_iterations(g, spec, vals, frontier, **kwargs):
        if stats is not None:
            stats.record(info, keep_frontier=kwargs.get("keep_frontier", False))
    if stats is not None:
        stats.wall_time += time.perf_counter() - start
    return vals


def is_fixed_point(g: Graph, spec: QuerySpec, vals: np.ndarray) -> bool:
    """Whether ``vals`` is a converged solution: no edge can improve it.

    The definitional convergence check, independent of any engine's
    iteration schedule — used to validate every evaluator against the
    semantics rather than against each other.
    """
    work = symmetric_view(g) if spec.symmetric else g
    if work.num_edges == 0:
        return True
    weights = spec.weight_transform(work.edge_weights())
    src = work.edge_sources()
    cand = spec.propagate(vals[src], weights)
    return not bool(np.any(spec.better(cand, vals[work.dst])))


def evaluate_query(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    stats: Optional[RunStats] = None,
    **kwargs,
) -> np.ndarray:
    """Evaluate query ``spec`` from ``source`` on ``g`` to convergence.

    WCC (``spec.symmetric``) automatically runs over the symmetrized view of
    ``g`` and ignores ``source``. Returns the converged value array.
    """
    work = symmetric_view(g) if spec.symmetric else g
    vals = spec.initial_values(g.num_vertices, source)
    frontier = spec.initial_frontier(g.num_vertices, source)
    return run_push(work, spec, vals, frontier, stats=stats, **kwargs)
