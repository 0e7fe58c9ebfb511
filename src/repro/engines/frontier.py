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
starts from every impacted vertex -- does not gather. It either sweeps the
CSR in blocks of :data:`DENSE_BLOCK_EDGES` edges, or, when ``blocked_dst``
leaves destinations whose in-degree sum is below the frontier's out-degree
sum, pulls over those destinations' in-edges (Ligra's direction choice).
Both read one snapshot of the pre-round values, so their values and
counters are those of the sparse round. Every other round is sparse.
"""

from __future__ import annotations

import threading
import time
from typing import Generator, List, Optional, Sequence, Tuple
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

#: Edges per block of a dense round's sweep. Each block's temporaries are
#: a few hundred kB whatever |E| is, so they stay in cache and are reused
#: by the allocator instead of being mapped fresh every round.
DENSE_BLOCK_EDGES = 1 << 15

#: What one pulled in-edge costs against one swept out-edge: the pull
#: reaches each edge through index gathers where the sweep reads slices
#: (2.0-2.6x per edge on FR+1). A dense round pulls only when the unblocked
#: destinations' in-degree sum, times this, is below the frontier's
#: out-degree sum.
PULL_EDGE_COST = 2

_SYMMETRIC_CACHE: "WeakKeyDictionary[Graph, Graph]" = WeakKeyDictionary()
# Single-flight guard: concurrent serve workers asking for the same
# graph's derived view must not each pay (and race) building it.
_VIEW_LOCK = threading.Lock()


def symmetric_view(g: Graph) -> Graph:
    """Cached symmetrized view of ``g`` (used by WCC); thread-safe."""
    with _VIEW_LOCK:
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


def _engine_counters() -> Tuple[str, Tuple[obs_metrics.Counter, ...]]:
    """The phase label and the six engine counters labelled with it.

    The phase is the innermost open span (``twophase.core``,
    ``cg.hub_query``, ...), so the same engine loop is attributed to
    whichever caller is driving it. Fetched once per run: the registry
    lookup takes a lock and sorts the labels.
    """
    phase = obs_spans.current_span_name()
    return phase, (
        obs_metrics.counter("engine.iterations", phase=phase),
        obs_metrics.counter("engine.edges_scanned", phase=phase),
        obs_metrics.counter("engine.updates", phase=phase),
        obs_metrics.counter("engine.vertices_activated", phase=phase),
        obs_metrics.counter("engine.edges_skipped", phase=phase),
        obs_metrics.counter("engine.redundant_relaxations", phase=phase),
    )


def _report_rounds(
    phase: str,
    counters: Tuple[obs_metrics.Counter, ...],
    rounds: List[Tuple[int, ...]],
) -> None:
    """Telemetry for one run: counter totals + one ``rounds`` journal event.

    ``rounds`` holds one row per round, in the order of
    :data:`~repro.obs.journal.ROUND_COLUMNS`.
    """
    columns = [list(column) for column in zip(*rounds)]
    iterations, *totals = counters
    iterations.inc(len(rounds))
    # The counters follow the columns after ``frontier``.
    for counter, column in zip(totals, columns[1:]):
        counter.inc(sum(column))
    obs_journal.emit(
        {
            "type": "rounds",
            "engine": "frontier",
            "phase": phase,
            **dict(zip(obs_journal.ROUND_COLUMNS, columns)),
        }
    )


def _vertex_set(frontier: np.ndarray, n: int) -> np.ndarray:
    """``frontier`` as sorted, duplicate-free vertex ids, in O(k + n).

    A flag scatter, as Ligra and GBBS deduplicate a frontier, in place of
    a sort. Raises ``ValueError`` naming the first id outside ``[0, n)``,
    which the scatter would otherwise wrap (``-1`` to ``n - 1``) or fault on.
    """
    frontier = np.asarray(frontier, dtype=np.int64).ravel()
    outside = (frontier < 0) | (frontier >= n)
    if outside.any():
        bad = int(frontier[np.argmax(outside)])
        raise ValueError(f"frontier vertex {bad} is outside [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[frontier] = True
    return np.flatnonzero(mask)


def _out_degree_sum(g: Graph, frontier: np.ndarray) -> int:
    """Edges a push round over ``frontier`` gathers."""
    offsets = g.offsets
    return int((offsets[frontier + 1] - offsets[frontier]).sum())


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
    # race. Counting the losers takes a flag per vertex (as the dense round
    # counts them), so it only runs traced.
    redundant = 0
    if obs_runtime._enabled and updates:
        hit = np.zeros(g.num_vertices, dtype=bool)
        hit[v[improving]] = True
        redundant = updates - int(np.count_nonzero(hit))
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


def _relax_block(
    spec: QuerySpec,
    vals: np.ndarray,
    src_vals: np.ndarray,
    old: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    scan: np.ndarray,
    first: np.ndarray,
    fresh: np.ndarray,
) -> int:
    """Relax one block of a dense round's edges; returns its updates.

    Edge ``i`` runs from a vertex holding ``src_vals[i]`` to ``v[i]``,
    which holds ``old[i]``, both read from the round's pre-round snapshot
    as the sparse round reads them; ``w[i]`` is its weight and ``first[i]``
    says ``v[i]`` was unvisited. Only edges with ``scan[i]`` set are the
    round's. Improving candidates reach the reduce (no other can change
    ``vals``), and first visits are marked in ``fresh``.
    """
    cand = spec.propagate(src_vals, w)
    improving = spec.better(cand, old)
    improving &= scan
    first &= scan
    if first.any():
        fresh[v[first]] = True
    updates = int(np.count_nonzero(improving))
    if updates:
        v, cand, old = v[improving], cand[improving], old[improving]
        spec.reduce_at(vals, v, cand)
        if san_runtime._enabled:
            new_v = vals[v]
            san_probes.monotone_watchdog(spec, old, new_v, "engine.frontier")
            san_probes.check_reduce_settled(spec, cand, new_v, "engine.frontier")
    return updates


def _push_sweep(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    before: np.ndarray,
    active: np.ndarray,
    weights: np.ndarray,
    visited: np.ndarray,
    fresh: np.ndarray,
    blocked_dst: Optional[np.ndarray],
) -> Tuple[int, int]:
    """Ligra's dense push, one CSR block of vertices at a time.

    Blocks are vertex ranges holding about :data:`DENSE_BLOCK_EDGES` edges
    (a vertex of higher degree is a block of its own); the scanned edges
    are the frontier's out-edges into unblocked vertices. Returns
    ``(edges_scanned, updates)``.
    """
    offsets, dst = g.offsets, g.dst
    cuts = np.searchsorted(
        offsets, np.arange(DENSE_BLOCK_EDGES, g.num_edges, DENSE_BLOCK_EDGES)
    )
    bounds = [0, *cuts.tolist(), g.num_vertices]
    scanned = updates = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo, hi = int(offsets[a]), int(offsets[b])
        if lo == hi:
            continue
        deg = np.diff(offsets[a:b + 1])
        scan = np.repeat(active[a:b], deg)
        v = dst[lo:hi]
        if blocked_dst is not None:
            scan &= ~blocked_dst[v]
        count = int(np.count_nonzero(scan))
        if not count:
            continue
        scanned += count
        updates += _relax_block(
            spec, vals, np.repeat(before[a:b], deg), before[v],
            weights[lo:hi], v, scan, ~visited[v], fresh,
        )
    return scanned, updates


def _pull_sweep(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    before: np.ndarray,
    active: np.ndarray,
    weights: np.ndarray,
    visited: np.ndarray,
    fresh: np.ndarray,
    targets: np.ndarray,
    in_deg: np.ndarray,
    in_sum: int,
) -> Tuple[int, int]:
    """Ligra's dense pull: each target reads its in-edges from the frontier.

    ``targets`` are the unblocked vertices, ``in_deg`` their in-degrees and
    ``in_sum`` the sum of those. The scanned edges are the push sweep's --
    frontier out-edges into unblocked vertices -- found from the other
    end, in blocks of targets holding about :data:`DENSE_BLOCK_EDGES`
    in-edges. Returns ``(edges_scanned, updates)``.
    """
    rev = g.reverse()
    edge_of = g.reverse_index()
    cuts = np.searchsorted(
        np.cumsum(in_deg), np.arange(DENSE_BLOCK_EDGES, in_sum, DENSE_BLOCK_EDGES)
    )
    scanned = updates = 0
    for block, deg in zip(np.split(targets, cuts), np.split(in_deg, cuts)):
        idx, v = ragged_gather(rev.offsets, block)
        u = rev.dst[idx]
        scan = active[u]
        count = int(np.count_nonzero(scan))
        if not count:
            continue
        scanned += count
        updates += _relax_block(
            spec, vals, before[u], np.repeat(before[block], deg),
            weights[edge_of[idx]], v, scan, ~np.repeat(visited[block], deg),
            fresh,
        )
    return scanned, updates


def _pull_targets(
    g: Graph, blocked_dst: np.ndarray, gathered: int
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Ligra's direction choice for a dense round with a block.

    Returns the unblocked vertices, their in-degrees and the sum of those
    when that sum, times :data:`PULL_EDGE_COST`, is below ``gathered`` (the
    frontier's out-degree sum), so pulling beats sweeping; else None.
    """
    rev_offsets = g.reverse().offsets
    targets = np.flatnonzero(~blocked_dst)
    in_deg = rev_offsets[targets + 1] - rev_offsets[targets]
    in_sum = int(in_deg.sum())
    if PULL_EDGE_COST * in_sum < gathered:
        return targets, in_deg, in_sum
    return None


def _dense_round(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    gathered: int,
    weights: np.ndarray,
    visited: np.ndarray,
    blocked_dst: Optional[np.ndarray],
) -> Tuple[np.ndarray, int, int, int, int]:
    """A ``first_visit`` round over a dense frontier, with no edge gather.

    ``gathered`` is the frontier's out-degree sum. The round pulls when
    :func:`_pull_targets` says so, and sweeps the CSR otherwise. Every
    candidate is judged against one snapshot of the pre-round values, and
    the next frontier is every vertex that improved or was first reached,
    so values and counters are those of :func:`_sparse_round`.
    """
    n = g.num_vertices
    before = vals.copy()
    active = np.zeros(n, dtype=bool)
    active[frontier] = True
    fresh = np.zeros(n, dtype=bool)
    pull = None
    if blocked_dst is not None:
        pull = _pull_targets(g, blocked_dst, gathered)
    if pull is not None:
        scanned, updates = _pull_sweep(
            g, spec, vals, before, active, weights, visited, fresh, *pull
        )
    else:
        scanned, updates = _push_sweep(
            g, spec, vals, before, active, weights, visited, fresh,
            blocked_dst,
        )
    if not scanned:
        # Every gathered edge is blocked (REACH's saturated seed round).
        return np.empty(0, dtype=np.int64), 0, 0, gathered, 0
    changed = spec.better(vals, before)
    # One destination improved by several edges counts once here, so the
    # difference is the sparse round's losers of the reduce race.
    redundant = 0
    if obs_runtime._enabled and updates:
        redundant = updates - int(np.count_nonzero(changed))
    visited |= fresh
    new_frontier = np.flatnonzero(changed | fresh)
    return new_frontier, scanned, updates, gathered - scanned, redundant


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
    frontier = _vertex_set(frontier, g.num_vertices)
    if first_visit and visited is None:
        raise ValueError("first_visit requires a visited array")
    if san_runtime._enabled:
        san_probes.check_csr(g, "engine.frontier")
        san_probes.check_frontier(
            frontier, g.num_vertices, "engine.frontier"
        )
    iteration = 0
    telemetry = None
    rounds: List[Tuple[int, ...]] = []
    try:
        while frontier.size:
            fault_point("engine.frontier.iteration")
            if budget is not None:
                budget.tick("engine.frontier")
            gathered = _out_degree_sum(g, frontier) if first_visit else 0
            if gathered > g.num_edges // DENSE_DIVISOR:
                new_frontier, scanned, updates, skipped, redundant = _dense_round(
                    g, spec, vals, frontier, gathered, weights, visited,
                    blocked_dst,
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
                if telemetry is None:
                    telemetry = _engine_counters()
                rounds.append((
                    info.frontier_size, scanned, updates, info.activated,
                    skipped, redundant,
                ))
            yield info
            frontier = new_frontier
            iteration += 1
    finally:
        # Reported once per run, and also when a budget or a fault aborts
        # it, so the rounds that ran are never lost.
        if rounds:
            _report_rounds(*telemetry, rounds)


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


def evaluate_batch(
    g: Graph, spec: QuerySpec, sources: Sequence[int]
) -> np.ndarray:
    """:func:`evaluate_query` from each of ``sources``, as a ``(k, n)`` matrix.

    A plain map over the one engine. It exists only because the benchmark
    suite's ``engines.batch8`` rung imports it, and goes when ROADMAP 0(i)
    drops that rung.
    """
    if spec.multi_source:
        raise ValueError(f"{spec.name} is already multi-source; batch "
                         "evaluation applies to single-source queries")
    return np.stack([evaluate_query(g, spec, int(s)) for s in sources])
