"""Two-phase query evaluation (Algorithm 3).

The Core Phase converges the query on the small in-memory core graph; the
Completion Phase resumes on the full graph from every impacted vertex,
applying the ``FirstPhase2Visit`` rule so all reachable vertices push their
full-graph out-edges at least once, which guarantees 100% precise results.
With ``triangle=True`` the Theorem 1 certificates additionally remove the
incoming edges of provably precise vertices from the completion phase.

The evaluation is resilient by construction:

* a :class:`~repro.resilience.budget.Budget` bounds wall-clock and
  iterations across *both* phases; with ``anytime=True`` a budget
  abort returns the partial result with a per-vertex precision
  certificate (Theorem-1 exact / CG-approximate / unreached) and
  ``degraded=True`` instead of raising;
* ``completion=False`` deliberately sheds the Completion Phase and returns
  the Core-Phase answer as a certificate-carrying degraded result — the
  graceful-degradation lever :mod:`repro.serve` pulls when its circuit
  breaker is open.

Re-entrancy: :func:`two_phase` is safe to call concurrently from many
threads over one shared ``(g, proxy)`` pair. All mutable run state
(``vals``, frontiers, visited mask, stats) is per-call; the inputs are
only read. The shared caches it touches are individually synchronized —
:func:`~repro.engines.frontier.symmetric_view` builds under a lock, the
metrics registry and journal serialize internally, and span stacks are
thread-local. A ``budget`` must be a fresh object per call: the entry
claim via ``Budget.begin_run`` raises :class:`~repro.resilience.budget.
BudgetReuseError` instead of silently inheriting another run's clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.core.coregraph import CoreGraph
from repro.core.triangle import certify_precise, supports_triangle
from repro.engines.frontier import run_push, symmetric_view
from repro.engines.stats import RunStats
from repro.graph.csr import Graph
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import quality as obs_quality
from repro.obs import runtime as obs_runtime
from repro.obs.spans import span
from repro.queries.base import QuerySpec
from repro.resilience.anytime import certificate_counts, precision_certificate
from repro.resilience.budget import Budget, BudgetExceeded
from repro.resilience.faults import fault_point


@dataclass
class TwoPhaseResult:
    """Outcome of one 2Phase evaluation.

    For a completed run ``values`` is precise for every vertex (the 2Phase
    guarantee) and ``degraded`` is False. For a budget-aborted anytime run
    ``degraded`` is True, ``budget_error`` holds the structured abort, and
    only the vertices whose ``certificate`` entry is
    :data:`~repro.resilience.anytime.CERT_EXACT` are guaranteed precise.
    ``degraded_phase`` says where the degradation happened: 1 (Core Phase
    abort), 2 (Completion Phase abort, or the phase was shed with
    ``completion=False`` — then ``budget_error`` is None), else None.
    The two ``RunStats`` expose the per-phase work; ``impacted`` is the
    size of the completion phase's initial frontier and
    ``certified_precise`` counts the vertices whose in-edges the triangle
    optimization removed.
    """

    values: np.ndarray
    phase1: RunStats = field(default_factory=RunStats)
    phase2: RunStats = field(default_factory=RunStats)
    impacted: int = 0
    certified_precise: int = 0
    degraded: bool = False
    budget_error: Optional[BudgetExceeded] = None
    certificate: Optional[np.ndarray] = None
    degraded_phase: Optional[int] = None

    @property
    def total(self) -> RunStats:
        return self.phase1.merged_with(self.phase2)


def _proxy_graph(proxy: Union[CoreGraph, Graph]) -> Graph:
    return proxy.graph if isinstance(proxy, CoreGraph) else proxy


def phase2_frontier(spec: QuerySpec, vals: np.ndarray) -> np.ndarray:
    """Completion-phase initial frontier: all impacted vertices.

    Initialization impacts every vertex of a multi-source query (each
    starts with its own label), so WCC starts from all of them.
    """
    if spec.multi_source:
        return np.arange(vals.shape[0], dtype=np.int64)
    return np.flatnonzero(spec.reached(vals))


def run_completion(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    impacted: np.ndarray,
    **kwargs,
) -> np.ndarray:
    """The Completion Phase: resume ``vals`` on ``g`` from ``impacted``.

    ``impacted`` is :func:`phase2_frontier` of the Core-Phase values. The
    ``FirstPhase2Visit`` rule makes every vertex reached push its
    full-graph out-edges at least once, so ``vals`` converges to the
    full-graph fixed point whatever proxy produced them. Opens no span:
    the caller's span names the run. ``kwargs`` go to
    :func:`~repro.engines.frontier.run_push`.
    """
    visited = np.zeros(g.num_vertices, dtype=bool)
    visited[impacted] = True
    work_g = symmetric_view(g) if spec.symmetric else g
    return run_push(
        work_g, spec, vals, impacted, first_visit=True, visited=visited,
        **kwargs,
    )


def completion_blocked(
    proxy: Union[CoreGraph, Graph],
    spec: QuerySpec,
    source: Optional[int],
    vals: np.ndarray,
    triangle: bool,
) -> Tuple[Optional[np.ndarray], int]:
    """The ``Reduced(E)`` blocked-destination mask and its size.

    Two sources of provably precise vertices (whose in-edges Algorithm 3
    removes): lattice saturation (REACH's val == 1 -- always applied, it
    needs no hub data) and, with ``triangle=True``, the Theorem 1
    hub-distance certificates of §2.2.
    """
    blocked = spec.saturated(vals)
    if triangle:
        if not isinstance(proxy, CoreGraph):
            raise ValueError("triangle optimization requires a CoreGraph")
        if spec.name != "REACH" and not proxy.hub_data:
            raise ValueError(
                "triangle optimization requires hub values; build the core "
                "graph with keep_hub_values=True"
            )
        if spec.name != "REACH" and proxy.spec_name != spec.name:
            raise ValueError(
                f"triangle optimization for {spec.name} needs {spec.name}'s "
                f"hub values; this core graph holds {proxy.spec_name}'s"
            )
        tri = certify_precise(proxy, spec, int(source), vals)
        blocked = tri if blocked is None else (blocked | tri)
    if blocked is None:
        return None, 0
    return blocked, int(blocked.sum())


def two_phase(
    g: Graph,
    proxy: Union[CoreGraph, Graph],
    spec: QuerySpec,
    source: Optional[int] = None,
    triangle: bool = False,
    keep_frontier: bool = False,
    budget: Optional[Budget] = None,
    anytime: bool = False,
    completion: bool = True,
) -> TwoPhaseResult:
    """Evaluate ``spec`` from ``source`` via the 2Phase algorithm.

    ``proxy`` is normally a :class:`CoreGraph` but any same-vertex-set
    subgraph (e.g. an Abstraction Graph or Sampled Graph baseline) works —
    the completion phase repairs whatever imprecision the proxy leaves.
    ``triangle`` requires a :class:`CoreGraph` with retained hub values.

    ``budget`` limits span both phases; with ``anytime=True`` an exceeded
    budget degrades to a partial result instead of raising.

    ``completion=False`` runs the Core Phase to convergence and *sheds*
    the Completion Phase: the result is ``degraded=True`` with a precision
    certificate (and no ``budget_error``) — mostly-precise answers at a
    fraction of the cost, which is how an overloaded service keeps
    responding instead of failing.
    """
    proxy_g = _proxy_graph(proxy)
    if proxy_g.num_vertices != g.num_vertices:
        raise ValueError("proxy graph must share the full graph's vertex set")
    if san_runtime._enabled and isinstance(proxy, CoreGraph):
        san_probes.check_cg_containment(g, proxy, "twophase")

    n = g.num_vertices
    phase1_stats = RunStats()
    phase2_stats = RunStats()

    if budget is not None:
        budget.begin_run("twophase")

    work_cg = symmetric_view(proxy_g) if spec.symmetric else proxy_g
    vals = spec.initial_values(n, source)
    frontier = spec.initial_frontier(n, source)
    fault_point("twophase.core.begin")
    try:
        with span("twophase.core", query=spec.name):
            run_push(
                work_cg, spec, vals, frontier,
                stats=phase1_stats, keep_frontier=keep_frontier,
                budget=budget,
            )
    except BudgetExceeded as exc:
        if not anytime:
            raise
        # Degrade from the Core Phase: saturation (and, when the hub
        # data supports it, Theorem 1) still certifies mid-run values
        # because every CG value is achieved by a real path in G.
        blocked, certified = None, 0
        if spec.saturation_value is not None or (
            triangle and isinstance(proxy, CoreGraph)
            and supports_triangle(spec) and not spec.multi_source
        ):
            blocked, certified = completion_blocked(
                proxy, spec, source, vals, triangle
            )
        cert = precision_certificate(spec, vals, certified=blocked)
        result = TwoPhaseResult(
            values=vals, phase1=phase1_stats, phase2=phase2_stats,
            impacted=0, certified_precise=certified,
            degraded=True, budget_error=exc, certificate=cert,
            degraded_phase=1,
        )
        _emit_result(spec, source, result, n, None)
        return result
    # The completion phase's output is the full-graph ground truth, so a
    # snapshot of the core-phase values is all the precision measurement
    # needs (one O(n) copy + compare, paid only while tracing).
    phase1_snapshot = vals.copy() if obs_runtime._enabled else None

    impacted = phase2_frontier(spec, vals)
    impacted_size = int(impacted.size)

    # Reduced(E): remove the incoming edges of provably precise vertices.
    # Lattice saturation (REACH's val == 1) is always available; Theorem
    # 1's hub-distance certificates are the optional triangle optimization.
    blocked, certified = completion_blocked(
        proxy, spec, source, vals, triangle
    )

    if not completion:
        # Shed the Completion Phase: the converged Core-Phase values are
        # returned as-is, flagged degraded, with the certificate marking
        # which vertices are nevertheless provably exact.
        cert = precision_certificate(spec, vals, certified=blocked)
        result = TwoPhaseResult(
            values=vals, phase1=phase1_stats, phase2=phase2_stats,
            impacted=impacted_size, certified_precise=certified,
            degraded=True, budget_error=None, certificate=cert,
            degraded_phase=2,
        )
        _emit_result(spec, source, result, n, None)
        return result

    degraded = False
    budget_error: Optional[BudgetExceeded] = None
    degraded_phase: Optional[int] = None
    fault_point("twophase.completion.begin")
    try:
        with span("twophase.completion", query=spec.name):
            run_completion(
                g, spec, vals, impacted,
                stats=phase2_stats,
                blocked_dst=blocked,
                keep_frontier=keep_frontier,
                budget=budget,
            )
    except BudgetExceeded as exc:
        if not anytime:
            raise
        degraded = True
        budget_error = exc
        degraded_phase = 2

    if san_runtime._enabled:
        # The certified vertices' in-edges were dropped from the completion
        # scan, so only this audit can catch a wrong certificate: sampled
        # vertices must already sit at their full-graph fixed point.
        san_probes.audit_certified_fixed_point(
            symmetric_view(g) if spec.symmetric else g, spec, vals, blocked,
            "twophase",
        )
        if obs_runtime._enabled:
            san_probes.audit_metric_names("twophase")
    certificate = precision_certificate(
        spec, vals, certified=blocked, complete=not degraded
    )
    result = TwoPhaseResult(
        values=vals,
        phase1=phase1_stats,
        phase2=phase2_stats,
        impacted=impacted_size,
        certified_precise=certified,
        degraded=degraded,
        budget_error=budget_error,
        certificate=certificate,
        degraded_phase=degraded_phase,
    )
    _emit_result(spec, source, result, n, phase1_snapshot)
    return result


def two_phase_batch(
    g: Graph,
    proxy: Union[CoreGraph, Graph],
    spec: QuerySpec,
    sources: Sequence[int],
) -> TwoPhaseResult:
    """:func:`two_phase` from each of ``sources``.

    ``values`` is the ``(k, n)`` matrix of the per-source answers;
    ``phase1``/``phase2`` and ``impacted`` add up the per-source runs. A
    plain map over the one path. It exists only because the benchmark
    suite's eight-source 2Phase rung imports it, and goes when ROADMAP
    0(i) drops that rung.
    """
    if spec.multi_source:
        raise ValueError("batched 2Phase applies to single-source queries")
    runs = [two_phase(g, proxy, spec, int(s)) for s in sources]
    return TwoPhaseResult(
        values=np.stack([r.values for r in runs]),
        phase1=reduce(RunStats.merged_with, (r.phase1 for r in runs)),
        phase2=reduce(RunStats.merged_with, (r.phase2 for r in runs)),
        impacted=sum(r.impacted for r in runs),
    )


def _emit_result(
    spec: QuerySpec,
    source: Optional[int],
    result: TwoPhaseResult,
    n: int,
    phase1_snapshot: Optional[np.ndarray],
) -> None:
    """Gauges, quality counters, and the ``twophase.result`` journal event."""
    if not obs_runtime._enabled:
        return
    obs_metrics.gauge("twophase.impacted", query=spec.name).set(
        result.impacted
    )
    obs_metrics.gauge("twophase.certified_precise", query=spec.name).set(
        result.certified_precise
    )
    obs_metrics.gauge("twophase.degraded", query=spec.name).set(
        int(result.degraded)
    )
    precise_fraction = None
    if phase1_snapshot is not None and not result.degraded:
        precise_fraction = obs_quality.phase1_precise_fraction(
            spec, phase1_snapshot, result.values
        )
    redundant = (
        result.phase1.redundant_relaxations
        + result.phase2.redundant_relaxations
    )
    obs_quality.record_two_phase(
        query=spec.name,
        num_vertices=n,
        precise_fraction=precise_fraction,
        certified=result.certified_precise,
        edges_skipped=result.phase2.edges_skipped,
        redundant_relaxations=redundant,
    )
    obs_journal.emit(
        {
            "type": "event",
            "name": "twophase.result",
            "query": spec.name,
            "source": None if source is None else int(source),
            "impacted": result.impacted,
            "certified_precise": result.certified_precise,
            "phase1_precise_fraction": precise_fraction,
            "edges_skipped": result.phase2.edges_skipped,
            "redundant_relaxations": redundant,
            "degraded": result.degraded,
            "degraded_phase": result.degraded_phase,
            "budget": (
                None if result.budget_error is None
                else result.budget_error.as_dict()
            ),
            "certificate": (
                None if result.certificate is None
                else certificate_counts(result.certificate)
            ),
            "phase1": result.phase1.to_dict(include_iterations=False),
            "phase2": result.phase2.to_dict(include_iterations=False),
        }
    )
