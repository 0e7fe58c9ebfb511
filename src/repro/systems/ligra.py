"""Ligra (PPoPP '13) cost model: in-memory frontier-based processing.

Ligra holds the whole graph in memory, so core graphs help by cutting the
computation itself: fewer edges processed (Table 11) and better cache
locality from the small CG during the core phase. Ligra's ``edgeMap``
rounds are exactly the push engine's, so the model runs the shared
evaluators (:func:`~repro.engines.frontier.evaluate_query`,
:func:`~repro.core.twophase.two_phase`) and charges edge processing and
frontier maintenance over the rounds they record; real wall-clock time of
the vectorized engine is kept in ``stats.wall_time``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.core.coregraph import CoreGraph
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.common import finish, new_report
from repro.systems.report import DEFAULT_COST_PARAMS, CostParams, SystemReport


class LigraSimulator:
    """Models Ligra's push-based edgeMap/vertexMap evaluation."""

    name = "Ligra"

    #: Relative cost of an edge touched during the in-memory core phase:
    #: the CG is small enough to stay cache-resident, so its edges are
    #: cheaper than full-graph edges streaming through DRAM.
    CORE_PHASE_EDGE_DISCOUNT = 0.5

    def __init__(self, g: Graph, params: CostParams = DEFAULT_COST_PARAMS) -> None:
        self.g = g
        self.params = params

    def _init_report(self, spec: QuerySpec, mode: str, source) -> SystemReport:
        return new_report(
            self.name, spec, mode, source,
            ("comp_edges", "edges_processed", "iterations",
             "frontier_vertices", "updates"),
            ("comp", "frontier"),
        )

    def _account(self, report: SystemReport, rounds: Iterable[IterationInfo],
                 edge_cost_scale: float = 1.0) -> None:
        p = self.params
        for info in rounds:
            report.counters["comp_edges"] += info.edges_scanned
            report.counters["edges_processed"] += info.edges_scanned
            report.counters["updates"] += info.updates
            report.counters["iterations"] += 1
            report.counters["frontier_vertices"] += info.frontier_size
            report.breakdown["comp"] += (
                edge_cost_scale * info.edges_scanned / p.cpu_edge_rate
            )
            report.breakdown["frontier"] += (
                (info.frontier_size + info.activated) / p.vertex_rate
            )

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Unmodified Ligra on the full in-memory graph."""
        report = self._init_report(spec, "baseline", source)
        stats = RunStats()
        vals = evaluate_query(self.g, spec, source, stats=stats)
        self._account(report, stats.per_iteration)
        return finish(report, vals, stats)

    def two_phase_run(
        self,
        proxy: Union[CoreGraph, Graph],
        spec: QuerySpec,
        source: Optional[int] = None,
        triangle: bool = False,
    ) -> SystemReport:
        """Ligra with proxy-graph bootstrapping.

        With ``triangle=True`` the Theorem 1 certificates remove the
        incoming edges of provably precise vertices from the completion
        phase (the paper's Table 12 configuration).
        """
        res = two_phase(self.g, proxy, spec, source, triangle=triangle)
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        self._account(
            report, res.phase1.per_iteration, self.CORE_PHASE_EDGE_DISCOUNT
        )
        self._account(report, res.phase2.per_iteration)
        report.counters["phase1_iterations"] = res.phase1.iterations
        report.counters["certified_precise"] = res.certified_precise
        report.counters["impacted"] = float(res.impacted)
        return finish(report, res.values, res.total)
