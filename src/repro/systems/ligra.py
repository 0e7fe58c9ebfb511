"""Ligra (PPoPP '13) cost model: in-memory frontier-based processing.

Ligra holds the whole graph in memory, so core graphs help by cutting the
computation itself: fewer edges processed (Table 11) and better cache
locality from the small CG during the core phase. The model charges edge
processing and frontier maintenance; real wall-clock time of the vectorized
engine is also recorded in ``stats.wall_time``.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.core.twophase import completion_blocked, phase2_frontier
from repro.engines.frontier import push_iterations
from repro.engines.stats import RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.common import (
    resolve_proxy,
    working_graph,
)
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
        report = SystemReport(
            system=self.name, spec_name=spec.name, mode=mode, source=source
        )
        for key in ("comp_edges", "edges_processed", "iterations",
                    "frontier_vertices", "updates"):
            report.counters[key] = 0.0
        report.breakdown = {"comp": 0.0, "frontier": 0.0}
        return report

    def _account(
        self, report: SystemReport, info, edge_cost_scale: float = 1.0
    ) -> None:
        p = self.params
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

    def _finish(self, report, vals, stats) -> SystemReport:
        report.time = sum(report.breakdown.values())
        report.stats = stats
        report.values = vals
        return report

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Unmodified Ligra on the full in-memory graph."""
        report = self._init_report(spec, "baseline", source)
        work = working_graph(self.g, spec)
        vals = spec.initial_values(self.g.num_vertices, source)
        frontier = spec.initial_frontier(self.g.num_vertices, source)
        stats = RunStats()
        t0 = time.perf_counter()
        for info in push_iterations(work, spec, vals, frontier):
            stats.record(info)
            self._account(report, info)
        stats.wall_time = time.perf_counter() - t0
        return self._finish(report, vals, stats)

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
        proxy_g = resolve_proxy(proxy)
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        n = self.g.num_vertices
        work_cg = working_graph(proxy_g, spec)
        vals = spec.initial_values(n, source)
        frontier = spec.initial_frontier(n, source)
        phase1 = RunStats()
        t0 = time.perf_counter()
        for info in push_iterations(work_cg, spec, vals, frontier):
            phase1.record(info)
            self._account(report, info, self.CORE_PHASE_EDGE_DISCOUNT)
        phase1.wall_time = time.perf_counter() - t0
        report.counters["phase1_iterations"] = phase1.iterations

        blocked, certified = completion_blocked(proxy, spec, source, vals, triangle)
        report.counters["certified_precise"] = certified
        impacted = phase2_frontier(spec, vals)
        report.counters["impacted"] = float(impacted.size)
        visited = np.zeros(n, dtype=bool)
        visited[impacted] = True
        work = working_graph(self.g, spec)
        phase2 = RunStats()
        t0 = time.perf_counter()
        for info in push_iterations(
            work, spec, vals, impacted,
            first_visit=True, visited=visited, blocked_dst=blocked,
        ):
            phase2.record(info)
            self._account(report, info)
        phase2.wall_time = time.perf_counter() - t0
        return self._finish(report, vals, phase1.merged_with(phase2))
