"""Subway (EuroSys '20) model: out-of-GPU-memory graph processing.

Subway cannot hold the full graph in GPU memory, so each iteration it
*generates* the active subgraph on the host (GEN), *transfers* it over PCIe
(TRANS), and processes it on the GPU (COMP) with atomic CASMIN/CASMAX
updates (ATOMIC) — the four quantities of the paper's Figure 5. The
generation is performed for real by :class:`~repro.systems.subgraph.
SubgraphGenerator`, so GEN/TRANS account actual compacted-subgraph sizes;
an explicit :class:`~repro.systems.subgraph.GpuMemoryModel` decides when a
graph can instead be shipped once and iterated on-device.

With a core graph, the Core Phase ships the (small, memory-fitting) CG to
the GPU once and iterates with no further GEN or TRANS; the Completion
Phase falls back to per-iteration subgraph generation over ``Reduced(E)``
(in-edges of provably precise vertices excluded at generation time).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.core.twophase import completion_blocked, phase2_frontier
from repro.engines.frontier import push_iterations
from repro.engines.stats import RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.common import (
    proxy_transfer_bytes,
    resolve_proxy,
    working_graph,
)
from repro.systems.report import DEFAULT_COST_PARAMS, CostParams, SystemReport
from repro.systems.subgraph import GpuMemoryModel, SubgraphGenerator


class SubwaySimulator:
    """Models Subway's synchronous (non-async) query evaluation."""

    name = "Subway"

    def __init__(
        self,
        g: Graph,
        params: CostParams = DEFAULT_COST_PARAMS,
        gpu_memory: Optional[int] = None,
        mode: str = "sync",
    ) -> None:
        """``mode="sync"`` ships one subgraph per synchronous round (the
        paper's configuration); ``mode="async"`` iterates each shipped
        subgraph to *local* convergence before generating the next one —
        Subway-Async's design, trading extra GPU rounds for fewer
        generations and transfers."""
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {mode!r}")
        self.g = g
        self.params = params
        self.mode = mode
        self.memory = GpuMemoryModel(
            g, gpu_memory, params.bytes_per_edge, params.bytes_per_vertex
        )
        self._generators: Dict[int, SubgraphGenerator] = {}

    def _generator_for(self, work: Graph) -> SubgraphGenerator:
        key = id(work)
        if key not in self._generators:
            self._generators[key] = SubgraphGenerator(work)
        return self._generators[key]

    # ------------------------------------------------------------------
    def _init_report(self, spec: QuerySpec, mode: str, source) -> SystemReport:
        report = SystemReport(
            system=self.name, spec_name=spec.name, mode=mode, source=source
        )
        for key in ("gen_edges", "trans_bytes", "comp_edges", "atomics",
                    "iterations", "edges_processed"):
            report.counters[key] = 0.0
        report.breakdown = {"gen": 0.0, "trans": 0.0, "comp": 0.0}
        return report

    def _account_generation(self, report: SystemReport, subgraph) -> None:
        """One host-side subgraph build + PCIe transfer."""
        p = self.params
        n = self.g.num_vertices
        nbytes = subgraph.nbytes(p.bytes_per_edge, p.bytes_per_vertex)
        report.counters["gen_edges"] += subgraph.num_edges
        report.counters["trans_bytes"] += nbytes
        report.breakdown["gen"] += (
            n / p.gen_vertex_rate + subgraph.num_edges / p.gen_edge_rate
        )
        report.breakdown["trans"] += nbytes / p.pcie_bandwidth

    def _account_compute(self, report: SystemReport, info) -> None:
        p = self.params
        report.counters["comp_edges"] += info.edges_scanned
        report.counters["edges_processed"] += info.edges_scanned
        report.counters["atomics"] += info.updates
        report.counters["iterations"] += 1
        report.breakdown["comp"] += (
            info.edges_scanned / p.gpu_edge_rate + info.updates * p.atomic_cost
        )

    def _account_one_time_load(self, report: SystemReport, nbytes: int) -> None:
        report.counters["trans_bytes"] += nbytes
        report.breakdown["trans"] += nbytes / self.params.pcie_bandwidth

    def _finish(self, report: SystemReport, vals: np.ndarray,
                stats: RunStats) -> SystemReport:
        report.time = sum(report.breakdown.values())
        report.stats = stats
        report.values = vals
        return report

    def _run_phase(
        self,
        report: SystemReport,
        work: Graph,
        spec: QuerySpec,
        vals: np.ndarray,
        frontier: np.ndarray,
        resident: bool,
        blocked: Optional[np.ndarray] = None,
        first_visit: bool = False,
        visited: Optional[np.ndarray] = None,
    ) -> RunStats:
        """Iterate one phase; generate+ship subgraphs unless resident."""
        if not resident and self.mode == "async":
            return self._run_phase_async(
                report, work, spec, vals, frontier,
                blocked=blocked, first_visit=first_visit, visited=visited,
            )
        generator = None if resident else self._generator_for(work)
        stats = RunStats()
        for info in push_iterations(
            work, spec, vals, frontier,
            first_visit=first_visit, visited=visited, blocked_dst=blocked,
            keep_frontier=not resident,
        ):
            if generator is not None and info.frontier is not None:
                subgraph = generator.generate(info.frontier, blocked)
                self._account_generation(report, subgraph)
            stats.record(info)
            self._account_compute(report, info)
        return stats

    def _run_phase_async(
        self,
        report: SystemReport,
        work: Graph,
        spec: QuerySpec,
        vals: np.ndarray,
        frontier: np.ndarray,
        blocked: Optional[np.ndarray] = None,
        first_visit: bool = False,
        visited: Optional[np.ndarray] = None,
    ) -> RunStats:
        """Subway-Async: each shipped subgraph iterates to local convergence.

        The loaded subgraph holds the out-edges of the current window's
        frontier, so value changes *within* the window keep propagating
        on-device; only vertices activated outside the window wait for the
        next generation.
        """
        from repro.engines.frontier import ragged_gather
        from repro.engines.stats import IterationInfo

        generator = self._generator_for(work)
        weights = spec.weight_transform(work.edge_weights())
        n = work.num_vertices
        frontier = np.unique(np.asarray(frontier, dtype=np.int64))
        stats = RunStats()
        window = 0
        while frontier.size:
            subgraph = generator.generate(frontier, blocked)
            self._account_generation(report, subgraph)
            in_window = np.zeros(n, dtype=bool)
            in_window[frontier] = True
            pending = np.zeros(n, dtype=bool)
            local = frontier
            window_edges = 0
            window_updates = 0
            while local.size:
                edge_idx, u = ragged_gather(work.offsets, local)
                v = work.dst[edge_idx]
                if blocked is not None and edge_idx.size:
                    keep = ~blocked[v]
                    edge_idx, u, v = edge_idx[keep], u[keep], v[keep]
                old = vals[v]
                cand = spec.propagate(vals[u], weights[edge_idx])
                improving = spec.better(cand, old)
                window_updates += int(np.count_nonzero(improving))
                spec.reduce_at(vals, v, cand)
                changed = spec.better(vals[v], old)
                if first_visit:
                    fresh = ~visited[v]
                    visited[v[fresh]] = True
                    act = changed | fresh
                else:
                    act = changed
                act_v = np.unique(v[act])
                inside = in_window[act_v]
                pending[act_v[~inside]] = True
                local = act_v[inside]
                window_edges += int(edge_idx.size)
            next_frontier = np.flatnonzero(pending)
            info = IterationInfo(
                index=window,
                frontier_size=int(frontier.size),
                edges_scanned=window_edges,
                updates=window_updates,
                activated=int(next_frontier.size),
            )
            stats.record(info)
            self._account_compute(report, info)
            frontier = next_frontier
            window += 1
        return stats

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Unmodified Subway: per-iteration subgraph generation throughout
        (the full graph exceeds GPU memory by construction)."""
        report = self._init_report(spec, "baseline", source)
        work = working_graph(self.g, spec)
        resident = self.memory.fits(work)
        if resident:
            self._account_one_time_load(report, self.memory.graph_bytes(work))
        # Initial host->GPU transfer of the value array.
        self._account_one_time_load(
            report, self.g.num_vertices * self.params.bytes_per_vertex
        )
        vals = spec.initial_values(self.g.num_vertices, source)
        frontier = spec.initial_frontier(self.g.num_vertices, source)
        stats = self._run_phase(report, work, spec, vals, frontier, resident)
        return self._finish(report, vals, stats)

    def two_phase_run(
        self,
        proxy: Union[CoreGraph, Graph],
        spec: QuerySpec,
        source: Optional[int] = None,
        triangle: bool = False,
    ) -> SystemReport:
        """Subway with proxy-graph bootstrapping (Algorithm 3 on a GPU)."""
        proxy_g = resolve_proxy(proxy)
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        n = self.g.num_vertices

        # Core Phase: ship the proxy graph and value array once if it fits
        # (the normal case); otherwise it too pays per-iteration generation.
        work_cg = working_graph(proxy_g, spec)
        cg_resident = self.memory.fits(work_cg)
        if cg_resident:
            self._account_one_time_load(
                report,
                proxy_transfer_bytes(
                    work_cg, self.params.bytes_per_edge,
                    self.params.bytes_per_vertex,
                ),
            )
        vals = spec.initial_values(n, source)
        frontier = spec.initial_frontier(n, source)
        phase1 = self._run_phase(
            report, work_cg, spec, vals, frontier, cg_resident
        )
        report.counters["phase1_iterations"] = phase1.iterations
        report.counters["cg_resident"] = float(cg_resident)

        # Completion Phase: per-iteration generation over Reduced(E).
        blocked, certified = completion_blocked(
            proxy, spec, source, vals, triangle
        )
        report.counters["certified_precise"] = certified
        impacted = phase2_frontier(spec, vals)
        report.counters["impacted"] = float(impacted.size)
        visited = np.zeros(n, dtype=bool)
        visited[impacted] = True
        work = working_graph(self.g, spec)
        phase2 = self._run_phase(
            report, work, spec, vals, impacted,
            resident=self.memory.fits(work),
            blocked=blocked, first_visit=True, visited=visited,
        )
        return self._finish(report, vals, phase1.merged_with(phase2))
