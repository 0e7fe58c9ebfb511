"""Subway (EuroSys '20) model: out-of-GPU-memory graph processing.

Subway cannot hold the full graph in GPU memory, so each round it
*generates* the active subgraph on the host (GEN), *transfers* it over PCIe
(TRANS), and processes it on the GPU (COMP) with atomic CASMIN/CASMAX
updates (ATOMIC) -- the four quantities of the paper's Figure 5. The
active subgraph of a round is the frontier's out-edges minus those into
provably precise vertices (``Reduced(E)``): exactly the round's
``frontier_size`` vertices and ``edges_scanned`` edges, so GEN/TRANS are
charged from the rounds the shared evaluators record. A
:class:`~repro.systems.subgraph.GpuMemoryModel` decides when a graph can
instead be shipped once and iterated on-device.

With a core graph, the Core Phase ships the (small, memory-fitting) CG to
the GPU once and iterates with no further GEN or TRANS; the Completion
Phase falls back to per-round subgraph generation over ``Reduced(E)``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.core.coregraph import CoreGraph
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.common import (
    finish,
    new_report,
    proxy_transfer_bytes,
    resolve_proxy,
    working_graph,
)
from repro.systems.report import DEFAULT_COST_PARAMS, CostParams, SystemReport
from repro.systems.subgraph import GpuMemoryModel


class SubwaySimulator:
    """Models Subway's synchronous query evaluation."""

    name = "Subway"

    def __init__(
        self,
        g: Graph,
        params: CostParams = DEFAULT_COST_PARAMS,
        gpu_memory: Optional[int] = None,
    ) -> None:
        self.g = g
        self.params = params
        self.memory = GpuMemoryModel(
            g, gpu_memory, params.bytes_per_edge, params.bytes_per_vertex
        )

    # ------------------------------------------------------------------
    def _init_report(self, spec: QuerySpec, mode: str, source) -> SystemReport:
        return new_report(
            self.name, spec, mode, source,
            ("gen_edges", "trans_bytes", "comp_edges", "atomics",
             "iterations", "edges_processed"),
            ("gen", "trans", "comp"),
        )

    def _account(self, report: SystemReport, rounds: Iterable[IterationInfo],
                 resident: bool) -> None:
        """Charge a phase's rounds; generate+ship subgraphs unless resident."""
        p = self.params
        n = self.g.num_vertices
        for info in rounds:
            if not resident:
                # One host-side subgraph build + PCIe transfer.
                edges = info.edges_scanned
                nbytes = (
                    edges * p.bytes_per_edge
                    + info.frontier_size * p.bytes_per_vertex
                )
                report.counters["gen_edges"] += edges
                report.counters["trans_bytes"] += nbytes
                report.breakdown["gen"] += (
                    n / p.gen_vertex_rate + edges / p.gen_edge_rate
                )
                report.breakdown["trans"] += nbytes / p.pcie_bandwidth
            report.counters["comp_edges"] += info.edges_scanned
            report.counters["edges_processed"] += info.edges_scanned
            report.counters["atomics"] += info.updates
            report.counters["iterations"] += 1
            report.breakdown["comp"] += (
                info.edges_scanned / p.gpu_edge_rate
                + info.updates * p.atomic_cost
            )

    def _account_one_time_load(self, report: SystemReport, nbytes: int) -> None:
        report.counters["trans_bytes"] += nbytes
        report.breakdown["trans"] += nbytes / self.params.pcie_bandwidth

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Unmodified Subway: per-round subgraph generation throughout
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
        stats = RunStats()
        vals = evaluate_query(self.g, spec, source, stats=stats)
        self._account(report, stats.per_iteration, resident)
        return finish(report, vals, stats)

    def two_phase_run(
        self,
        proxy: Union[CoreGraph, Graph],
        spec: QuerySpec,
        source: Optional[int] = None,
        triangle: bool = False,
    ) -> SystemReport:
        """Subway with proxy-graph bootstrapping (Algorithm 3 on a GPU)."""
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        res = two_phase(self.g, proxy, spec, source, triangle=triangle)

        # Core Phase: ship the proxy graph and value array once if it fits
        # (the normal case); otherwise it too pays per-round generation.
        work_cg = working_graph(resolve_proxy(proxy), spec)
        cg_resident = self.memory.fits(work_cg)
        if cg_resident:
            self._account_one_time_load(
                report,
                proxy_transfer_bytes(
                    work_cg, self.params.bytes_per_edge,
                    self.params.bytes_per_vertex,
                ),
            )
        self._account(report, res.phase1.per_iteration, cg_resident)
        report.counters["phase1_iterations"] = res.phase1.iterations
        report.counters["cg_resident"] = float(cg_resident)

        # Completion Phase: per-round generation over Reduced(E).
        report.counters["certified_precise"] = res.certified_precise
        report.counters["impacted"] = float(res.impacted)
        self._account(
            report, res.phase2.per_iteration,
            self.memory.fits(working_graph(self.g, spec)),
        )
        return finish(report, res.values, res.total)
