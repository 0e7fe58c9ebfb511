"""GridGraph (USENIX ATC '15) cost model: out-of-core grid streaming.

GridGraph partitions the vertices into ``P`` ranges and the edges into a
``P x P`` grid of blocks on disk; each iteration streams blocks in order and
skips a block when its source partition holds no active vertex (*selective
scheduling*). Disk I/O dominates runtime, so the model charges every block
fetch by its byte size plus a fixed per-iteration latency.

The paper's configuration is a 4x4 grid (the default) with 8 GB of memory,
less than every graph, so the model always streams the full graph from
disk and keeps only a core graph in memory. With a core graph, the Core Phase loads the CG from disk
once and converges in memory; the Completion Phase streams the grid from the
impacted frontier, typically for far fewer I/O iterations (Table 9).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.core.twophase import completion_blocked, phase2_frontier
from repro.engines.frontier import push_iterations
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.common import (
    finish,
    new_report,
    resolve_proxy,
    working_graph,
)
from repro.systems.gridstorage import DiskBlockStore, MemoryBlockStore
from repro.systems.report import DEFAULT_COST_PARAMS, CostParams, SystemReport

#: The paper's GridGraph configuration.
DEFAULT_GRID = 4


class GridStore:
    """The ``p x p`` grid layout of one graph's edges.

    Edges are bucketed by ``(partition(src), partition(dst))`` and stored
    contiguously per block, in (src, dst, weight) triplet form, the layout
    GridGraph streams from disk. The ``backend`` selects where the blocks
    live: ``"memory"`` (default; byte counters model the I/O) or ``"disk"``
    (each block is an actual ``.npy`` file re-read on every access).
    """

    def __init__(
        self,
        g: Graph,
        p: int = DEFAULT_GRID,
        backend: str = "memory",
        directory=None,
    ) -> None:
        if p < 1:
            raise ValueError("grid dimension must be >= 1")
        self.g = g
        self.p = p
        n = g.num_vertices
        # Contiguous, equal-count vertex ranges: partition i covers
        # [bounds[i], bounds[i+1]).
        self.bounds = np.linspace(0, n, p + 1).astype(np.int64)
        self.part_of = (
            np.searchsorted(self.bounds, np.arange(n), side="right") - 1
        )
        src = g.edge_sources()
        block_id = self.part_of[src] * p + self.part_of[g.dst]
        order = np.argsort(block_id, kind="stable")
        src_sorted = src[order]
        dst_sorted = g.dst[order]
        weights_sorted = g.edge_weights()[order]
        counts = np.bincount(block_id, minlength=p * p)
        self.block_offsets = np.zeros(p * p + 1, dtype=np.int64)
        np.cumsum(counts, out=self.block_offsets[1:])
        if backend == "memory":
            self.backend = MemoryBlockStore(
                p, self.block_offsets, src_sorted, dst_sorted, weights_sorted
            )
        elif backend == "disk":
            self.backend = DiskBlockStore(
                p, self.block_offsets, src_sorted, dst_sorted,
                weights_sorted, directory=directory,
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")

    def block_edges(self, i: int, j: int) -> int:
        b = i * self.p + j
        return int(self.block_offsets[b + 1] - self.block_offsets[b])

    def read_block(self, i: int, j: int):
        """Fetch one block's ``(src, dst, weights)`` arrays."""
        return self.backend.read_block(i, j)

    def block_bytes(self, i: int, j: int, bytes_per_edge: int) -> int:
        # Stored triplets: src id + dst id + weight.
        return self.block_edges(i, j) * (bytes_per_edge + 4)

    def close(self) -> None:
        self.backend.close()


class GridGraphSimulator:
    """Models GridGraph's streaming evaluation with selective scheduling."""

    name = "GridGraph"

    def __init__(
        self,
        g: Graph,
        p: int = DEFAULT_GRID,
        params: CostParams = DEFAULT_COST_PARAMS,
        backend: str = "memory",
        storage_dir=None,
    ) -> None:
        self.g = g
        self.p = p
        self.params = params
        self.backend = backend
        self.storage_dir = storage_dir
        self._stores: Dict[int, GridStore] = {}

    def _store_for(self, work: Graph) -> GridStore:
        key = id(work)
        if key not in self._stores:
            self._stores[key] = GridStore(
                work, self.p, backend=self.backend,
                directory=self.storage_dir,
            )
        return self._stores[key]

    def close(self) -> None:
        """Release block storage (removes disk-backed temp directories)."""
        for store in self._stores.values():
            store.close()
        self._stores.clear()

    def _init_report(self, spec: QuerySpec, mode: str, source) -> SystemReport:
        return new_report(
            self.name, spec, mode, source,
            ("io_bytes", "io_blocks", "io_iterations", "comp_edges",
             "edges_processed", "iterations", "updates"),
            ("io", "comp"),
        )

    # ------------------------------------------------------------------
    def _stream_iterations(
        self,
        store: GridStore,
        spec: QuerySpec,
        vals: np.ndarray,
        frontier: np.ndarray,
        report: SystemReport,
        stats: RunStats,
        first_visit: bool = False,
        visited: Optional[np.ndarray] = None,
        blocked_dst: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Grid-streaming rounds with per-block, selectively scheduled I/O.

        Mutates ``vals`` in place. The fixed point is the push engine's
        (tests assert it); the rounds are not: like real GridGraph this
        reduces into ``vals`` block by block, so later blocks of a round
        see that round's earlier updates. That order is model semantics,
        so GridGraph streams here instead of charging push's rounds.
        """
        p_cost = self.params
        P = store.p
        n = store.g.num_vertices
        active = np.zeros(n, dtype=bool)
        frontier = np.unique(np.asarray(frontier, dtype=np.int64))
        active[frontier] = True
        streamed = 0
        iteration = 0
        while frontier.size:
            old_vals = vals.copy()
            touched = np.zeros(n, dtype=bool)
            part_active = np.zeros(P, dtype=bool)
            part_active[np.unique(store.part_of[frontier])] = True
            blocks_loaded = 0
            edges_this_iter = 0
            updates_this_iter = 0
            for i in range(P):
                if not part_active[i]:
                    continue  # selective scheduling: skip the whole row
                for j in range(P):
                    if store.block_edges(i, j) == 0:
                        continue
                    blocks_loaded += 1
                    streamed += store.block_bytes(i, j, p_cost.bytes_per_edge)
                    src_b, dst_all, w_raw = store.read_block(i, j)
                    sel = active[src_b]
                    if blocked_dst is not None:
                        sel = sel & ~blocked_dst[dst_all]
                    if not sel.any():
                        continue
                    dst_b = dst_all[sel]
                    w_b = spec.weight_transform(w_raw[sel])
                    cand = spec.propagate(vals[src_b[sel]], w_b)
                    improving = spec.better(cand, vals[dst_b])
                    updates_this_iter += int(np.count_nonzero(improving))
                    spec.reduce_at(vals, dst_b, cand)
                    touched[dst_b] = True
                    edges_this_iter += int(sel.sum())
            changed = spec.better(vals, old_vals)
            if first_visit:
                fresh = touched & ~visited
                visited |= touched
                activate = changed | fresh
            else:
                activate = changed
            new_frontier = np.flatnonzero(activate)
            info = IterationInfo(
                index=iteration,
                frontier_size=int(frontier.size),
                edges_scanned=edges_this_iter,
                updates=updates_this_iter,
                activated=int(new_frontier.size),
            )
            stats.record(info)
            report.counters["io_blocks"] += blocks_loaded
            if blocks_loaded:
                report.counters["io_iterations"] += 1
            report.counters["comp_edges"] += edges_this_iter
            report.counters["edges_processed"] += edges_this_iter
            report.counters["updates"] += updates_this_iter
            report.counters["iterations"] += 1
            report.breakdown["io"] += p_cost.io_latency
            report.breakdown["comp"] += edges_this_iter / p_cost.cpu_edge_rate
            active[:] = False
            active[new_frontier] = True
            frontier = new_frontier
            iteration += 1
        report.counters["io_bytes"] += streamed
        report.breakdown["io"] += streamed / p_cost.disk_bandwidth
        return vals

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Unmodified GridGraph: every iteration streams the grid from disk."""
        report = self._init_report(spec, "baseline", source)
        work = working_graph(self.g, spec)
        store = self._store_for(work)
        vals = spec.initial_values(self.g.num_vertices, source)
        frontier = spec.initial_frontier(self.g.num_vertices, source)
        stats = RunStats()
        self._stream_iterations(store, spec, vals, frontier, report, stats)
        return finish(report, vals, stats)

    def two_phase_run(
        self,
        proxy: Union[CoreGraph, Graph],
        spec: QuerySpec,
        source: Optional[int] = None,
        triangle: bool = False,
    ) -> SystemReport:
        """GridGraph with an in-memory Core Phase over the proxy graph.

        The paper performs the first phase "over [the] unpartitioned graph"
        after loading the CG from disk once; only the completion phase pays
        per-iteration grid I/O.
        """
        proxy_g = resolve_proxy(proxy)
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        p_cost = self.params
        n = self.g.num_vertices

        # Core Phase: one sequential load of the CG, then in-memory rounds.
        work_cg = working_graph(proxy_g, spec)
        cg_bytes = work_cg.num_edges * (p_cost.bytes_per_edge + 4)
        report.counters["io_bytes"] += cg_bytes
        report.breakdown["io"] += cg_bytes / p_cost.disk_bandwidth

        vals = spec.initial_values(n, source)
        frontier = spec.initial_frontier(n, source)
        phase1 = RunStats()
        for info in push_iterations(work_cg, spec, vals, frontier):
            phase1.record(info)
            report.counters["comp_edges"] += info.edges_scanned
            report.counters["edges_processed"] += info.edges_scanned
            report.counters["updates"] += info.updates
            report.breakdown["comp"] += info.edges_scanned / p_cost.cpu_edge_rate
        report.counters["phase1_iterations"] = phase1.iterations

        # Completion Phase: grid streaming from the impacted frontier.
        blocked, certified = completion_blocked(proxy, spec, source, vals, triangle)
        report.counters["certified_precise"] = certified
        impacted = phase2_frontier(spec, vals)
        report.counters["impacted"] = float(impacted.size)
        visited = np.zeros(n, dtype=bool)
        visited[impacted] = True
        work = working_graph(self.g, spec)
        store = self._store_for(work)
        phase2 = RunStats()
        self._stream_iterations(
            store, spec, vals, impacted, report, phase2,
            first_visit=True, visited=visited, blocked_dst=blocked,
        )
        return finish(report, vals, phase1.merged_with(phase2))
