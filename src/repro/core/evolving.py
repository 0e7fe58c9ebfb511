"""Core-graph maintenance under graph evolution.

The authors' companion work (CommonGraph, JetStream, MEGA) targets evolving
graphs; this module works out what evolution means for core graphs:

* **Insertions are free for correctness.** The 2Phase algorithm is exact
  for *any* subgraph proxy, so a CG built yesterday still yields exact
  results on today's grown graph — only its *quality* (core-phase
  precision, hence speedup) decays as new solution paths appear outside it.
* **Deletions are not.** Exactness requires ``CG ⊆ G`` (core-phase values
  must stay on the pessimistic side of the lattice); a deleted full-graph
  edge must therefore be dropped from the CG too.
* **Theorem 1 certificates survive neither direction.** The hub values
  they compare against were computed on the build-time graph; insertions
  can improve true values below a stale bound and deletions can invalidate
  the hub values themselves, so the maintainer disables the triangle
  optimization after *any* churn until the next rebuild (see
  ``docs/theory.md``).

:class:`EvolvingCoreGraph` applies both rules, tracks staleness, and
rebuilds when a sampled precision probe drops below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.core.dispatch import build_cg
from repro.core.precision import measure_precision
from repro.core.twophase import TwoPhaseResult, two_phase
from repro.graph.csr import Graph
from repro.graph.mutate import add_edges, remove_edges
from repro.queries.base import QuerySpec


def _membership_mask(g: Graph, sub: Graph) -> np.ndarray:
    """Mask over ``g``'s edge array marking the edges present in ``sub``.

    Multiset-aware: if churn left ``g`` with parallel duplicates of a
    ``sub`` edge, only as many copies are marked as ``sub`` holds, so
    ``mask.sum() == sub.num_edges`` stays true.
    """

    def rows(x: Graph) -> np.ndarray:
        src = np.repeat(
            np.arange(x.num_vertices, dtype=np.int64), np.diff(x.offsets)
        )
        w = x.weights if x.weights is not None else np.zeros(x.num_edges)
        out = np.empty(
            x.num_edges, dtype=[("u", "i8"), ("v", "i8"), ("w", "f8")]
        )
        out["u"], out["v"], out["w"] = src, x.dst, w
        return out

    g_rows = rows(g)
    order = np.argsort(g_rows, kind="stable")
    gs = g_rows[order]
    occurrence = np.arange(len(gs)) - np.searchsorted(gs, gs, side="left")
    sub_sorted = np.sort(rows(sub))
    copies_in_sub = (
        np.searchsorted(sub_sorted, gs, side="right")
        - np.searchsorted(sub_sorted, gs, side="left")
    )
    mask = np.empty(len(gs), dtype=bool)
    mask[order] = occurrence < copies_in_sub
    return mask


@dataclass
class MaintenanceStats:
    """Churn bookkeeping since the last (re)build."""

    inserted_edges: int = 0
    deleted_edges: int = 0
    rebuilds: int = 0
    last_probe_precision: float = 100.0


class EvolvingCoreGraph:
    """A (graph, core graph) pair that absorbs edge churn safely."""

    def __init__(
        self,
        g: Graph,
        spec: QuerySpec,
        num_hubs: int = 20,
        rebuild_below_precision: float = 95.0,
        probe_sources: int = 3,
        probe_seed: int = 7,
        cg: Optional[CoreGraph] = None,
        triangle_safe: bool = True,
    ) -> None:
        self.spec = spec
        self.num_hubs = num_hubs
        self.rebuild_below_precision = rebuild_below_precision
        self.probe_sources = probe_sources
        self.probe_seed = probe_seed
        self.graph = g
        # ``cg`` (with ``triangle_safe``: do its hub values still describe
        # ``g``?) lets recovery resume a persisted pair without re-running
        # Algorithm 1/2; fresh construction identifies the CG from scratch.
        self.cg: CoreGraph = (
            cg if cg is not None else build_cg(g, spec, num_hubs=num_hubs)
        )
        self.stats = MaintenanceStats()
        self._triangle_safe = triangle_safe

    @property
    def triangle_safe(self) -> bool:
        """Whether Theorem-1 certificates are currently sound (no churn
        since the last build/rebuild)."""
        return self._triangle_safe

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def insert_edges(self, edges: Iterable) -> None:
        """Grow the full graph; the CG keeps its edges (still a subgraph).

        Exactness of 2Phase answers is unaffected, but Theorem 1
        certificates become unsound: a new edge can improve true values
        below a bound computed from the build-time hub values (e.g. a
        fresh shortcut toward a hub shrinks ``B[s]`` while the stored one
        doesn't), so the triangle pass is disabled until the next rebuild.
        """
        edges = list(edges)
        self.graph = add_edges(self.graph, edges)
        self.stats.inserted_edges += len(edges)
        if edges:
            self._realign_mask(self.cg.graph)
            self._triangle_safe = False

    def delete_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Shrink the full graph AND the CG (the ``CG ⊆ G`` invariant).

        Hub values become stale, so Theorem 1 certificates are disabled
        until the next rebuild.
        """
        pairs = list(pairs)
        self.graph, removed_full = remove_edges(self.graph, pairs)
        cg_graph, removed_cg = remove_edges(self.cg.graph, pairs)
        if removed_full.any() or removed_cg.any():
            self._realign_mask(cg_graph)
        self.stats.deleted_edges += int(removed_full.sum())
        if pairs:
            self._triangle_safe = False

    def _realign_mask(self, cg_graph: Graph) -> None:
        """Rebind the CG to the current graph with a freshly computed mask.

        ``add_edges``/``remove_edges`` re-index the CSR edge arrays, so
        the build-time ``edge_mask`` no longer addresses this graph's
        edges; recompute it as membership of the surviving CG edges.
        """
        self.cg = CoreGraph(
            graph=cg_graph,
            edge_mask=_membership_mask(self.graph, cg_graph),
            spec_name=self.cg.spec_name,
            hubs=self.cg.hubs,
            hub_data=self.cg.hub_data,
            connectivity_edges=self.cg.connectivity_edges,
            source_num_edges=self.graph.num_edges,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def answer(
        self, source: Optional[int] = None, triangle: bool = False
    ) -> TwoPhaseResult:
        """Exact 2Phase evaluation on the current graph."""
        use_triangle = triangle and self._triangle_safe
        return two_phase(
            self.graph, self.cg, self.spec, source, triangle=use_triangle
        )

    # ------------------------------------------------------------------
    # Maintenance policy
    # ------------------------------------------------------------------
    def probe_precision(self, sources: Optional[Sequence[int]] = None) -> float:
        """Sampled core-phase precision on the current graph."""
        if sources is None:
            rng = np.random.default_rng(self.probe_seed)
            candidates = np.flatnonzero(self.graph.out_degree() > 0)
            if candidates.size == 0:
                return 100.0
            k = min(self.probe_sources, candidates.size)
            sources = rng.choice(candidates, k, replace=False)
        report = measure_precision(
            self.graph, self.cg, self.spec, [int(s) for s in sources]
        )
        self.stats.last_probe_precision = report.pct_precise
        return report.pct_precise

    def maybe_rebuild(self) -> bool:
        """Probe quality; rebuild the CG when it fell below the threshold.

        Returns True when a rebuild happened.
        """
        if self.probe_precision() >= self.rebuild_below_precision:
            return False
        self.rebuild()
        return True

    def rebuild(self, budget=None, progress=None) -> None:
        """Re-identify the CG on the current graph (the one-time cost).

        ``budget`` (a :class:`repro.resilience.Budget`) bounds the hub
        queries; ``progress(done, total)`` is invoked after each hub so a
        supervised rebuilder can checkpoint between hubs.
        """
        self.adopt(
            build_cg(
                self.graph, self.spec, num_hubs=self.num_hubs,
                budget=budget, progress=progress,
            ),
            triangle_safe=True,
        )

    def adopt(self, cg: CoreGraph, triangle_safe: bool) -> None:
        """Replace the proxy with ``cg``, a rebuild's result.

        ``cg`` must be a subgraph of the current graph with its mask over
        this graph's edge array; ``triangle_safe`` says whether its hub
        values were computed on exactly this graph.
        """
        self.cg = cg
        self.stats.rebuilds += 1
        self._triangle_safe = triangle_safe

    def __repr__(self) -> str:
        return (
            f"EvolvingCoreGraph({self.spec.name}, |E|={self.graph.num_edges}, "
            f"cg={100 * self.cg.num_edges / max(1, self.graph.num_edges):.1f}%, "
            f"+{self.stats.inserted_edges}/-{self.stats.deleted_edges} edges, "
            f"{self.stats.rebuilds} rebuilds)"
        )
