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
  the hub values themselves, so *any* churn disables the triangle
  optimization until the next rebuild (see ``docs/theory.md``).

A batch is therefore a pure function of ``(graph, cg, triangle_safe)``:
:func:`advance` applies both rules, :func:`rebase` fits a proxy built on an
older graph to the current one, and :func:`probe_precision` samples the
proxy's quality. :class:`EvolvingCoreGraph` is a thin stateful shell over
them that tracks churn and rebuilds when a probe drops below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.core.dispatch import build_cg
from repro.core.precision import measure_precision
from repro.core.twophase import TwoPhaseResult, two_phase
from repro.graph.csr import Graph
from repro.graph.mutate import add_edges, remove_edges
from repro.graph.transform import edge_subgraph
from repro.queries.base import QuerySpec

#: Sources a precision probe samples, and the seed that picks them.
PROBE_SOURCES = 3
PROBE_SEED = 7
#: Default probe precision (%) below which the CG is rebuilt.
REBUILD_BELOW_PRECISION = 95.0


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


class Advance(NamedTuple):
    """The state after one batch; ``deleted`` counts full-graph edges
    the batch removed."""

    graph: Graph
    cg: CoreGraph
    triangle_safe: bool
    deleted: int


def advance(graph: Graph, cg: CoreGraph, triangle_safe: bool,
            inserts: Iterable = (),
            deletes: Iterable[Tuple[int, int]] = ()) -> Advance:
    """One batch, ``inserts`` then ``deletes`` (WAL replay relies on that
    order), under the rules above: the CG loses every copy of a deleted
    pair, and any non-empty batch turns ``triangle_safe`` off. A step
    that changes the graph re-indexes its CSR edge arrays, so the CG's
    mask is then recomputed as membership of the surviving CG edges.
    """
    inserts = list(inserts)
    deletes = list(deletes)
    # Each step leaves a consistent (graph, cg) pair. One realign per
    # batch instead of per step halves a batch's cost; ROADMAP item 1(0)
    # says why that waits.
    if inserts:
        graph = add_edges(graph, inserts)
        cg = _realigned(graph, cg.graph, cg)
    graph, removed = remove_edges(graph, deletes)
    cg_graph, removed_cg = remove_edges(cg.graph, deletes)
    if removed.any() or removed_cg.any():
        cg = _realigned(graph, cg_graph, cg)
    return Advance(
        graph, cg, triangle_safe and not (inserts or deletes),
        int(removed.sum()),
    )


def _realigned(graph: Graph, cg_graph: Graph, cg: CoreGraph) -> CoreGraph:
    """``cg`` rebound to ``cg_graph`` (a subgraph of ``graph``), with its
    mask recomputed over ``graph``'s edge array."""
    return CoreGraph(
        graph=cg_graph,
        edge_mask=_membership_mask(graph, cg_graph),
        spec_name=cg.spec_name,
        hubs=cg.hubs,
        hub_data=cg.hub_data,
        connectivity_edges=cg.connectivity_edges,
        source_num_edges=graph.num_edges,
    )


def rebase(current: Graph, proxy: CoreGraph) -> CoreGraph:
    """Fit a proxy built on an older graph to ``current``.

    One weighted multiset join: the CG keeps exactly the ``(u, v, w)``
    edges of ``proxy`` that ``current`` still holds (a pair deleted and
    re-inserted at another weight is gone), so the result is a subgraph
    of ``current`` by construction. Hub values are stale either way, so
    they are discarded.
    """
    mask = _membership_mask(current, proxy.graph)
    return CoreGraph(
        graph=edge_subgraph(current, mask),
        edge_mask=mask,
        spec_name=proxy.spec_name,
        hubs=proxy.hubs,
        hub_data=[],
        connectivity_edges=proxy.connectivity_edges,
        source_num_edges=current.num_edges,
    )


def probe_precision(graph: Graph, cg: CoreGraph, spec: QuerySpec,
                    sources: Optional[Sequence[int]] = None) -> float:
    """Sampled core-phase precision (%) of ``cg`` on ``graph``; without
    ``sources``, :data:`PROBE_SOURCES` vertices with out-edges are drawn
    with :data:`PROBE_SEED`, so equal inputs give equal readings."""
    if sources is None:
        rng = np.random.default_rng(PROBE_SEED)
        candidates = np.flatnonzero(graph.out_degree() > 0)
        if candidates.size == 0:
            return 100.0
        k = min(PROBE_SOURCES, candidates.size)
        sources = rng.choice(candidates, k, replace=False)
    report = measure_precision(graph, cg, spec, [int(s) for s in sources])
    return report.pct_precise


@dataclass
class MaintenanceStats:
    """Churn bookkeeping since the last (re)build."""

    inserted_edges: int = 0
    deleted_edges: int = 0
    rebuilds: int = 0
    last_probe_precision: float = 100.0


class EvolvingCoreGraph:
    """A (graph, core graph) pair that absorbs edge churn safely: a
    stateful shell over :func:`advance` and :func:`probe_precision`."""

    def __init__(
        self,
        g: Graph,
        spec: QuerySpec,
        num_hubs: int = 20,
        rebuild_below_precision: float = REBUILD_BELOW_PRECISION,
        cg: Optional[CoreGraph] = None,
    ) -> None:
        self.spec = spec
        self.num_hubs = num_hubs
        self.rebuild_below_precision = rebuild_below_precision
        self.graph = g
        # ``cg``, a CG already identified on ``g``, skips Algorithm 1/2.
        self.cg: CoreGraph = (
            cg if cg is not None else build_cg(g, spec, num_hubs=num_hubs)
        )
        self.stats = MaintenanceStats()
        #: Whether Theorem-1 certificates are sound (no churn since the
        #: last build/rebuild).
        self.triangle_safe = True

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def insert_edges(self, edges: Iterable) -> None:
        """Grow the full graph; the CG keeps its edges (see :func:`advance`)."""
        edges = list(edges)
        self._advance(edges, ())
        self.stats.inserted_edges += len(edges)

    def delete_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Shrink the full graph AND the CG (see :func:`advance`)."""
        self.stats.deleted_edges += self._advance((), pairs)

    def _advance(self, inserts: Iterable, deletes: Iterable) -> int:
        self.graph, self.cg, self.triangle_safe, deleted = advance(
            self.graph, self.cg, self.triangle_safe, inserts, deletes
        )
        return deleted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def answer(
        self, source: Optional[int] = None, triangle: bool = False
    ) -> TwoPhaseResult:
        """Exact 2Phase evaluation on the current graph."""
        use_triangle = triangle and self.triangle_safe
        return two_phase(
            self.graph, self.cg, self.spec, source, triangle=use_triangle
        )

    # ------------------------------------------------------------------
    # Maintenance policy
    # ------------------------------------------------------------------
    def probe_precision(self, sources: Optional[Sequence[int]] = None) -> float:
        """Sampled core-phase precision on the current graph."""
        pct = probe_precision(self.graph, self.cg, self.spec, sources)
        self.stats.last_probe_precision = pct
        return pct

    def maybe_rebuild(self) -> bool:
        """Probe quality; rebuild the CG when it fell below the threshold.

        Returns True when a rebuild happened.
        """
        if self.probe_precision() >= self.rebuild_below_precision:
            return False
        self.rebuild()
        return True

    def rebuild(self) -> None:
        """Re-identify the CG on the current graph (the one-time cost)."""
        self.cg = build_cg(self.graph, self.spec, num_hubs=self.num_hubs)
        self.stats.rebuilds += 1
        self.triangle_safe = True

    def __repr__(self) -> str:
        return (
            f"EvolvingCoreGraph({self.spec.name}, |E|={self.graph.num_edges}, "
            f"cg={100 * self.cg.num_edges / max(1, self.graph.num_edges):.1f}%, "
            f"+{self.stats.inserted_edges}/-{self.stats.deleted_edges} edges, "
            f"{self.stats.rebuilds} rebuilds)"
        )
