"""Reduced Graph baseline (input reduction, Kusum et al., HPDC '16).

The paper's §4 criticism of this prior method: "transformations eliminate
vertices and graph size reductions are limited. [The] smallest reduced
graph had around 50% of the edges and it can only be used to evaluate
queries for [a] subset of vertices in the full graph." This module
implements the two classic property-preserving transformations so that
criticism can be measured (the ``suppl_reduced`` experiment):

* **degree-0 pruning** — vertices with no edges leave the query-relevant
  graph entirely;
* **chain splicing** — a vertex with exactly one in-edge and one out-edge
  (and not a self-cycle) is removed, its two edges fused into a shortcut
  whose weight combines per the query's ⊕ (sum for SSSP, min for SSWP, max
  for SSNP, product for Viterbi).

Values computed on the reduced graph are exact *for retained vertices
only* — eliminated vertices are simply not queryable, which is the
fundamental contrast with core graphs (all vertices kept).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import from_arrays
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec


@dataclass
class ReducedGraph:
    """A vertex-eliminating reduction of a graph for one query kind.

    ``reduced_id[v]`` is ``v``'s id in the reduced graph, or -1 if ``v``
    was eliminated (unqueryable). ``graph`` carries weights in the spec's
    *transformed* space (probabilities for Viterbi).
    """

    graph: Graph
    reduced_id: np.ndarray
    retained: np.ndarray  # original ids of the reduced graph's vertices
    spec_name: str
    source_num_edges: int
    source_num_vertices: int

    @property
    def edge_fraction(self) -> float:
        if self.source_num_edges == 0:
            return 0.0
        return self.graph.num_edges / self.source_num_edges

    @property
    def queryable_fraction(self) -> float:
        return self.retained.size / max(1, self.source_num_vertices)

    def is_queryable(self, v: int) -> bool:
        return self.reduced_id[v] >= 0

    def translate_values(self, reduced_vals: np.ndarray,
                         fill: float) -> np.ndarray:
        """Expand reduced-graph values back to original vertex ids.

        Eliminated vertices receive ``fill`` (they have no answer).
        """
        out = np.full(self.source_num_vertices, fill, dtype=np.float64)
        out[self.retained] = reduced_vals
        return out


def build_reduced_graph(
    g: Graph, spec: QuerySpec, max_rounds: int = 10
) -> ReducedGraph:
    """Apply degree-0 pruning and chain splicing until a fixed point."""
    if spec.multi_source:
        raise ValueError("input reduction targets single-source queries")
    weights = spec.weight_transform(g.edge_weights())
    src = g.edge_sources().copy()
    dst = g.dst.copy()
    weights = weights.copy()
    n = g.num_vertices
    alive = np.ones(n, dtype=bool)

    for _ in range(max_rounds):
        changed = False
        out_deg = np.bincount(src, minlength=n)
        in_deg = np.bincount(dst, minlength=n)
        # Degree-0 pruning.
        isolated = alive & (out_deg == 0) & (in_deg == 0)
        if isolated.any():
            alive[isolated] = False
            changed = True
        # Chain splicing: in-degree 1, out-degree 1, not a self-cycle.
        chain = alive & (out_deg == 1) & (in_deg == 1)
        if chain.any():
            # Locate each chain vertex's unique in- and out-edge.
            in_edge = np.full(n, -1, dtype=np.int64)
            out_edge = np.full(n, -1, dtype=np.int64)
            for e in range(src.size):
                if chain[dst[e]]:
                    in_edge[dst[e]] = e
                if chain[src[e]]:
                    out_edge[src[e]] = e
            spliced = np.zeros(src.size, dtype=bool)
            new_edges = []
            for v in np.flatnonzero(chain):
                e_in, e_out = int(in_edge[v]), int(out_edge[v])
                if e_in < 0 or e_out < 0 or spliced[e_in] or spliced[e_out]:
                    continue
                u, w_vertex = int(src[e_in]), int(dst[e_out])
                if u == v or w_vertex == v or u == w_vertex:
                    continue  # would create a self-loop; keep the chain
                combined = float(
                    spec.propagate(
                        np.asarray([weights[e_in]]),
                        np.asarray([weights[e_out]]),
                    )[0]
                )
                spliced[e_in] = spliced[e_out] = True
                alive[v] = False
                new_edges.append((u, w_vertex, combined))
                changed = True
            if new_edges:
                keep = ~spliced
                src = np.concatenate(
                    [src[keep], [e[0] for e in new_edges]]
                ).astype(np.int64)
                dst = np.concatenate(
                    [dst[keep], [e[1] for e in new_edges]]
                ).astype(np.int64)
                weights = np.concatenate(
                    [weights[keep], [e[2] for e in new_edges]]
                )
        if not changed:
            break

    retained = np.flatnonzero(alive)
    reduced_id = np.full(n, -1, dtype=np.int64)
    reduced_id[retained] = np.arange(retained.size)
    reduced = from_arrays(
        retained.size, reduced_id[src], reduced_id[dst], weights
    )
    return ReducedGraph(
        graph=reduced,
        reduced_id=reduced_id,
        retained=retained,
        spec_name=spec.name,
        source_num_edges=g.num_edges,
        source_num_vertices=n,
    )
