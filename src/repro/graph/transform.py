"""Graph transforms: transpose, symmetrization, edge subgraphs."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import Graph


def reverse_edge_permutation(g: Graph) -> np.ndarray:
    """Map from transpose-edge index to original-edge index.

    ``reverse(g)`` stores the edge ``u -> v`` of ``g`` at transpose position
    ``j``; this function returns the array ``perm`` with ``perm[j]`` equal to
    the edge's index in ``g``'s CSR arrays. Algorithm 1 uses it (as
    :meth:`Graph.reverse_index`) to translate solution-path edges found by
    backward queries into forward edge ids.
    """
    return np.lexsort((g.edge_sources(), g.dst))


def transpose(g: Graph) -> Tuple[Graph, np.ndarray]:
    """``reverse(g)`` and the permutation it was sorted by.

    Edge ``j`` of the transpose is edge ``perm[j]`` of ``g`` reversed;
    ``perm`` is :func:`reverse_edge_permutation`. :meth:`Graph.reverse`
    keeps it as :meth:`Graph.reverse_index`, so it is sorted once.
    """
    src = g.edge_sources()
    order = reverse_edge_permutation(g)
    rdst = src[order]
    rweights = None if g.weights is None else g.weights[order]
    counts = np.bincount(g.dst, minlength=g.num_vertices)
    offsets = np.zeros(g.num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(offsets, rdst, rweights), order


def reverse(g: Graph) -> Graph:
    """The transpose graph ``G^T`` (every edge ``u -> v`` becomes ``v -> u``)."""
    return transpose(g)[0]


def symmetrize(g: Graph) -> Graph:
    """The undirected view: union of ``G`` and ``G^T`` (parallel edges kept).

    Used by WCC, which propagates component labels in both directions.
    """
    src = g.edge_sources()
    all_src = np.concatenate([src, g.dst])
    all_dst = np.concatenate([g.dst, src])
    weights = None
    if g.weights is not None:
        weights = np.concatenate([g.weights, g.weights])
    order = np.lexsort((all_dst, all_src))
    all_src, all_dst = all_src[order], all_dst[order]
    if weights is not None:
        weights = weights[order]
    counts = np.bincount(all_src, minlength=g.num_vertices)
    offsets = np.zeros(g.num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(offsets, all_dst, weights)


def edge_subgraph(g: Graph, keep: np.ndarray) -> Graph:
    """Subgraph over the same vertex set keeping edges where ``keep`` is True.

    ``keep`` is a boolean mask parallel to the CSR edge arrays. This is the
    operation that materializes a Core Graph: all vertices, a subset of edges.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != g.dst.shape:
        raise ValueError("keep mask must parallel the edge array")
    # A row's new offset is the number of kept edges before its old one.
    # Integer gathers through the kept ids beat boolean-mask indexing.
    kept = np.flatnonzero(keep)
    weights = None if g.weights is None else g.weights[kept]
    return Graph(np.searchsorted(kept, g.offsets), g.dst[kept], weights)


def vertex_induced_subgraph(g: Graph, keep_vertices: np.ndarray) -> Graph:
    """Subgraph keeping the same vertex ids but only edges whose endpoints
    both satisfy ``keep_vertices`` (a boolean mask of length n).

    Vertex ids are preserved — excluded vertices simply become isolated —
    which is the convention every proxy graph in this package follows
    (point-to-point pruning uses this to stay comparable with full-graph
    query results).
    """
    keep_vertices = np.asarray(keep_vertices, dtype=bool)
    if keep_vertices.shape != (g.num_vertices,):
        raise ValueError("keep_vertices must be a length-n boolean mask")
    src = g.edge_sources()
    keep_edge = keep_vertices[src] & keep_vertices[g.dst]
    return edge_subgraph(g, keep_edge)


def drop_weights(g: Graph) -> Graph:
    """Unweighted copy of ``g`` (shares index arrays)."""
    return Graph(g.offsets, g.dst, None)


def with_weights(g: Graph, weights: Optional[np.ndarray]) -> Graph:
    """Copy of ``g`` with a replacement weight array (shares index arrays)."""
    return Graph(g.offsets, g.dst, weights)
