"""Property-based tests for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_arrays, from_edges
from repro.graph.csr import Graph
from repro.graph.transform import (
    edge_subgraph,
    reverse,
    reverse_edge_permutation,
    symmetrize,
)


@st.composite
def edge_lists(draw, max_n=12, max_m=40, weighted=True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if weighted:
            w = draw(st.floats(0.5, 10.0, allow_nan=False))
            edges.append((u, v, w))
        else:
            edges.append((u, v))
    return n, edges


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_preserves_multiset_of_edges(data):
    n, edges = data
    g = from_edges(edges, num_vertices=n)
    assert sorted((u, v) for u, v, _ in g.iter_edges()) == sorted(
        (u, v) for u, v, _ in edges
    )


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_reverse_involution(data):
    n, edges = data
    g = from_edges(edges, num_vertices=n)
    assert reverse(reverse(g)) == g


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_reverse_permutation_bijective(data):
    n, edges = data
    g = from_edges(edges, num_vertices=n)
    perm = reverse_edge_permutation(g)
    assert np.array_equal(np.sort(perm), np.arange(g.num_edges))


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_symmetrize_degree_sum(data):
    n, edges = data
    g = from_edges(edges, num_vertices=n)
    sym = symmetrize(g)
    assert np.array_equal(
        sym.out_degree(), g.out_degree() + g.in_degree()
    )


@given(edge_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_edge_subgraph_edge_count(data, seed):
    n, edges = data
    g = from_edges(edges, num_vertices=n)
    rng = np.random.default_rng(seed)
    mask = rng.random(g.num_edges) < 0.5
    sub = edge_subgraph(g, mask)
    assert sub.num_edges == int(mask.sum())
    assert sub.num_vertices == n


def edge_subgraph_oracle(g, keep):
    """The row-expansion form: per-edge sources, then a bincount."""
    src = g.edge_sources()[keep]
    weights = None if g.weights is None else g.weights[keep]
    counts = np.bincount(src, minlength=g.num_vertices)
    offsets = np.zeros(g.num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(offsets, g.dst[keep], weights)


@given(
    st.integers(1, 12), st.integers(0, 40), st.sampled_from(
        ["random", "none", "all"]), st.booleans(), st.integers(0, 2**31 - 1)
)
@settings(max_examples=100, deadline=None)
def test_edge_subgraph_matches_row_expansion(n, m, masking, weighted, seed):
    """Byte-identical CSR arrays on multigraphs (pairs drawn with
    repetition), rows left empty, and all-False / all-True masks."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    g = from_arrays(n, src, dst, rng.random(m) if weighted else None)
    keep = {
        "random": rng.random(m) < 0.5,
        "none": np.zeros(m, dtype=bool),
        "all": np.ones(m, dtype=bool),
    }[masking]
    sub, ref = edge_subgraph(g, keep), edge_subgraph_oracle(g, keep)
    for a, b in ((sub.offsets, ref.offsets), (sub.dst, ref.dst)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if weighted:
        assert sub.weights.tobytes() == ref.weights.tobytes()
    else:
        assert sub.weights is None


def _in_edge_index_oracle(g):
    """Per edge of ``g.reverse()``, its index in ``g``, found by sorting:
    ``reverse_edge_permutation(g)``, or, when ``g.reverse()``'s rows are
    not in that order (``g`` is a transpose of a graph with unsorted
    rows), the k-th edge of ``g`` by (dst, src) paired with the k-th edge
    of ``g.reverse()`` by (row, dst)."""
    rev = g.reverse()
    idx = reverse_edge_permutation(g)
    if not np.array_equal(rev.dst, g.edge_sources()[idx]):
        order = np.lexsort((rev.dst, rev.edge_sources()))
        matched = np.empty_like(idx)
        matched[order] = idx
        idx = matched
    return idx


@st.composite
def csr_multigraphs(draw):
    """CSR arrays taken as given: parallel edges with unequal weights,
    self loops, empty rows, and rows whose destinations are unsorted."""
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return Graph(offsets, dst, rng.integers(1, 4, m).astype(float))


@given(csr_multigraphs())
@settings(max_examples=100, deadline=None)
def test_reverse_index_matches_the_sorted_definition(g):
    # g sorts to build its transpose; the transpose inverts that sort.
    for h in (g.reverse(), g):
        idx = h.reverse_index()
        assert np.array_equal(idx, _in_edge_index_oracle(h))
        rev = h.reverse()
        assert np.array_equal(rev.dst, h.edge_sources()[idx])
        assert np.array_equal(rev.edge_sources(), h.dst[idx])
        assert np.array_equal(rev.edge_weights(), h.edge_weights()[idx])
    assert g.reverse().reverse() is g
