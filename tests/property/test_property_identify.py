"""Algorithm 1 against a reference loop of plain full-graph queries.

``build_core_graph`` answers hub ``i``'s queries by 2Phase over the CG of
the hubs before it. 2Phase is exact for any proxy, so every output must
equal the loop below, which evaluates each hub's forward and backward
query on the whole graph (or its transpose) with ``evaluate_query``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import add_connectivity_edges
from repro.core.identify import build_core_graph
from repro.engines.frontier import evaluate_query
from repro.graph.builder import from_arrays
from repro.graph.degree import top_degree_vertices
from repro.graph.transform import reverse_edge_permutation
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI

KINDS = (SSSP, SSWP, SSNP, VITERBI, REACH)


def reference_build(g, spec, hubs, include_backward):
    """Algorithm 1 with one ``evaluate_query`` per hub query."""
    grev = g.reverse()
    perm = reverse_edge_permutation(g)
    fw = spec.weight_transform(g.edge_weights())
    bw = spec.weight_transform(grev.edge_weights())
    fsrc, bsrc = g.edge_sources(), grev.edge_sources()
    mask = np.zeros(g.num_edges, dtype=bool)
    selection = np.zeros(g.num_edges, dtype=np.int32)
    growth, values = [], []
    for h in hubs:
        fvals = evaluate_query(g, spec, int(h))
        fmask = spec.on_solution_path(fvals[fsrc], fw, fvals[g.dst])
        mask |= fmask
        selection += fmask
        if include_backward:
            bvals = evaluate_query(grev, spec, int(h))
            bmask = spec.on_solution_path(bvals[bsrc], bw, bvals[grev.dst])
            mask[perm[bmask]] = True
            values.append((int(h), fvals, bvals))
        growth.append(int(mask.sum()))
    connectivity = add_connectivity_edges(g, mask, spec)
    return mask, selection, growth, values, connectivity


@st.composite
def multigraphs(draw):
    """Random multigraphs: parallel edges, tied weights, sinks, isolated
    vertices (every id in ``[0, n)`` exists whether or not an edge uses it)."""
    n = draw(st.integers(min_value=1, max_value=14))
    m = draw(st.integers(min_value=0, max_value=45))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    # A few repeated edges, some with the weight they already had.
    dup = rng.integers(0, m, draw(st.integers(0, 8)) if m else 0)
    src = np.concatenate([src, src[dup]])
    dst = np.concatenate([dst, dst[dup]])
    weights = rng.integers(1, 4, src.size).astype(float)
    return from_arrays(n, src, dst, weights)


@st.composite
def builds(draw):
    g = draw(multigraphs())
    if draw(st.booleans()):
        hubs = None
        num_hubs = draw(st.integers(1, 5))
    else:
        # Explicit hubs, duplicates and zero out-degree vertices included.
        hubs = draw(st.lists(st.integers(0, g.num_vertices - 1),
                             min_size=1, max_size=6))
        num_hubs = len(hubs)
    return g, hubs, num_hubs, draw(st.booleans())


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.name)
@given(case=builds())
@settings(max_examples=40, deadline=None)
def test_build_matches_full_graph_queries(spec, case):
    g, hubs, num_hubs, include_backward = case
    cg = build_core_graph(
        g, spec, num_hubs=num_hubs, hubs=hubs, track_growth=True,
        track_selection=True, include_backward=include_backward,
    )
    order = top_degree_vertices(g, num_hubs) if hubs is None else hubs
    mask, selection, growth, values, connectivity = reference_build(
        g, spec, order, include_backward
    )
    assert np.array_equal(cg.edge_mask, mask)
    assert np.array_equal(cg.forward_selection_counts, selection)
    assert cg.growth.tolist() == growth
    assert cg.connectivity_edges == connectivity
    assert len(cg.hub_data) == len(values)
    for hd, (hub, fvals, bvals) in zip(cg.hub_data, values):
        assert hd.hub == hub
        assert np.array_equal(hd.forward, fvals)
        assert np.array_equal(hd.backward, bvals)
