"""Property-based differential tests: frontier engine vs reference solvers.

These pin the semantic core of the whole reproduction: every query kind's
iterative evaluation must agree with an independent label-setting solver on
arbitrary graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.frontier import evaluate_query
from repro.engines.scalar import scalar_evaluate
from repro.graph.builder import from_arrays
from repro.queries.reference import reference_solve
from repro.queries.specs import BFS, REACH, SSNP, SSSP, SSWP, VITERBI, WCC


@st.composite
def graphs_and_source(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    m = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    # integer-ish weights keep float comparisons exact for SSSP/SSNP/SSWP
    weights = rng.integers(1, 8, m).astype(float)
    g = from_arrays(n, src, dst, weights)
    source = draw(st.integers(0, n - 1))
    return g, source


@pytest.mark.parametrize(
    "spec", (SSSP, SSNP, SSWP, VITERBI, REACH), ids=lambda s: s.name
)
@given(data=graphs_and_source())
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference(spec, data):
    g, source = data
    got = evaluate_query(g, spec, source)
    ref = reference_solve(g, spec, source)
    assert np.allclose(
        np.nan_to_num(got, posinf=1e300, neginf=-1e300),
        np.nan_to_num(ref, posinf=1e300, neginf=-1e300),
        rtol=1e-9,
    )


@given(data=graphs_and_source())
@settings(max_examples=40, deadline=None)
def test_wcc_matches_union_find(data):
    g, _ = data
    assert np.array_equal(evaluate_query(g, WCC), reference_solve(g, WCC))


@pytest.mark.parametrize(
    "spec", (SSSP, SSNP, SSWP, VITERBI, REACH, BFS), ids=lambda s: s.name
)
@given(data=graphs_and_source())
@settings(max_examples=30, deadline=None)
def test_vectorized_matches_scalar(spec, data):
    g, source = data
    assert np.array_equal(
        evaluate_query(g, spec, source), scalar_evaluate(g, spec, source)
    )


@given(data=graphs_and_source())
@settings(max_examples=30, deadline=None)
def test_monotone_under_edge_removal(data):
    """Removing edges can only make values worse — the subgraph inequality
    that Theorem 1's proof relies on (CG values >= G values for MIN)."""
    g, source = data
    if g.num_edges == 0:
        return
    full = evaluate_query(g, SSSP, source)
    from repro.graph.transform import edge_subgraph

    mask = np.ones(g.num_edges, dtype=bool)
    mask[:: 2] = False  # drop every other edge
    sub_vals = evaluate_query(edge_subgraph(g, mask), SSSP, source)
    assert np.all(sub_vals >= full)
