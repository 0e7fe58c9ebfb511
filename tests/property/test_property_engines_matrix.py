"""Property-based equivalence of all evaluation engines.

The synchronous push engine, its batch map, and the scalar worklist
engine must converge to identical fixed points on arbitrary graphs —
the strongest guardrail around the evaluation substrate that every
experiment stands on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.frontier import evaluate_batch, evaluate_query
from repro.engines.scalar import scalar_evaluate
from repro.graph.builder import from_arrays
from repro.queries.specs import BFS, REACH, SSNP, SSSP, SSWP, VITERBI

SPECS = (SSSP, SSNP, SSWP, VITERBI, REACH, BFS)


@st.composite
def graph_and_source(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=0, max_value=50))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weights = rng.integers(1, 8, m).astype(float)
    g = from_arrays(n, src, dst, weights)
    return g, draw(st.integers(0, n - 1))


def _norm(a):
    return np.nan_to_num(a, posinf=1e300, neginf=-1e300)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@given(data=graph_and_source())
@settings(max_examples=30, deadline=None)
def test_all_engines_agree(spec, data):
    g, source = data
    sync = evaluate_query(g, spec, source)
    for result in (
        evaluate_batch(g, spec, [source])[0],
        scalar_evaluate(g, spec, source),
    ):
        assert np.allclose(_norm(result), _norm(sync), rtol=1e-9)


@given(data=graph_and_source())
@settings(max_examples=25, deadline=None)
def test_batch_of_many_sources(data):
    g, source = data
    sources = list({source, 0, g.num_vertices - 1})
    batch = evaluate_batch(g, SSSP, sources)
    for i, s in enumerate(sources):
        assert np.array_equal(batch[i], evaluate_query(g, SSSP, s))
