"""Cross-checks between the scalar and vectorized engines."""

import numpy as np
import pytest

from repro.engines.frontier import evaluate_query
from repro.engines.scalar import scalar_evaluate
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC

ALL = (SSSP, SSNP, SSWP, VITERBI, REACH)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_engines_agree(spec, medium_graph):
    src = int(np.flatnonzero(medium_graph.out_degree() > 0)[0])
    a = scalar_evaluate(medium_graph, spec, src)
    b = evaluate_query(medium_graph, spec, src)
    assert np.allclose(
        np.nan_to_num(a, posinf=1e300, neginf=-1e300),
        np.nan_to_num(b, posinf=1e300, neginf=-1e300),
    )


def test_wcc_agree(medium_graph):
    a = scalar_evaluate(medium_graph, WCC)
    b = evaluate_query(medium_graph, WCC)
    assert np.array_equal(a, b)


def test_paper_example(paper_graph):
    from repro.datasets.example import PAPER_G_DISTANCES

    for s in range(9):
        assert np.array_equal(
            scalar_evaluate(paper_graph, SSSP, s), PAPER_G_DISTANCES[s]
        )


class _TieRequeueReach(type(REACH)):
    """REACH whose Needed test also passes on ties, so a cycle of reached
    vertices re-queues itself forever."""

    def better(self, a, b):
        return np.greater_equal(a, b)


def test_non_settling_spec_raises_instead_of_spinning():
    import dataclasses
    import time

    from repro.graph.builder import from_edges

    spec = _TieRequeueReach(**{
        f.name: getattr(REACH, f.name) for f in dataclasses.fields(REACH)
    })
    g = from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)], 5)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="REACH.*n\\*\\(n\\+1\\) = 30"):
        scalar_evaluate(g, spec, 0)
    assert time.perf_counter() - t0 < 1.0
