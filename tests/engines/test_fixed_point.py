"""Fixed-point verification: every engine's output satisfies the
definitional convergence condition (no edge can improve any value)."""

from itertools import islice

import numpy as np
import pytest

from repro.engines.frontier import (
    evaluate_batch,
    evaluate_query,
    is_fixed_point,
)
from repro.engines.scalar import scalar_evaluate
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC

SPECS = (SSSP, SSNP, SSWP, VITERBI, REACH)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_push_engine_reaches_fixed_point(spec, medium_graph):
    vals = evaluate_query(medium_graph, spec, 3)
    assert is_fixed_point(medium_graph, spec, vals)


def test_wcc_fixed_point(medium_graph):
    vals = evaluate_query(medium_graph, WCC)
    assert is_fixed_point(medium_graph, WCC, vals)


@pytest.mark.parametrize("engine", [
    lambda g, s: scalar_evaluate(g, SSSP, s),
    lambda g, s: evaluate_batch(g, SSSP, [s])[0],
], ids=["scalar", "batch"])
def test_alternative_engines_reach_fixed_point(engine, medium_graph):
    vals = engine(medium_graph, 3)
    assert is_fixed_point(medium_graph, SSSP, vals)


def test_non_fixed_point_detected(medium_graph):
    vals = SSSP.initial_values(medium_graph.num_vertices, 3)
    # only the source is set: its out-edges can clearly improve neighbors
    assert not is_fixed_point(medium_graph, SSSP, vals)


def test_truncated_run_detected(medium_graph):
    from repro.engines.frontier import push_iterations

    vals = SSSP.initial_values(medium_graph.num_vertices, 3)
    list(islice(push_iterations(medium_graph, SSSP, vals, np.array([3])), 1))
    assert not is_fixed_point(medium_graph, SSSP, vals)


def test_empty_graph_trivially_converged():
    from repro.graph.builder import from_edges

    g = from_edges([], num_vertices=3)
    assert is_fixed_point(g, SSSP, SSSP.initial_values(3, 0))
