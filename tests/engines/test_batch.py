"""The two batch maps: one row per source, from the single-source path."""

import numpy as np
import pytest

from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase, two_phase_batch
from repro.engines.frontier import evaluate_batch, evaluate_query
from repro.graph.builder import from_edges
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC

SOURCES = [0, 5, 17, 5]


@pytest.mark.parametrize(
    "spec", (SSSP, SSNP, SSWP, VITERBI, REACH), ids=lambda s: s.name
)
def test_batch_matches_individual(spec, medium_graph):
    g = medium_graph
    cg = build_cg(g, spec, num_hubs=4)
    direct = evaluate_batch(g, spec, SOURCES)
    batch = two_phase_batch(g, cg, spec, SOURCES)
    assert direct.shape == batch.values.shape == (4, g.num_vertices)
    edges = 0
    for i, s in enumerate(SOURCES):
        assert np.array_equal(direct[i], evaluate_query(g, spec, s))
        single = two_phase(g, cg, spec, s)
        assert np.array_equal(batch.values[i], single.values)
        edges += single.total.edges_processed
    assert batch.total.edges_processed == edges


def test_single_source_batch(medium_graph):
    batch = evaluate_batch(medium_graph, SSSP, [7])
    assert np.array_equal(batch[0], evaluate_query(medium_graph, SSSP, 7))


def test_duplicate_sources(medium_graph):
    batch = evaluate_batch(medium_graph, SSSP, [3, 3])
    assert np.array_equal(batch[0], batch[1])


def test_wcc_rejected(medium_graph):
    cg = build_cg(medium_graph, SSSP, num_hubs=2)
    with pytest.raises(ValueError):
        evaluate_batch(medium_graph, WCC, [0])
    with pytest.raises(ValueError):
        two_phase_batch(medium_graph, cg, WCC, [0])


def test_out_of_range_source(medium_graph):
    cg = build_cg(medium_graph, SSSP, num_hubs=2)
    with pytest.raises(ValueError):
        evaluate_batch(medium_graph, SSSP, [10**9])
    with pytest.raises(ValueError):
        two_phase_batch(medium_graph, cg, SSSP, [10**9])


def test_proxy_on_another_vertex_set_rejected(medium_graph):
    proxy = from_edges([(0, 1, 1.0)], num_vertices=2)
    with pytest.raises(ValueError):
        two_phase_batch(medium_graph, proxy, SSSP, [0])
