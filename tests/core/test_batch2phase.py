"""Tests for two_phase_batch, the map of two_phase over a source list."""

import numpy as np
import pytest

from repro.core.identify import build_core_graph
from repro.core.twophase import two_phase, two_phase_batch
from repro.core.unweighted import build_unweighted_core_graph
from repro.engines.frontier import evaluate_query
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC

SPECS = (SSSP, SSNP, SSWP, VITERBI)


@pytest.fixture(scope="module")
def setup():
    from repro.generators.rmat import rmat
    from repro.graph.weights import ligra_weights

    g = ligra_weights(rmat(9, 9, seed=191), seed=192)
    cgs = {s.name: build_core_graph(g, s, num_hubs=5) for s in SPECS}
    cgs["REACH"] = build_unweighted_core_graph(g, num_hubs=5)
    return g, cgs


@pytest.mark.parametrize("spec", SPECS + (REACH,), ids=lambda s: s.name)
def test_rows_match_per_query_two_phase(setup, spec):
    g, cgs = setup
    sources = [1, 17, 99, 203]
    batch = two_phase_batch(g, cgs[spec.name], spec, sources)
    for i, s in enumerate(sources):
        single = two_phase(g, cgs[spec.name], spec, s)
        assert np.array_equal(batch.values[i], single.values), (spec.name, s)


def test_rows_match_truth(setup):
    g, cgs = setup
    sources = [3, 4, 5]
    batch = two_phase_batch(g, cgs["SSSP"], SSSP, sources)
    for i, s in enumerate(sources):
        assert np.array_equal(batch.values[i], evaluate_query(g, SSSP, s))


def test_duplicate_sources(setup):
    g, cgs = setup
    batch = two_phase_batch(g, cgs["SSSP"], SSSP, [7, 7])
    assert np.array_equal(batch.values[0], batch.values[1])


def test_validation(setup):
    g, cgs = setup
    with pytest.raises(ValueError):
        two_phase_batch(g, cgs["SSSP"], WCC, [0])
    with pytest.raises(ValueError):
        two_phase_batch(g, cgs["SSSP"], SSSP, [10**9])
    from repro.graph.builder import from_edges

    with pytest.raises(ValueError):
        two_phase_batch(
            g, from_edges([(0, 1, 1.0)], num_vertices=2), SSSP, [0]
        )


def test_stats_split(setup):
    g, cgs = setup
    batch = two_phase_batch(g, cgs["SSSP"], SSSP, [1, 2])
    assert batch.phase1.edges_processed > 0
    assert batch.phase2.edges_processed > 0
    assert batch.total.iterations == (
        batch.phase1.iterations + batch.phase2.iterations
    )
