"""Tests for the shared 2Phase plumbing the system simulators use."""

import numpy as np
import pytest

from repro.core.identify import build_core_graph
from repro.core.twophase import completion_blocked, phase2_frontier
from repro.engines.frontier import evaluate_query, symmetric_view
from repro.queries.specs import REACH, SSSP, WCC
from repro.systems.common import (
    proxy_transfer_bytes,
    resolve_proxy,
    working_graph,
)


@pytest.fixture(scope="module")
def setup():
    from repro.generators.random_graphs import random_weighted_graph

    g = random_weighted_graph(150, 1200, seed=91)
    return g, build_core_graph(g, SSSP, num_hubs=4)


def test_resolve_proxy(setup):
    g, cg = setup
    assert resolve_proxy(cg) is cg.graph
    assert resolve_proxy(g) is g


def test_working_graph(setup):
    g, _ = setup
    assert working_graph(g, SSSP) is g
    sym = working_graph(g, WCC)
    assert sym.num_edges == 2 * g.num_edges
    assert sym is symmetric_view(g)  # cached


def test_phase2_frontier_single_source(setup):
    g, cg = setup
    vals = evaluate_query(cg.graph, SSSP, 0)
    impacted = phase2_frontier(SSSP, vals)
    assert np.array_equal(impacted, np.flatnonzero(np.isfinite(vals)))


def test_phase2_frontier_multi_source(setup):
    g, _ = setup
    vals = np.arange(g.num_vertices, dtype=float)
    assert phase2_frontier(WCC, vals).size == g.num_vertices


class TestCompletionBlocked:
    def test_none_without_saturation_or_triangle(self, setup):
        g, cg = setup
        vals = evaluate_query(cg.graph, SSSP, 0)
        blocked, certified = completion_blocked(cg, SSSP, 0, vals, False)
        assert blocked is None and certified == 0

    def test_saturation_always_applies_for_reach(self, setup):
        g, _ = setup
        from repro.core.unweighted import build_unweighted_core_graph

        gcg = build_unweighted_core_graph(g, num_hubs=4)
        vals = evaluate_query(gcg.graph, REACH, 0)
        blocked, certified = completion_blocked(gcg, REACH, 0, vals, False)
        assert blocked is not None
        assert certified == int((vals == 1.0).sum())

    def test_triangle_adds_certificates(self, setup):
        g, cg = setup
        vals = evaluate_query(cg.graph, SSSP, 0)
        blocked, certified = completion_blocked(cg, SSSP, 0, vals, True)
        assert blocked is not None
        assert certified == int(blocked.sum())

    def test_triangle_requires_core_graph(self, setup):
        g, _ = setup
        vals = SSSP.initial_values(g.num_vertices, 0)
        with pytest.raises(ValueError):
            completion_blocked(g, SSSP, 0, vals, True)

    def test_triangle_requires_hub_values(self, setup):
        g, _ = setup
        cg = build_core_graph(g, SSSP, num_hubs=2, keep_hub_values=False)
        vals = evaluate_query(cg.graph, SSSP, 0)
        with pytest.raises(ValueError):
            completion_blocked(cg, SSSP, 0, vals, True)


def test_proxy_transfer_bytes(setup):
    g, cg = setup
    nbytes = proxy_transfer_bytes(cg.graph, 8, 8)
    assert nbytes == cg.graph.num_edges * 8 + g.num_vertices * 8
