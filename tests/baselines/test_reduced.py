"""Tests for the Reduced Graph baseline (input reduction)."""

import numpy as np
import pytest

from repro.baselines.reduced import build_reduced_graph
from repro.engines.frontier import evaluate_query
from repro.generators.random_graphs import path_graph
from repro.graph.builder import from_edges
from repro.queries.specs import SSNP, SSSP, SSWP, VITERBI, WCC


class TestTransformations:
    def test_chain_spliced(self):
        # 0 -> 1 -> 2 with weights 2, 3: vertex 1 splices into 0 ->(5) 2
        g = from_edges([(0, 1, 2.0), (1, 2, 3.0)], num_vertices=3)
        rg = build_reduced_graph(g, SSSP)
        assert not rg.is_queryable(1)
        assert rg.is_queryable(0) and rg.is_queryable(2)
        edges = list(rg.graph.iter_edges())
        assert len(edges) == 1
        assert edges[0][2] == 5.0

    def test_chain_weight_combination_per_spec(self):
        g = from_edges([(0, 1, 2.0), (1, 2, 3.0)], num_vertices=3)
        assert list(build_reduced_graph(g, SSWP).graph.iter_edges())[0][2] == 2.0
        assert list(build_reduced_graph(g, SSNP).graph.iter_edges())[0][2] == 3.0
        # Viterbi: transformed probabilities multiply (1/2 * 1/3)
        w = list(build_reduced_graph(g, VITERBI).graph.iter_edges())[0][2]
        assert np.isclose(w, 1.0 / 6.0)

    def test_isolated_vertices_pruned(self):
        g = from_edges([(0, 1, 1.0)], num_vertices=5)
        rg = build_reduced_graph(g, SSSP)
        assert rg.queryable_fraction == pytest.approx(2 / 5)

    def test_long_path_collapses(self):
        g = path_graph(10, weight=1.0)
        rg = build_reduced_graph(g, SSSP)
        # interior vertices (in=out=1) splice away over rounds
        assert rg.graph.num_edges < g.num_edges
        assert rg.retained.size < g.num_vertices

    def test_self_cycle_kept(self):
        # 0 <-> 1: each has in=out=1 but splicing would self-loop
        g = from_edges([(0, 1, 1.0), (1, 0, 1.0)], num_vertices=2)
        rg = build_reduced_graph(g, SSSP)
        assert rg.retained.size == 2

    def test_wcc_rejected(self, medium_graph):
        with pytest.raises(ValueError):
            build_reduced_graph(medium_graph, WCC)


class TestQueryPreservation:
    @pytest.mark.parametrize("spec", (SSSP, SSWP, SSNP), ids=lambda s: s.name)
    def test_retained_values_exact(self, spec, medium_graph):
        rg = build_reduced_graph(medium_graph, spec)
        source = int(rg.retained[0])
        truth = evaluate_query(medium_graph, spec, source)
        reduced_vals = evaluate_query(
            rg.graph, spec, int(rg.reduced_id[source])
        )
        expanded = rg.translate_values(reduced_vals, fill=np.nan)
        keep = rg.retained
        assert np.array_equal(
            np.nan_to_num(expanded[keep], posinf=1e300, neginf=-1e300),
            np.nan_to_num(truth[keep], posinf=1e300, neginf=-1e300),
        )

    def test_paper_criticism_holds(self, medium_graph):
        """The reduction keeps most edges while losing queryable vertices —
        exactly the paper's §4 critique."""
        rg = build_reduced_graph(medium_graph, SSSP)
        from repro.core.identify import build_core_graph

        cg = build_core_graph(medium_graph, SSSP, num_hubs=8)
        assert rg.queryable_fraction <= 1.0
        # CG keeps every vertex; RG's whole point of comparison
        assert cg.num_vertices == medium_graph.num_vertices
