"""Tests for Algorithm 1 (weighted core-graph identification)."""

import numpy as np
import pytest

from repro import obs
from repro.core.identify import build_core_graph, solution_edge_mask
from repro.engines.frontier import evaluate_query
from repro.graph.builder import from_edges
from repro.queries.specs import SSNP, SSSP, SSWP, VITERBI, WCC

WEIGHTED = (SSSP, SSNP, SSWP, VITERBI)


class TestSolutionEdgeMask:
    def test_tree_edges_selected(self):
        # a simple tree: every edge is on a shortest path
        g = from_edges([(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0)], num_vertices=4)
        vals = evaluate_query(g, SSSP, 0)
        mask = solution_edge_mask(g, SSSP, vals)
        assert mask.all()

    def test_non_solution_edge_excluded(self):
        g = from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 9.0)], num_vertices=3)
        vals = evaluate_query(g, SSSP, 0)
        mask = solution_edge_mask(g, SSSP, vals)
        kept = {
            (int(u), int(v))
            for u, v in zip(g.edge_sources()[mask], g.dst[mask])
        }
        assert kept == {(0, 1), (1, 2)}

    def test_edges_from_unreached_excluded(self):
        g = from_edges([(0, 1, 1.0), (2, 3, 1.0)], num_vertices=4)
        vals = evaluate_query(g, SSSP, 0)
        mask = solution_edge_mask(g, SSSP, vals)
        assert mask.sum() == 1


class TestBuildCoreGraph:
    @pytest.mark.parametrize("spec", WEIGHTED, ids=lambda s: s.name)
    def test_cg_is_subgraph(self, spec, medium_graph):
        cg = build_core_graph(medium_graph, spec, num_hubs=5)
        assert cg.num_vertices == medium_graph.num_vertices
        assert cg.num_edges <= medium_graph.num_edges
        full = set(medium_graph.iter_edges())
        assert set(cg.graph.iter_edges()) <= full

    def test_edge_mask_consistent(self, medium_graph):
        cg = build_core_graph(medium_graph, SSSP, num_hubs=5)
        assert int(cg.edge_mask.sum()) == cg.num_edges
        assert cg.source_num_edges == medium_graph.num_edges

    def test_hub_values_kept_by_default(self, medium_graph):
        cg = build_core_graph(medium_graph, SSSP, num_hubs=3)
        assert len(cg.hub_data) == 3
        for hd in cg.hub_data:
            truth = evaluate_query(medium_graph, SSSP, hd.hub)
            assert np.array_equal(hd.forward, truth)

    def test_hub_values_can_be_dropped(self, medium_graph):
        cg = build_core_graph(
            medium_graph, SSSP, num_hubs=3, keep_hub_values=False
        )
        assert cg.hub_data == []

    def test_explicit_hubs(self, medium_graph):
        cg = build_core_graph(medium_graph, SSSP, hubs=[1, 2, 3])
        assert list(cg.hubs) == [1, 2, 3]

    def test_growth_monotone(self, medium_graph):
        cg = build_core_graph(
            medium_graph, SSSP, num_hubs=8, track_growth=True
        )
        assert cg.growth.size == 8
        assert np.all(np.diff(cg.growth) >= 0)

    def test_growth_flattens(self, medium_graph):
        """The Fig. 3 shape: later hubs add fewer edges than early ones."""
        cg = build_core_graph(
            medium_graph, SSSP, num_hubs=10, track_growth=True
        )
        first = cg.growth[0]
        last_delta = cg.growth[-1] - cg.growth[-6]
        assert last_delta < first

    def test_selection_counts(self, medium_graph):
        cg = build_core_graph(
            medium_graph, SSSP, num_hubs=6, track_selection=True,
            connectivity=False,
        )
        counts = cg.forward_selection_counts
        assert counts.max() <= 6
        # Every forward-selected edge is in the CG.
        assert cg.edge_mask[counts > 0].all()

    def test_hub_query_precision_on_cg(self, medium_graph):
        """A hub's own query must be 100% precise on the CG (its solution
        paths are all included)."""
        cg = build_core_graph(medium_graph, SSSP, num_hubs=3)
        hub = int(cg.hubs[0])
        cg_vals = evaluate_query(cg.graph, SSSP, hub)
        truth = evaluate_query(medium_graph, SSSP, hub)
        assert np.array_equal(cg_vals, truth)

    def test_backward_hub_query_precision_on_cg(self, medium_graph):
        cg = build_core_graph(medium_graph, SSSP, num_hubs=3)
        hub = int(cg.hubs[0])
        cg_vals = evaluate_query(cg.graph.reverse(), SSSP, hub)
        truth = evaluate_query(medium_graph.reverse(), SSSP, hub)
        assert np.array_equal(cg_vals, truth)

    def test_hub_queries_are_traced_as_identification(
        self, medium_graph, tmp_path
    ):
        """Hub queries run 2Phase but stay identification in the trace:
        their engine runs are ``cg.hub_query``'s (a Completion run alone
        for hub 1, a Core and a Completion run per direction after it),
        each span says how many proxy edges its Core runs had, and no
        served-query event or counter appears."""
        with obs.telemetry(trace_path=tmp_path / "build.jsonl"):
            cg = build_core_graph(
                medium_graph, SSSP, num_hubs=4, track_growth=True
            )
            names = set(obs.REGISTRY.snapshot())
        events = obs.read_events(tmp_path / "build.jsonl")
        assert not [e for e in events if e.get("name") == "twophase.result"]
        assert not {k for k in names if k.startswith("twophase.")
                    or k.startswith("quality.") and "cg_" not in k}
        rounds = [e for e in events if e["type"] == "rounds"]
        assert {e["phase"] for e in rounds} == {"cg.hub_query"}
        hubs = [e for e in events
                if e["type"] == "span" and e["name"] == "cg.hub_query"]
        proxy_edges = [e["proxy_edges"] for e in hubs]
        assert proxy_edges == [0] + cg.growth[:-1].tolist()
        assert len(rounds) == sum(4 if p else 2 for p in proxy_edges)

    def test_multi_source_rejected(self, medium_graph):
        with pytest.raises(ValueError, match="general core"):
            build_core_graph(medium_graph, WCC, num_hubs=2)

    def test_smaller_than_full_on_powerlaw(self):
        from repro.generators.rmat import rmat
        from repro.graph.weights import ligra_weights

        g = ligra_weights(rmat(10, 12, seed=11), seed=12)
        cg = build_core_graph(g, SSSP, num_hubs=10)
        assert cg.edge_fraction < 0.6

    def test_repr(self, medium_graph):
        cg = build_core_graph(medium_graph, SSSP, num_hubs=2)
        assert "SSSP" in repr(cg)
