"""Tests for binary graph / core-graph serialization."""

import numpy as np
import pytest

from repro.core.identify import build_core_graph
from repro.graph.builder import from_edges
from repro.io.binary import (
    load_core_graph,
    load_graph,
    save_core_graph,
    save_graph,
)
from repro.queries.specs import SSSP


class TestGraphRoundTrip:
    def test_weighted(self, tmp_path, medium_graph):
        path = save_graph(medium_graph, tmp_path / "g.npz")
        assert load_graph(path) == medium_graph

    def test_unweighted(self, tmp_path):
        g = from_edges([(0, 1), (1, 2)], num_vertices=3)
        path = save_graph(g, tmp_path / "g.npz")
        loaded = load_graph(path)
        assert not loaded.is_weighted
        assert loaded == g

    def test_suffix_added(self, tmp_path, tiny_graph):
        path = save_graph(tiny_graph, tmp_path / "plain")
        assert path.suffix == ".npz"
        assert load_graph(path) == tiny_graph

    def test_corrupt_rejected(self, tmp_path, tiny_graph):
        path = save_graph(tiny_graph, tmp_path / "g.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["dst"] = payload["dst"].copy()
        payload["dst"][0] = 99  # out of range
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError):
            load_graph(path)


class TestCoreGraphRoundTrip:
    def test_full_metadata(self, tmp_path, medium_graph):
        cg = build_core_graph(
            medium_graph, SSSP, num_hubs=3,
            track_growth=True, track_selection=True,
        )
        path = save_core_graph(cg, tmp_path / "cg.npz")
        # Golden key list of format 1: archives written before the
        # codec was shared with snapshots must keep loading.
        with np.load(path) as data:
            assert sorted(data.files) == sorted(
                ["format", "offsets", "dst", "weights", "edge_mask", "hubs",
                 "spec_name", "connectivity_edges", "source_num_edges",
                 "num_hub_data", "growth", "selection_counts"]
                + [f"hub_{i}_{part}" for i in range(3)
                   for part in ("id", "forward", "backward")]
            )
        loaded = load_core_graph(path)
        assert loaded.graph == cg.graph
        assert np.array_equal(loaded.edge_mask, cg.edge_mask)
        assert loaded.spec_name == "SSSP"
        assert list(loaded.hubs) == list(cg.hubs)
        assert loaded.connectivity_edges == cg.connectivity_edges
        assert loaded.source_num_edges == cg.source_num_edges
        assert np.array_equal(loaded.growth, cg.growth)
        assert np.array_equal(
            loaded.forward_selection_counts, cg.forward_selection_counts
        )
        assert len(loaded.hub_data) == 3
        for a, b in zip(loaded.hub_data, cg.hub_data):
            assert a.hub == b.hub
            assert np.array_equal(a.forward, b.forward)
            assert np.array_equal(a.backward, b.backward)

    def test_triangle_still_works_after_reload(self, tmp_path, medium_graph):
        from repro.core.twophase import two_phase
        from repro.engines.frontier import evaluate_query

        cg = build_core_graph(medium_graph, SSSP, num_hubs=3)
        path = save_core_graph(cg, tmp_path / "cg.npz")
        loaded = load_core_graph(path)
        res = two_phase(medium_graph, loaded, SSSP, 1, triangle=True)
        assert np.array_equal(
            res.values, evaluate_query(medium_graph, SSSP, 1)
        )

    def test_minimal_metadata(self, tmp_path, medium_graph):
        cg = build_core_graph(
            medium_graph, SSSP, num_hubs=2, keep_hub_values=False
        )
        loaded = load_core_graph(save_core_graph(cg, tmp_path / "cg.npz"))
        assert loaded.hub_data == []
        assert loaded.growth is None
        assert loaded.forward_selection_counts is None
