"""Failure injection: corrupt inputs, degenerate graphs, adversarial cases.

The whole pipeline must either work correctly or fail loudly — never
silently produce wrong results.
"""

import numpy as np
import pytest

from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.graph.builder import from_edges
from repro.queries.specs import SSSP, SSWP, VITERBI, WCC


class TestDegenerateGraphs:
    def test_single_vertex_no_edges(self):
        g = from_edges([], num_vertices=1)
        vals = evaluate_query(g, SSSP, 0)
        assert vals[0] == 0.0
        cg = build_cg(g, SSSP, num_hubs=3)
        res = two_phase(g, cg, SSSP, 0)
        assert res.values[0] == 0.0

    def test_all_isolated_vertices(self):
        g = from_edges([], num_vertices=10)
        cg = build_cg(g, SSSP, num_hubs=3)
        assert cg.num_edges == 0
        res = two_phase(g, cg, SSSP, 4)
        assert res.values[4] == 0.0
        assert np.isinf(res.values).sum() == 9

    def test_self_loops_only(self):
        g = from_edges([(0, 0, 1.0), (1, 1, 2.0)], num_vertices=2)
        vals = evaluate_query(g, SSSP, 0)
        assert vals[0] == 0.0 and np.isinf(vals[1])
        cg = build_cg(g, SSSP, num_hubs=2)
        res = two_phase(g, cg, SSSP, 0)
        assert np.array_equal(res.values, vals)

    def test_two_cycle_terminates(self):
        g = from_edges([(0, 1, 1.0), (1, 0, 1.0)], num_vertices=2)
        vals = evaluate_query(g, SSSP, 0)
        assert list(vals) == [0.0, 1.0]

    def test_parallel_edges_use_best(self):
        g = from_edges([(0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0)])
        assert evaluate_query(g, SSSP, 0)[1] == 2.0
        assert evaluate_query(g, SSWP, 0)[1] == 9.0

    def test_zero_weight_edges(self):
        # zero weights are legal for SSSP (cycles of weight 0 converge
        # because equal values are not "better")
        g = from_edges([(0, 1, 0.0), (1, 0, 0.0), (1, 2, 1.0)])
        vals = evaluate_query(g, SSSP, 0)
        assert list(vals) == [0.0, 0.0, 1.0]

    def test_wcc_on_empty_graph(self):
        g = from_edges([], num_vertices=4)
        assert np.array_equal(evaluate_query(g, WCC), np.arange(4.0))


class TestAdversarialInputs:
    def test_viterbi_rejects_zero_weight(self):
        g = from_edges([(0, 1, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            evaluate_query(g, VITERBI, 0)

    def test_source_out_of_range(self, medium_graph):
        with pytest.raises(ValueError):
            evaluate_query(medium_graph, SSSP, medium_graph.num_vertices)
        with pytest.raises(ValueError):
            evaluate_query(medium_graph, SSSP, -1)

    def test_hub_count_larger_than_graph(self):
        g = from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        cg = build_cg(g, SSSP, num_hubs=100)
        assert len(cg.hubs) == 3
        res = two_phase(g, cg, SSSP, 0)
        assert np.array_equal(res.values, evaluate_query(g, SSSP, 0))

    def test_negative_weights_still_terminate_for_bottleneck_queries(self):
        # SSWP/SSNP are min/max compositions: negative weights are fine.
        g = from_edges([(0, 1, -3.0), (1, 2, 5.0)])
        vals = evaluate_query(g, SSWP, 0)
        assert vals[2] == -3.0

    def test_huge_weights_no_overflow(self):
        g = from_edges([(0, 1, 1e308), (1, 2, 1e308)])
        vals = evaluate_query(g, SSWP, 0)
        assert vals[2] == 1e308  # min composition, no addition overflow


class TestCorruptArtifacts:
    def test_truncated_npz(self, tmp_path, medium_graph):
        from repro.io.binary import load_graph, save_graph

        path = save_graph(medium_graph, tmp_path / "g.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            load_graph(path)

    def test_wrong_format_version(self, tmp_path, medium_graph):
        from repro.io.binary import load_graph, save_graph

        path = save_graph(medium_graph, tmp_path / "g.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format"] = np.int64(999)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="format"):
            load_graph(path)

    def test_cg_for_wrong_graph_rejected_by_two_phase(self, medium_graph):
        other = from_edges([(0, 1, 1.0)], num_vertices=2)
        cg = build_cg(other, SSSP, num_hubs=1)
        with pytest.raises(ValueError, match="vertex set"):
            two_phase(medium_graph, cg, SSSP, 0)

    def test_edge_list_garbage(self, tmp_path):
        from repro.graph.edgelist import read_edge_list

        path = tmp_path / "bad.txt"
        path.write_text("0 not_a_number\n")
        with pytest.raises(ValueError):
            read_edge_list(path)


class TestSimulatorEdgeCases:
    def test_gridgraph_single_partition(self, medium_graph):
        from repro.systems.gridgraph import GridGraphSimulator

        sim = GridGraphSimulator(medium_graph, p=1)
        rep = sim.baseline_run(SSSP, 0)
        assert np.array_equal(
            rep.values, evaluate_query(medium_graph, SSSP, 0)
        )

    def test_gridgraph_more_partitions_than_vertices(self):
        from repro.systems.gridgraph import GridGraphSimulator

        g = from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        sim = GridGraphSimulator(g, p=16)
        rep = sim.baseline_run(SSSP, 0)
        assert np.array_equal(rep.values, evaluate_query(g, SSSP, 0))

    def test_subway_with_tiny_gpu(self, medium_graph):
        from repro.systems.subway import SubwaySimulator

        sim = SubwaySimulator(medium_graph, gpu_memory=64)
        rep = sim.baseline_run(SSSP, 0)
        assert np.array_equal(
            rep.values, evaluate_query(medium_graph, SSSP, 0)
        )

    def test_query_from_unreachable_island(self):
        # source in a 2-vertex island; most of the graph unreachable
        g = from_edges(
            [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0)],
            num_vertices=5,
        )
        cg = build_cg(g, SSSP, num_hubs=2)
        res = two_phase(g, cg, SSSP, 0, triangle=True)
        assert np.array_equal(res.values, evaluate_query(g, SSSP, 0))
