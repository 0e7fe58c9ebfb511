"""Tests for the vectorized frontier engine."""

from itertools import islice

import numpy as np
import pytest

from repro.engines.frontier import (
    evaluate_query,
    push_iterations,
    ragged_gather,
    run_push,
)
from repro.engines.stats import RunStats
from repro.generators.random_graphs import cycle_graph, path_graph
from repro.queries.reference import reference_solve
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC

ALL = (SSSP, SSNP, SSWP, VITERBI, REACH)


class TestRaggedGather:
    def test_gathers_csr_slices(self, tiny_graph):
        idx, u = ragged_gather(tiny_graph.offsets, np.array([0, 2]))
        assert list(u) == [0, 0, 2]
        lo0, hi0 = tiny_graph.offsets[0], tiny_graph.offsets[1]
        assert set(idx[:2]) == set(range(lo0, hi0))

    def test_empty_frontier(self, tiny_graph):
        idx, u = ragged_gather(tiny_graph.offsets, np.array([], dtype=np.int64))
        assert idx.size == 0 and u.size == 0

    def test_zero_degree_vertices(self, tiny_graph):
        idx, u = ragged_gather(tiny_graph.offsets, np.array([4]))
        assert idx.size == 0

    def test_mixed_degrees(self, tiny_graph):
        idx, u = ragged_gather(tiny_graph.offsets, np.array([0, 4, 1]))
        assert list(u) == [0, 0, 1, 1]


class TestCorrectness:
    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
    def test_matches_reference_on_random(self, spec, seeded_medium_graph):
        g = seeded_medium_graph
        src = int(np.flatnonzero(g.out_degree() > 0)[0])
        got = evaluate_query(g, spec, src)
        ref = reference_solve(g, spec, src)
        assert np.allclose(
            np.nan_to_num(got, posinf=1e300, neginf=-1e300),
            np.nan_to_num(ref, posinf=1e300, neginf=-1e300),
        )

    def test_wcc_matches_reference(self, seeded_medium_graph):
        got = evaluate_query(seeded_medium_graph, WCC)
        ref = reference_solve(seeded_medium_graph, WCC)
        assert np.array_equal(got, ref)

    def test_path_graph_distances(self):
        g = path_graph(6, weight=2.0)
        vals = evaluate_query(g, SSSP, 0)
        assert np.array_equal(vals, [0, 2, 4, 6, 8, 10])

    def test_cycle_terminates(self):
        g = cycle_graph(5)
        vals = evaluate_query(g, SSSP, 0)
        assert np.array_equal(vals, [0, 1, 2, 3, 4])

    def test_unreachable_vertices_stay_init(self, tiny_graph):
        vals = evaluate_query(tiny_graph, SSSP, 0)
        assert np.isinf(vals[4])


class TestStats:
    def test_counters_accumulate(self, tiny_graph):
        stats = RunStats()
        evaluate_query(tiny_graph, SSSP, 0, stats=stats)
        assert stats.iterations >= 2
        assert stats.edges_processed > 0
        assert stats.updates >= 4  # at least each reached vertex updated once
        assert stats.wall_time > 0
        assert len(stats.per_iteration) == stats.iterations

    def test_merged_with(self):
        a, b = RunStats(iterations=2, edges_processed=10), RunStats(
            iterations=3, edges_processed=5
        )
        merged = a.merged_with(b)
        assert merged.iterations == 5
        assert merged.edges_processed == 15

    def test_path_graph_iteration_count(self):
        g = path_graph(5)
        stats = RunStats()
        evaluate_query(g, SSSP, 0, stats=stats)
        # one round per frontier {0}, {1}, {2}, {3}, {4} — the sink's round
        # scans zero edges and produces the empty frontier that terminates.
        assert stats.iterations == 5
        assert stats.per_iteration[-1].edges_scanned == 0


class TestEngineOptions:
    def test_max_iterations_truncates(self):
        g = path_graph(10)
        vals = SSSP.initial_values(10, 0)
        list(islice(push_iterations(g, SSSP, vals, np.array([0])), 2))
        assert vals[2] == 2.0
        assert np.isinf(vals[5])

    def test_blocked_dst_skips_updates(self, tiny_graph):
        vals = SSSP.initial_values(5, 0)
        blocked = np.zeros(5, dtype=bool)
        blocked[2] = True
        run_push(tiny_graph, SSSP, vals, np.array([0]), blocked_dst=blocked)
        assert np.isinf(vals[2])  # never received a value

    def test_first_visit_requires_visited(self, tiny_graph):
        vals = SSSP.initial_values(5, 0)
        with pytest.raises(ValueError):
            list(push_iterations(tiny_graph, SSSP, vals, np.array([0]),
                                 first_visit=True))

    @pytest.mark.parametrize("bad", (-1, 5))
    def test_frontier_ids_outside_range_raise(self, tiny_graph, bad):
        # A flag scatter would wrap -1 onto vertex 4 instead.
        vals = SSSP.initial_values(5, 0)
        with pytest.raises(ValueError, match=rf"frontier vertex {bad} is outside"):
            list(push_iterations(tiny_graph, SSSP, vals, np.array([0, bad])))
        assert vals.tolist() == SSSP.initial_values(5, 0).tolist()

    def test_frontier_is_deduplicated_and_sorted(self, tiny_graph):
        vals = SSSP.initial_values(5, 0)
        vals[1] = 2.0
        infos = list(push_iterations(
            tiny_graph, SSSP, vals, np.array([1, 0, 1]), keep_frontier=True
        ))
        assert infos[0].frontier.tolist() == [0, 1]
        assert infos[0].edges_scanned == 4

    def test_first_visit_activates_unchanged(self):
        # 0 -> 1 -> 2; start with already-precise values: without first
        # visit, nothing propagates; with it, 1 is re-activated once.
        g = path_graph(3)
        vals = np.array([0.0, 1.0, np.inf])
        visited = np.zeros(3, dtype=bool)
        visited[0] = True
        infos = list(push_iterations(
            g, SSSP, vals, np.array([0]), first_visit=True, visited=visited
        ))
        assert vals[2] == 2.0
        assert sum(i.edges_scanned for i in infos) >= 2

    def test_keep_frontier(self, tiny_graph):
        vals = SSSP.initial_values(5, 0)
        infos = list(push_iterations(
            tiny_graph, SSSP, vals, np.array([0]), keep_frontier=True
        ))
        assert infos[0].frontier is not None
        assert list(infos[0].frontier) == [0]

    def test_precomputed_weights(self, tiny_graph):
        w = tiny_graph.edge_weights() * 2
        vals = SSSP.initial_values(5, 0)
        run_push(tiny_graph, SSSP, vals, np.array([0]), weights=w)
        assert vals[1] == 4.0
