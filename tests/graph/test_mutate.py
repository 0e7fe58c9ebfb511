"""Tests for batch edge insertion/deletion."""

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.mutate import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    MutationError,
    SelfLoopError,
    add_edges,
    random_edge_batch,
    remove_edges,
    sample_edge_pairs,
)


class TestAddEdges:
    def test_appends(self, tiny_graph):
        g = add_edges(tiny_graph, [(4, 0, 2.0)])
        assert g.num_edges == tiny_graph.num_edges + 1
        assert g.has_edge(4, 0)

    def test_empty_batch_identity(self, tiny_graph):
        assert add_edges(tiny_graph, []) is tiny_graph

    def test_out_of_range(self, tiny_graph):
        with pytest.raises(ValueError):
            add_edges(tiny_graph, [(0, 99, 1.0)])

    def test_weight_form_enforced(self, tiny_graph):
        with pytest.raises(ValueError):
            add_edges(tiny_graph, [(0, 1)])  # weighted graph needs weights
        g = from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(ValueError):
            add_edges(g, [(0, 1, 2.0)])

    def test_unweighted(self):
        g = from_edges([(0, 1)], num_vertices=3)
        g2 = add_edges(g, [(1, 2)])
        assert g2.num_edges == 2
        assert not g2.is_weighted

    def test_original_untouched(self, tiny_graph):
        before = tiny_graph.num_edges
        add_edges(tiny_graph, [(4, 0, 2.0)])
        assert tiny_graph.num_edges == before

    def test_rejects_self_loop(self, tiny_graph):
        with pytest.raises(SelfLoopError) as exc:
            add_edges(tiny_graph, [(4, 4, 1.0)])
        assert exc.value.vertex == 4

    def test_rejects_duplicate_of_existing(self, tiny_graph):
        # (0, 1) is already in tiny_graph; silently appending it would
        # inflate CSR degree and skew degree-based hub selection
        with pytest.raises(DuplicateEdgeError) as exc:
            add_edges(tiny_graph, [(0, 1, 5.0)])
        assert exc.value.pair == (0, 1)
        assert "already in graph" in str(exc.value)

    def test_rejects_duplicate_within_batch(self, tiny_graph):
        with pytest.raises(DuplicateEdgeError) as exc:
            add_edges(tiny_graph, [(4, 0, 1.0), (4, 0, 2.0)])
        assert exc.value.pair == (4, 0)
        assert "repeated in batch" in str(exc.value)

    def test_typed_errors_are_value_errors(self):
        # callers catching the historical ValueError keep working
        assert issubclass(MutationError, ValueError)
        assert issubclass(SelfLoopError, MutationError)
        assert issubclass(DuplicateEdgeError, MutationError)
        assert issubclass(EdgeNotFoundError, MutationError)


class TestRemoveEdges:
    def test_removes_named_pair(self, tiny_graph):
        g, mask = remove_edges(tiny_graph, [(0, 1)])
        assert not g.has_edge(0, 1)
        assert g.num_edges == tiny_graph.num_edges - 1
        assert mask.sum() == 1

    def test_removes_all_parallel_copies(self):
        g0 = from_edges([(0, 1, 1.0), (0, 1, 2.0), (1, 0, 3.0)])
        g, mask = remove_edges(g0, [(0, 1)])
        assert mask.sum() == 2
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_missing_pair_is_noop(self, tiny_graph):
        g, mask = remove_edges(tiny_graph, [(4, 4)])
        assert mask.sum() == 0
        assert g == tiny_graph

    def test_empty_batch(self, tiny_graph):
        g, mask = remove_edges(tiny_graph, [])
        assert g is tiny_graph

    def test_strict_names_missing_pair(self, tiny_graph):
        with pytest.raises(EdgeNotFoundError) as exc:
            remove_edges(tiny_graph, [(0, 1), (4, 2)], strict=True)
        assert exc.value.pair == (4, 2)
        assert "(4, 2)" in str(exc.value)

    @pytest.mark.parametrize("pair", [(0, 3), (2, -3), (3, -6), (-1, 4)])
    @pytest.mark.parametrize("strict", (False, True))
    def test_out_of_range_pair_rejected(self, pair, strict):
        # Packed as u * 3 + v, each pair aliases an edge of g: the first
        # three (1, 0), the last (0, 1).
        g = from_edges([(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)])
        with pytest.raises(MutationError) as exc:
            remove_edges(g, [pair], strict=strict)
        assert not isinstance(exc.value, EdgeNotFoundError)
        assert f"({pair[0]}, {pair[1]})" in str(exc.value)

    def test_strict_accepts_present_pairs(self, tiny_graph):
        g, mask = remove_edges(tiny_graph, [(0, 1)], strict=True)
        assert not g.has_edge(0, 1)
        assert mask.sum() == 1

    def test_fault_point_fires(self, tiny_graph):
        from repro.resilience.faults import InjectedCrash, injected

        with injected("graph.mutate.remove", "crash", at_hit=1):
            with pytest.raises(InjectedCrash):
                remove_edges(tiny_graph, [(0, 1)])


class TestSampleEdgePairs:
    def test_samples_existing_pairs(self, tiny_graph):
        pairs = sample_edge_pairs(tiny_graph, 3, seed=4)
        assert len(pairs) == 3
        for u, v in pairs:
            assert tiny_graph.has_edge(u, v)

    def test_distinct_and_deterministic(self, tiny_graph):
        pairs = sample_edge_pairs(tiny_graph, 4, seed=9)
        assert len(set(pairs)) == len(pairs)
        assert pairs == sample_edge_pairs(tiny_graph, 4, seed=9)

    def test_caps_at_available(self, tiny_graph):
        pairs = sample_edge_pairs(tiny_graph, 10_000, seed=1)
        assert len(pairs) <= tiny_graph.num_edges


class TestPreferentialBatch:
    def test_hubs_attract_edges(self):
        from repro.generators.rmat import rmat
        from repro.graph.degree import top_degree_vertices
        from repro.graph.mutate import preferential_edge_batch
        from repro.graph.weights import ligra_weights

        g = ligra_weights(rmat(10, 8, seed=211), seed=212)
        batch = preferential_edge_batch(g, 2000, seed=3)
        hubs = set(int(v) for v in top_degree_vertices(g, 20))
        touching_hubs = sum(
            1 for e in batch if e[0] in hubs or e[1] in hubs
        )
        # 20/1024 vertices uniformly would catch ~4%; preferential far more
        assert touching_hubs / len(batch) > 0.15

    def test_weighted_form(self, medium_graph):
        from repro.graph.mutate import preferential_edge_batch

        batch = preferential_edge_batch(medium_graph, 10, seed=1)
        assert all(len(e) == 3 for e in batch)

    def test_gentler_precision_decay_than_uniform(self):
        """The realistic-churn claim: preferential insertions hurt a stale
        CG less than uniform ones."""
        from repro.core.evolving import EvolvingCoreGraph
        from repro.generators.rmat import rmat
        from repro.graph.mutate import preferential_edge_batch, random_edge_batch
        from repro.graph.weights import ligra_weights
        from repro.queries.specs import SSSP

        base = ligra_weights(rmat(9, 8, seed=221), seed=222)
        count = base.num_edges // 4

        ev_uniform = EvolvingCoreGraph(base, SSSP, num_hubs=6)
        ev_uniform.insert_edges(random_edge_batch(base, count, seed=7))
        ev_pref = EvolvingCoreGraph(base, SSSP, num_hubs=6)
        ev_pref.insert_edges(preferential_edge_batch(base, count, seed=7))

        assert ev_pref.probe_precision() >= ev_uniform.probe_precision() - 5.0


class TestRandomBatch:
    def test_weighted_batch(self, medium_graph):
        batch = random_edge_batch(medium_graph, 10, seed=1)
        assert len(batch) == 10
        assert all(len(e) == 3 for e in batch)
        # weights resampled from the existing distribution
        existing = set(np.unique(medium_graph.weights))
        assert all(e[2] in existing for e in batch)

    def test_deterministic(self, medium_graph):
        assert random_edge_batch(medium_graph, 5, seed=2) == \
            random_edge_batch(medium_graph, 5, seed=2)

    def test_batches_are_valid_insertions(self, medium_graph):
        # generated batches feed straight into strict add_edges
        batch = random_edge_batch(medium_graph, 50, seed=3)
        g2 = add_edges(medium_graph, batch)
        assert g2.num_edges == medium_graph.num_edges + 50

    def test_no_self_loops_or_duplicates(self, medium_graph):
        batch = random_edge_batch(medium_graph, 100, seed=5)
        pairs = [(e[0], e[1]) for e in batch]
        assert len(set(pairs)) == len(pairs)
        assert all(u != v for u, v in pairs)
        assert not any(medium_graph.has_edge(u, v) for u, v in pairs)


class TestFingerprintMemoInvalidation:
    """The fingerprint memo can never leak across a mutation.

    ``Graph.fingerprint()`` memoizes its digest on first call; every
    mutation constructs a *new* Graph (value-object discipline), so a
    derived graph must always hash its own arrays — a stale inherited
    memo would break epoch identity and WAL recovery verification.
    """

    def test_add_edges_never_inherits_memo(self, tiny_graph):
        before = tiny_graph.fingerprint()  # populate the memo
        g2 = add_edges(tiny_graph, [(4, 0, 2.0)])
        assert g2._fingerprint is None  # fresh object, empty memo
        assert g2.fingerprint() != before
        # the source graph's memo is untouched and still correct
        assert tiny_graph.fingerprint() == before

    def test_remove_edges_never_inherits_memo(self, tiny_graph):
        before = tiny_graph.fingerprint()
        pairs = sample_edge_pairs(tiny_graph, 1, seed=3)
        g2, removed = remove_edges(tiny_graph, pairs)
        assert removed.any()
        assert g2._fingerprint is None
        assert g2.fingerprint() != before
        assert tiny_graph.fingerprint() == before

    def test_memo_is_stable_and_content_derived(self, tiny_graph):
        # Same content, different construction -> same digest, and the
        # memoized second call returns the identical object state.
        first = tiny_graph.fingerprint()
        assert tiny_graph.fingerprint() == first
        twin = add_edges(add_edges(tiny_graph, []), [])
        assert twin.fingerprint() == first

    def test_roundtrip_mutation_rehashes_to_original(self, tiny_graph):
        # add then remove the same edge: content equality must be
        # reflected by fingerprint equality computed on the new object.
        before = tiny_graph.fingerprint()
        g2 = add_edges(tiny_graph, [(4, 0, 2.0)])
        mid = g2.fingerprint()
        g3, removed = remove_edges(g2, [(4, 0)])
        assert removed.any()
        assert mid != before
        assert g3.fingerprint() == before
