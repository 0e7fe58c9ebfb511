"""EpochMaintainer: all-or-nothing apply, probing, rebuild + rebase."""

import numpy as np
import pytest

from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.evolve import next_batch
from repro.graph.mutate import DuplicateEdgeError
from repro.queries import SSSP
from repro.resilience.faults import InjectedCrash, injected


def _snapshot(maintainer):
    e = maintainer.store.current()
    return (
        e.number, e.fingerprint, e.graph.num_edges, e.proxy.num_edges,
        e.inserted_edges, e.deleted_edges,
    )


def _assert_exact(epoch):
    res = two_phase(epoch.graph, epoch.proxy, SSSP, 0)
    baseline = evaluate_query(epoch.graph, SSSP, 0)
    assert np.allclose(res.values, baseline, equal_nan=True)


class TestApply:
    def test_each_batch_publishes_one_epoch(self, maintainer):
        for step in range(4):
            before = maintainer.store.latest_number()
            b = next_batch(maintainer.graph, step, batch_size=10, seed=5)
            epoch = maintainer.apply(b.inserts, b.deletes)
            assert epoch.number == before + 1
            _assert_exact(epoch)

    def test_cumulative_churn_totals(self, maintainer):
        total_ins = total_del = 0
        for step in range(3):
            b = next_batch(maintainer.graph, step, batch_size=12, seed=5)
            epoch = maintainer.apply(b.inserts, b.deletes)
            total_ins += len(b.inserts)
            total_del += len(b.deletes)
        assert epoch.inserted_edges == total_ins
        assert epoch.deleted_edges == total_del

    def test_apply_crash_restores_state(self, maintainer):
        before = _snapshot(maintainer)
        b = next_batch(maintainer.graph, 0, batch_size=10, seed=5)
        with injected("evolve.apply", "crash"):
            with pytest.raises(InjectedCrash):
                maintainer.apply(b.inserts, b.deletes)
        assert _snapshot(maintainer) == before
        # The maintainer is not poisoned: the same batch applies cleanly.
        epoch = maintainer.apply(b.inserts, b.deletes)
        assert epoch.number == before[0] + 1
        _assert_exact(epoch)

    def test_swap_crash_restores_state(self, maintainer):
        before = _snapshot(maintainer)
        b = next_batch(maintainer.graph, 0, batch_size=10, seed=5)
        with injected("evolve.swap", "crash"):
            with pytest.raises(InjectedCrash):
                maintainer.apply(b.inserts, b.deletes)
        assert _snapshot(maintainer) == before
        epoch = maintainer.apply(b.inserts, b.deletes)
        assert epoch.number == before[0] + 1

    def test_invalid_batch_rolls_back(self, maintainer):
        before = _snapshot(maintainer)
        e = maintainer.store.current()
        u, v = int(e.graph.dst[0]), 0
        # Find an existing edge to duplicate.
        src = np.repeat(
            np.arange(e.graph.num_vertices), np.diff(e.graph.offsets)
        )
        u, v = int(src[0]), int(e.graph.dst[0])
        with pytest.raises(DuplicateEdgeError):
            maintainer.apply(inserts=[(u, v, 1.0)])
        assert _snapshot(maintainer) == before


class TestProbeAndRebuild:
    def test_probe_publishes_precision(self, maintainer):
        for step in range(3):
            b = next_batch(maintainer.graph, step, batch_size=16, seed=9)
            maintainer.apply(b.inserts, b.deletes)
        precision = maintainer.probe()
        assert 0.0 <= precision <= 100.0
        assert maintainer.store.current().probe_precision == precision

    def test_rebuild_restores_triangle_safety(self, maintainer):
        b = next_batch(maintainer.graph, 0, batch_size=16, seed=9)
        maintainer.apply(b.inserts, b.deletes)
        assert not maintainer.store.current().triangle_safe
        epoch = maintainer.rebuild()
        assert epoch.triangle_safe
        assert epoch.rebuilt_from is not None
        _assert_exact(epoch)

    def test_rebuild_rebases_over_racing_churn(self, maintainer):
        """Churn lands between snapshot and install: the installed CG is
        rebased onto the newer graph and stays a subgraph of it."""
        snapshot = maintainer.rebuild_snapshot()
        proxy = maintainer.build_proxy(snapshot)
        for step in range(2):
            b = next_batch(maintainer.graph, step, batch_size=12, seed=21)
            maintainer.apply(b.inserts, b.deletes)
        epoch = maintainer.install_rebuild(snapshot, proxy)
        # Dirty install: triangle certificates must stay off.
        assert not epoch.triangle_safe
        from repro.checks.sanitize import probes as san_probes

        san_probes.check_epoch_integrity(epoch, "test")
        _assert_exact(epoch)

    def test_rebase_drops_pairs_reinserted_at_another_weight(self, maintainer):
        """CG pairs deleted and re-inserted heavier while a rebuild is in
        flight: the rebased CG must not keep the stale light copies."""
        from collections import Counter

        from repro.checks.sanitize import probes as san_probes

        snapshot = maintainer.rebuild_snapshot()
        proxy = maintainer.build_proxy(snapshot)
        cg_pairs = sorted({(u, v) for u, v, _ in proxy.graph.iter_edges()})
        cg_pairs = cg_pairs[:40]
        maintainer.apply((), cg_pairs)
        maintainer.apply([(u, v, 1000.0) for u, v in cg_pairs], ())
        epoch = maintainer.install_rebuild(snapshot, proxy)

        assert not epoch.triangle_safe
        san_probes.check_epoch_integrity(epoch, "test")
        assert int(epoch.proxy.edge_mask.sum()) == epoch.proxy.graph.num_edges
        in_graph = Counter(epoch.graph.iter_edges())
        assert not Counter(epoch.proxy.graph.iter_edges()) - in_graph
        for source in range(8):
            res = two_phase(epoch.graph, epoch.proxy, SSSP, source)
            assert np.array_equal(
                res.values, evaluate_query(epoch.graph, SSSP, source)
            )
