"""EpochStore: atomic swap, pinning, staleness math, torn-epoch probe."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize.runtime import SanitizerViolation
from repro.evolve import EpochStore, RecoveryVerifyError
from repro.evolve.epoch import make_epoch
from repro.evolve.recovery import _verify_epoch
from repro.graph.mutate import random_edge_batch, sample_edge_pairs
from repro.graph.mutate import add_edges, remove_edges
from repro.resilience.faults import InjectedCrash, injected


def _mutated(g, seed=0):
    """A structurally different copy of g (net +1 edge, 1 replaced)."""
    g2 = add_edges(g, random_edge_batch(g, 2, seed=seed))
    g3, _ = remove_edges(g2, sample_edge_pairs(g2, 1, seed=seed))
    return g3


class TestSwap:
    def test_swap_advances_current(self, maintainer):
        store = maintainer.store
        base = store.current()
        nxt = make_epoch(base.number + 1, base.graph, base.proxy)
        retired = store.swap(nxt)
        assert retired is base
        assert store.current() is nxt
        assert store.latest_number() == base.number + 1

    def test_out_of_order_swap_rejected(self, maintainer):
        store = maintainer.store
        base = store.current()
        skipped = make_epoch(base.number + 2, base.graph, base.proxy)
        with pytest.raises(ValueError, match="out of order"):
            store.swap(skipped)
        assert store.current() is base

    def test_injected_swap_crash_never_publishes(self, maintainer):
        store = maintainer.store
        base = store.current()
        nxt = make_epoch(base.number + 1, base.graph, base.proxy)
        with injected("evolve.swap", "crash"):
            with pytest.raises(InjectedCrash):
                store.swap(nxt)
        # The crash fired before visibility: the old epoch is intact.
        assert store.current() is base
        assert store.swap_count() == 0


class TestPin:
    def test_pin_survives_swap(self, maintainer):
        store = maintainer.store
        with store.pin() as pinned:
            base = store.current()
            store.swap(make_epoch(base.number + 1, base.graph, base.proxy))
            # The reader still sees its pinned pair, and the store knows.
            assert pinned is base
            assert store.pinned_count(pinned.number) == 1
            assert store.current().number == base.number + 1
        assert store.pinned_count(pinned.number) == 0

    def test_concurrent_pins_refcount(self, maintainer):
        store = maintainer.store
        n = store.latest_number()
        hold = threading.Event()
        release = threading.Event()
        pinned_counts = []

        def reader():
            with store.pin():
                hold.set()
                release.wait(5)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        hold.wait(5)
        # Give every reader a beat to take its pin.
        for _ in range(100):
            if store.pinned_count(n) == 4:
                break
            threading.Event().wait(0.01)
        pinned_counts.append(store.pinned_count(n))
        release.set()
        for t in threads:
            t.join(5)
        assert pinned_counts[0] == 4
        assert store.pinned_count(n) == 0


class TestStaleness:
    def test_certificate_quantifies_lag_and_churn(self, maintainer):
        from repro.evolve import next_batch

        e0 = maintainer.store.current()
        for step in range(3):
            b = next_batch(maintainer.graph, step, batch_size=8, seed=3)
            maintainer.apply(b.inserts, b.deletes)
        latest = maintainer.store.current()
        cert = e0.staleness(latest)
        assert cert.epoch == e0.number
        assert cert.latest_epoch == latest.number
        assert cert.epoch_lag == 3
        assert cert.churned_edges == (
            latest.inserted_edges + latest.deleted_edges
        )
        assert cert.churned_edges > 0
        d = cert.to_dict()
        assert d["epoch_lag"] == 3


class TestTornEpochProbe:
    def test_clean_epoch_passes(self, maintainer):
        san_probes.check_epoch_integrity(
            maintainer.store.current(), "test"
        )

    def test_fingerprint_mismatch_detected(self, maintainer):
        base = maintainer.store.current()
        torn = make_epoch(base.number, _mutated(base.graph), base.proxy)
        # Rebind the stale proxy's graph under the mutated fingerprint:
        # the epoch now lies about its content.
        torn = type(torn)(
            number=torn.number, graph=torn.graph, proxy=torn.proxy,
            fingerprint=base.fingerprint,
        )
        with pytest.raises(SanitizerViolation, match="epoch_integrity"):
            san_probes.check_epoch_integrity(torn, "test")

    def test_mixed_versions_detected(self, maintainer):
        base = maintainer.store.current()
        # Pair the old CG (mask sized for the old edge array) with a
        # mutated graph — the classic torn read double buffering prevents.
        torn = make_epoch(base.number + 1, _mutated(base.graph), base.proxy)
        with pytest.raises(SanitizerViolation):
            san_probes.check_epoch_integrity(torn, "test")

    def test_right_count_on_wrong_edges_detected(self, maintainer):
        base = maintainer.store.current()
        mask = base.proxy.edge_mask.copy()
        g = base.graph
        # Move one mark from a CG edge onto a non-CG edge with another
        # (u, v, w): the popcount and every CG edge's presence in G stay
        # right, only the mask addresses the wrong edges.
        rows = list(zip(g.edge_sources(), g.dst, g.edge_weights()))
        on = int(np.flatnonzero(mask)[0])
        off = next(int(i) for i in np.flatnonzero(~mask)
                   if rows[i] != rows[on])
        mask[on], mask[off] = False, True
        torn = replace(base, proxy=replace(base.proxy, edge_mask=mask))
        with pytest.raises(SanitizerViolation, match="not the CG's edges"):
            san_probes.check_epoch_integrity(torn, "test")
        with pytest.raises(RecoveryVerifyError):
            _verify_epoch(torn)
