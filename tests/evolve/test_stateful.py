"""Whole-plane oracle: one durable EpochMaintainer against a list of edges.

A hypothesis state machine drives every transition the live-graph plane
has — batches, probes, rebuilds raced by churn, forced snapshots,
crashes on the ack path followed by recovery, point-in-time recovery —
on a tiny weighted graph that starts with parallel edges, and after each
step holds the published epoch against a plain-Python model: the list of
``(u, v, w)`` edges the graph must contain, in insertion order.

The model knows nothing about CSR, masks, logs or snapshots; answers are
checked against :mod:`repro.queries.reference` on a graph built from
scratch from that list.
"""

import random
import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.twophase import two_phase
from repro.evolve import EpochMaintainer, WalWriter, recover, wal
from repro.evolve.snapshot import snapshot_epoch
from repro.graph.builder import from_edges
from repro.graph.transform import edge_subgraph
from repro.queries import SSSP
from repro.queries.reference import dijkstra_like
from repro.resilience.faults import InjectedCrash, injected

HUBS = 2
SNAPSHOT_EVERY = 3
# Crash sites on the ack path. At the first three the batch is not yet
# acknowledged and must be gone after recovery; ``snapshot.write`` fires
# after the swap, so the batch it interrupts must survive.
CRASH_SITES = ("evolve.apply", "evolve.swap", "wal.append", "snapshot.write")
TRANSITIONS = ("apply", "install_rebuild", "probe")

weights = st.integers(1, 9).map(float)


class LivePlaneMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-stateful-"))
        self.wal_dir = self.tmp / "wal"
        self.m = None
        # Small segments, so rotation and compaction run within a few steps.
        self._segment_cap = mock.patch.object(wal, "SEGMENT_MAX_BYTES", 600)
        self._segment_cap.start()

    def teardown(self):
        if self.m is not None and self.m.wal is not None:
            self.m.wal.close()
        self._segment_cap.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    # Model
    # ------------------------------------------------------------------
    def non_pairs(self):
        taken = {(u, v) for u, v, _ in self.model}
        return [
            (u, v) for u in range(self.n) for v in range(self.n)
            if u != v and (u, v) not in taken
        ]

    def model_graph(self):
        return from_edges(self.model, num_vertices=self.n)

    def model_apply(self, inserts, deletes):
        """What one batch means: inserts land, then every copy of each
        deleted pair goes; any non-empty batch voids the certificates."""
        doomed = set(deletes)
        self.model = [
            e for e in self.model + list(inserts)
            if (e[0], e[1]) not in doomed
        ]
        if inserts or deletes:
            self.triangle_safe = False

    def apply(self, inserts, deletes):
        epoch = self.m.apply(inserts, deletes)
        self.model_apply(inserts, deletes)
        self.history[epoch.number] = self.model_graph().fingerprint()

    def draw_inserts(self, data, max_size=3):
        return [
            (u, v, data.draw(weights))
            for u, v in data.draw(st.lists(
                st.sampled_from(self.non_pairs()),
                min_size=1, max_size=max_size, unique=True,
            ))
        ]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @initialize(seed=st.integers(0, 2**16), n=st.integers(5, 16))
    def start(self, seed, n):
        rng = random.Random(seed)
        self.n = n
        candidates = [(u, v) for u in range(n) for v in range(n) if u != v]
        chosen = rng.sample(candidates, min(len(candidates), 3 * n))
        self.model = [(u, v, float(rng.randint(1, 9))) for u, v in chosen]
        # Parallel copies: some at another weight, some exact duplicates.
        for u, v, w in rng.sample(self.model, 4):
            self.model.append((u, v, w + rng.choice((0.0, 2.0))))
        self.triangle_safe = True
        self.m = EpochMaintainer(
            self.model_graph(), SSSP, num_hubs=HUBS,
            wal=WalWriter(self.wal_dir, fsync="never"),
            snapshot_every=SNAPSHOT_EVERY,
        )
        self.history = {0: self.model_graph().fingerprint()}

    @precondition(lambda self: self.non_pairs())
    @rule(data=st.data())
    def insert(self, data):
        self.apply(self.draw_inserts(data), [])

    @rule(data=st.data(), missing=st.booleans())
    def delete(self, data, missing):
        # Pairs with parallel copies sort first so small draws find them.
        copies = Counter((u, v) for u, v, _ in self.model)
        pool = sorted(copies, key=lambda p: (-copies[p], p))
        doomed = data.draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=3, unique=True
        )) if pool else []
        if missing and self.non_pairs():
            doomed.append(self.non_pairs()[0])
        self.apply([], doomed)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), bump=st.sampled_from((1.0, 100.0)))
    def reweigh(self, data, bump):
        """Delete a pair, then bring it back at another weight."""
        u, v, w = data.draw(st.sampled_from(self.model))
        self.apply([], [(u, v)])
        self.apply([(u, v, w + bump)], [])

    @rule()
    def probe(self):
        before = self.m.store.current()
        precision = self.m.probe()
        after = self.m.store.current()
        assert after.probe_precision == precision
        assert after.number - before.number == (
            before.probe_precision != precision
        )
        self.history[after.number] = self.history[before.number]

    @rule(data=st.data(), snapshot_fails=st.booleans(),
          race=st.sampled_from(("none", "insert", "reweigh-cg", "noop")))
    def rebuild(self, data, race, snapshot_fails):
        snapshot = self.m.rebuild_snapshot()
        proxy = self.m.build_proxy(snapshot)
        if race == "insert" and self.non_pairs():
            self.apply(self.draw_inserts(data), [])
        elif race == "reweigh-cg" and proxy.graph.num_edges:
            # The rebase hole: CG pairs go and come back heavier while
            # the build is in flight.
            edges = sorted(set(proxy.graph.iter_edges()))
            picked = data.draw(st.lists(
                st.sampled_from(edges), min_size=1, max_size=3,
                unique_by=lambda e: (e[0], e[1]),
            ))
            self.apply([], [(u, v) for u, v, _ in picked])
            self.apply([(u, v, w + 50.0) for u, v, w in picked], [])
        elif race == "noop":
            # Deleting a pair the graph lacks churns nothing.
            self.apply([], [(0, 0)])
        if snapshot_fails:
            # The install's own snapshot is lost to an IO error (absorbed
            # by the maintainer), so a later recovery must replay the
            # ``install`` record instead of loading its result.
            with injected("snapshot.write", "ioerror"):
                epoch = self.m.install_rebuild(snapshot, proxy)
        else:
            epoch = self.m.install_rebuild(snapshot, proxy)
        clean = self.history[epoch.number - 1] == snapshot.fingerprint
        assert epoch.triangle_safe == clean
        assert epoch.rebuilt_from == snapshot.number
        self.triangle_safe = clean
        self.history[epoch.number] = self.history[epoch.number - 1]

    @rule()
    def snapshot(self):
        epoch = self.m.store.current()
        loaded = self.m.snapshots.load(self.m.snapshots.save(epoch))
        assert replace(loaded, proxy=None) == replace(epoch, proxy=None)
        assert loaded.proxy.graph == epoch.proxy.graph
        assert np.array_equal(loaded.proxy.edge_mask, epoch.proxy.edge_mask)
        self.m.wal.compact(epoch.number)

    @precondition(lambda self: self.non_pairs())
    @rule(data=st.data(), site=st.sampled_from(CRASH_SITES))
    def crash_and_recover(self, data, site):
        inserts = self.draw_inserts(data, max_size=2)
        before = self.m.store.latest_number()
        crashed = False
        with injected(site, "crash"):
            try:
                self.m.apply(inserts, [])
            except InjectedCrash:
                crashed = True
        survives = site == "snapshot.write"
        assert crashed or survives
        if survives:
            self.model_apply(inserts, [])
            self.history[before + 1] = self.model_graph().fingerprint()
        # The process is gone; only its directory is left.
        self.m.wal.close()
        self.m, report = self.recover(fsync="never",
                                      snapshot_every=SNAPSHOT_EVERY)
        assert report.verified and not report.mismatches
        assert report.final_epoch == before + survives
        assert report.fingerprint == self.model_graph().fingerprint()

    @rule(data=st.data())
    def point_in_time(self, data):
        newest = snapshot_epoch(self.m.snapshots.paths()[-1])
        target = data.draw(
            st.integers(newest, self.m.store.latest_number())
        )
        past, report = self.recover(to_epoch=target, attach=False)
        assert report.verified
        assert past.store.current().number == target
        assert past.store.current().fingerprint == self.history[target]

    def recover(self, **kwargs):
        """``recover(verify=True)``, asserting that every replayed record
        went through the maintainer's public transitions."""
        calls = Counter()

        def counting(name):
            live = getattr(EpochMaintainer, name)

            def transition(maintainer, *args, **kw):
                calls[name] += 1
                return live(maintainer, *args, **kw)

            return transition

        with mock.patch.multiple(
            EpochMaintainer, **{name: counting(name) for name in TRANSITIONS}
        ):
            m, report = recover(
                self.wal_dir, verify=True, num_hubs=HUBS, **kwargs
            )
        assert [calls[name] for name in TRANSITIONS] == [
            report.replayed_batches, report.replayed_installs,
            report.replayed_probes,
        ]
        assert not [n for n in dir(EpochMaintainer) if n.startswith("replay")]
        return m, report

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def epoch_matches_model(self):
        if self.m is None:
            return
        epoch = self.m.store.current()
        g, cg = epoch.graph, epoch.proxy
        truth = self.model_graph()
        in_graph = Counter(g.iter_edges())
        assert in_graph == Counter(self.model)
        assert epoch.fingerprint == truth.fingerprint() == g.fingerprint()
        assert self.m.graph is g
        assert epoch.fingerprint == self.history[epoch.number]

        assert not Counter(cg.graph.iter_edges()) - in_graph
        assert cg.edge_mask.shape == (g.num_edges,)
        assert int(cg.edge_mask.sum()) == cg.graph.num_edges
        assert Counter(edge_subgraph(g, cg.edge_mask).iter_edges()) == (
            Counter(cg.graph.iter_edges())
        )

        assert epoch.triangle_safe == self.triangle_safe
        for i, source in enumerate((epoch.number % self.n,
                                    (7 * epoch.number + 3) % self.n)):
            # Certificates are only consulted where the epoch vouches
            # for them, which is what a served query does.
            got = two_phase(g, cg, SSSP, source,
                            triangle=epoch.triangle_safe and i == 0)
            want = dijkstra_like(truth, SSSP, source)
            assert np.array_equal(got.values, want), (source, epoch)


# Time-boxed for tier-1 (about 15 s; a step on a 16-vertex graph costs a
# few ms) and derandomized so the gate sees the same runs everywhere.
TestLivePlane = LivePlaneMachine.TestCase
TestLivePlane.settings = settings(
    max_examples=150,
    stateful_step_count=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)
