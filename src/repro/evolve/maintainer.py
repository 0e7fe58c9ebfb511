"""The single writer: apply mutation batches, publish epochs, rebuild.

Correctness comes from :func:`~repro.core.evolving.advance` (inserts keep
the CG a subgraph; deletes drop CG edges; Theorem-1 certificates die on
any churn). The published epoch is the only state: each transition reads
``store.current()``, computes the next immutable :class:`Epoch` and
publishes it. This module adds the serving discipline:

* **all-or-nothing application** — nothing is mutated before the swap,
  so a failure anywhere (including the ``evolve.apply`` injected crash)
  leaves the previous epoch current and a half-applied batch can never
  become an epoch;
* **epoch publication** — each transition is logged (when a WAL is
  attached) and then published through :meth:`EpochStore.swap`, whose
  own fault point fires before visibility;
* **non-blocking rebuilds** — Algorithm 1/2 runs against an immutable
  graph snapshot *outside* the writer lock; installation rebases the new
  CG onto whatever the graph has become (keeping exactly the
  ``(u, v, w)`` edges the graph still holds — the ``CG ⊆ G`` invariant),
  so mutations keep flowing during the rebuild;
* **one body per transition** — ``apply``, ``install_rebuild`` and
  ``probe`` are also what recovery calls, passing each WAL record's
  payload as ``logged``; before a log is attached nothing they do is
  journaled, so a replay never re-writes the records it reads.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.core.coregraph import CoreGraph
from repro.core.dispatch import build_cg
from repro.core.evolving import (
    REBUILD_BELOW_PRECISION,
    advance,
    probe_precision,
    rebase,
)
from repro.evolve.epoch import Epoch, EpochStore, make_epoch
from repro.evolve.snapshot import SnapshotStore
from repro.evolve.wal import WalError, WalWriter
from repro.graph.csr import Graph
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs.spans import span
from repro.queries.base import QuerySpec
from repro.resilience.faults import fault_point


class EpochMaintainer:
    """The single writer of an :class:`EpochStore`.

    Construction builds the initial core graph and publishes epoch 0.
    ``apply``, ``probe`` and ``install_rebuild`` are serialized by the
    writer lock; readers only ever touch the store.
    """

    def __init__(
        self,
        g: Graph,
        spec: QuerySpec,
        num_hubs: int = 20,
        *,
        wal: Optional[WalWriter] = None,
        snapshots: Optional[SnapshotStore] = None,
        snapshot_every: int = 8,
        _resume: Optional[Epoch] = None,
    ) -> None:
        self.spec = spec
        self.num_hubs = num_hubs
        self._lock = threading.Lock()
        self.wal: Optional[WalWriter] = None
        self.snapshots: Optional[SnapshotStore] = None
        self.snapshot_every = 0
        if _resume is not None:
            # Recovery path: continue from a persisted epoch. The WAL is
            # attached *after* the tail replay (see attach_wal), so
            # replayed records are never re-journaled.
            initial = _resume
        else:
            initial = make_epoch(0, g, build_cg(g, spec, num_hubs=num_hubs))
        self._batches = 0
        self._rebuilds = 0
        self.store = EpochStore(initial)
        obs_journal.set_global_context(
            graph_epoch=initial.number,
            graph_fingerprint=initial.fingerprint,
        )
        if _resume is None and wal is not None:
            self.attach_wal(
                wal, snapshots=snapshots, snapshot_every=snapshot_every
            )
            # The recovery base: without an epoch-stamped snapshot under
            # the log, a replay would have no graph to start from.
            if self.snapshots is not None and not self.snapshots.paths():
                self._snapshot_and_compact(initial)

    def attach_wal(
        self,
        wal: WalWriter,
        snapshots: Optional[SnapshotStore] = None,
        snapshot_every: int = 8,
    ) -> None:
        """Wire a durable log (and its snapshot anchor) to this writer.

        Every subsequent acknowledged batch/install/probe is appended to
        ``wal`` before its epoch swap. ``snapshots`` defaults to a
        ``snapshots/`` directory under the log; ``snapshot_every`` is the
        batch cadence of full-graph snapshots (0 disables periodic ones —
        rebuild installs still snapshot, anchoring compaction).
        """
        store = (
            snapshots if snapshots is not None
            else SnapshotStore(wal.directory / "snapshots")
        )
        with self._lock:
            self.wal = wal
            self.snapshots = store
            self.snapshot_every = max(0, int(snapshot_every))

    def durability(self) -> Dict[str, Any]:
        """The explain-facing durability summary of this maintainer."""
        if self.wal is None:
            return {"mode": "volatile"}
        info = self.wal.durability()
        if self.snapshots is not None:
            info["snapshot_every"] = self.snapshot_every
        return info

    @staticmethod
    def _successor(base: Epoch, logged: Optional[Mapping[str, Any]]) -> int:
        """Number of the epoch a transition on ``base`` publishes; a
        replayed record must claim exactly that number."""
        if logged is not None and logged["epoch"] != base.number + 1:
            raise ValueError(
                f"replay out of order: at epoch {base.number}, "
                f"record says {logged['epoch']}"
            )
        return base.number + 1

    # ------------------------------------------------------------------
    # Mutation batches
    # ------------------------------------------------------------------
    def apply(
        self,
        inserts: Iterable = (),
        deletes: Iterable[Tuple[int, int]] = (),
        *,
        logged: Optional[Mapping[str, Any]] = None,
    ) -> Epoch:
        """Apply one batch and publish the result as the next epoch.

        All-or-nothing: any failure (typed mutation error, injected
        crash, swap abort) re-raises before the swap, so the previously
        current epoch stays published.

        **Acknowledgement contract** (when a WAL is attached): the batch
        record is durably appended *before* the epoch swap, and this
        method returns only after both — so every acknowledged batch is
        replayable. A failure after the append but before the swap
        journals a best-effort ``abort`` record, so recovery rolls the
        batch back instead of resurrecting it.

        Recovery replays a ``batch`` record through this same method,
        passing the record's payload as ``logged``.
        """
        inserts = list(inserts)
        deletes = list(deletes)
        with self._lock:
            base = self.store.current()
            number = self._successor(base, logged)
            with span("evolve.apply", epoch=number,
                      inserts=len(inserts), deletes=len(deletes)):
                step = advance(
                    base.graph, base.proxy, base.triangle_safe,
                    inserts, deletes,
                )
                # Inside the writer lock on purpose: the chaos model kills
                # a batch between computing its epoch and publishing it.
                fault_point("evolve.apply")  # repro: noqa RC104 — chaos site: a crash here publishes nothing
                epoch = make_epoch(
                    number,
                    step.graph,
                    step.cg,
                    triangle_safe=step.triangle_safe,
                    inserted_edges=base.inserted_edges + len(inserts),
                    deleted_edges=base.deleted_edges + step.deleted,
                    probe_precision=base.probe_precision,
                    rebuilt_from=base.rebuilt_from,
                )
                self._publish(
                    epoch, "batch",
                    inserts=[list(e) for e in inserts],
                    deletes=[list(p) for p in deletes],
                )
            self._batches += 1
        self._maybe_snapshot(epoch)
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.batches").inc()
            obs_metrics.counter("evolve.inserted_edges").inc(len(inserts))
            obs_metrics.counter("evolve.deleted_edges").inc(step.deleted)
            obs_journal.emit({
                "type": "event",
                "name": "evolve.batch",
                "epoch": epoch.number,
                "inserts": len(inserts),
                "deletes": step.deleted,
                "num_edges": epoch.graph.num_edges,
            })
        return epoch

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------
    def _publish(self, epoch: Epoch, kind: str, **payload: Any) -> None:
        """Log ``epoch`` as a ``kind`` record (when a WAL is attached),
        then swap it in. Called with the writer lock held.

        A failure after the append writes the best-effort ``abort``
        record; either way the current epoch stays published.
        """
        if san_runtime._enabled:
            san_probes.check_epoch_integrity(epoch, "evolve.publish")
        if self.wal is not None:
            self.wal.append(
                kind, epoch.number, fingerprint=epoch.fingerprint, **payload
            )
        try:
            self.store.swap(epoch)
        except BaseException:
            self._abort_record(epoch.number)
            raise

    def _abort_record(self, epoch_number: int) -> None:
        """Best-effort ``abort`` marker for a logged-but-unswapped epoch.

        Failing to write it is tolerable: recovery then replays the
        batch, landing one epoch *ahead* of the last acknowledged one —
        the allowed direction. What the marker buys is exact pre-crash
        state when the append succeeded but the swap did not.
        """
        if self.wal is None:
            return
        try:
            self.wal.append("abort", epoch_number)
        except Exception:  # repro: noqa RC004 — best-effort marker: the log is already suspect after a failed append; recovery tolerates a missing abort (epoch-supersession drops the orphan)
            return
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.wal.aborts").inc()

    def _maybe_snapshot(self, epoch: Epoch) -> None:
        """Periodic snapshot trigger (outside the writer lock — the
        epoch is immutable, so the batch stream keeps flowing)."""
        with self._lock:
            store = self.snapshots
            every = self.snapshot_every
        if store is None or every <= 0 or epoch.number % every != 0:
            return
        self._snapshot_and_compact(epoch)

    def _snapshot_and_compact(self, epoch: Epoch) -> None:
        """Write a snapshot of ``epoch``; drop WAL segments it covers.

        An IO failure is absorbed (and counted): the WAL still holds
        every acknowledged batch, so durability is unaffected — the next
        recovery just replays a longer tail.
        """
        if self.snapshots is None:
            return
        try:
            self.snapshots.save(epoch)
        except OSError:
            if obs_runtime._enabled:
                obs_metrics.counter("evolve.snapshot.failures").inc()
            return
        if self.wal is not None:
            try:
                self.wal.compact(epoch.number)
            except (WalError, OSError, ValueError):
                # A compaction hiccup only costs disk, never data.
                pass

    # ------------------------------------------------------------------
    # Quality policy
    # ------------------------------------------------------------------
    def probe(
        self, *, logged: Optional[Mapping[str, Any]] = None
    ) -> float:
        """Sampled core-phase precision of the current epoch's proxy.

        A changed reading is published as a new epoch (same graph and
        proxy) and exported as the ``evolve.probe_precision`` gauge.
        Recovery replays a ``probe`` record through this method with the
        record's payload as ``logged``: the logged reading is
        republished instead of sampling again.
        """
        with self._lock:
            current = self.store.current()
            number = self._successor(current, logged)
            precision = (
                probe_precision(current.graph, current.proxy, self.spec)
                if logged is None else logged["precision"]
            )
            if logged is not None or current.probe_precision != precision:
                # Probe refreshes consume an epoch number, so they must
                # be journaled or replay numbering would gap.
                self._publish(
                    replace(current, number=number,
                            probe_precision=precision),
                    "probe", precision=precision,
                )
        if obs_runtime._enabled:
            obs_metrics.gauge("evolve.probe_precision").set(precision)
        return precision

    def needs_rebuild(self) -> bool:
        """Whether the precision probe fell below the rebuild threshold."""
        return self.probe() < REBUILD_BELOW_PRECISION

    # ------------------------------------------------------------------
    # Rebuild (snapshot -> build outside the lock -> rebase -> publish)
    # ------------------------------------------------------------------
    def rebuild_snapshot(self) -> Epoch:
        """The epoch a background rebuild should build against."""
        return self.store.current()

    def build_proxy(self, snapshot: Epoch) -> CoreGraph:
        """Run Algorithm 1/2 on ``snapshot``'s (immutable) graph.

        Called *without* the writer lock — mutation batches keep landing
        while this runs. The ``evolve.rebuild`` fault point models a
        crash inside the long build.
        """
        fault_point("evolve.rebuild")
        with span("evolve.rebuild", epoch=snapshot.number):
            return build_cg(snapshot.graph, self.spec, num_hubs=self.num_hubs)

    def install_rebuild(
        self,
        snapshot: Epoch,
        proxy: CoreGraph,
        *,
        logged: Optional[Mapping[str, Any]] = None,
    ) -> Epoch:
        """Publish a freshly built proxy, rebasing it onto current state.

        If the graph churned while the build ran, the proxy is cut down
        to the edges the graph still holds (restoring ``CG ⊆ G``) and
        Theorem-1 stays disabled; with no churn the rebuild restores
        certificates too.

        Recovery replays an ``install`` record through this method with
        a proxy it rebuilt on the replayed graph (the original died with
        the process) and the record's payload as ``logged``. Certificate
        soundness and the build epoch then come from the record: the
        original install may have been rebased over churn that this
        rebuild never sees.
        """
        with self._lock:
            base = self.store.current()
            number = self._successor(base, logged)
            rebased = base.fingerprint != snapshot.fingerprint
            installed = rebase(base.graph, proxy) if rebased else proxy
            if logged is None:
                clean, built_on = not rebased, snapshot.number
            else:
                clean = bool(logged.get("triangle_safe", False))
                built_on = logged.get("built_on")
            epoch = replace(
                base, number=number, proxy=installed, triangle_safe=clean,
                probe_precision=None, rebuilt_from=built_on,
            )
            # The install marker tells recovery which replayed epochs had
            # a freshly identified CG (and whether Theorem-1 certificates
            # were sound on them).
            self._publish(
                epoch, "install", built_on=built_on, triangle_safe=clean
            )
            self._rebuilds += 1
        # A rebuild install is the natural snapshot anchor: persisting
        # the fresh proxy means recovery replays mutations, not builds.
        self._snapshot_and_compact(epoch)
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.rebuilds").inc()
            obs_journal.emit({
                "type": "event",
                "name": "evolve.rebuild",
                "epoch": epoch.number,
                "built_on_epoch": built_on,
                "rebased": rebased,
                "cg_edges": installed.num_edges,
                "triangle_safe": clean,
            })
        return epoch

    def rebuild(self) -> Epoch:
        """Synchronous snapshot -> build -> install convenience."""
        snapshot = self.rebuild_snapshot()
        proxy = self.build_proxy(snapshot)
        return self.install_rebuild(snapshot, proxy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def batches_applied(self) -> int:
        return self._batches

    @property
    def graph(self) -> Graph:
        """The live (latest-epoch) graph — what the next batch mutates."""
        return self.store.current().graph

    def emit_stats(self) -> None:
        """Journal an ``evolve.stats`` snapshot (end-of-run summary)."""
        # Read the epoch and the writer-lock-guarded counters together so
        # the journal line is internally consistent even if a batch is
        # applying concurrently.
        with self._lock:
            current = self.store.current()
            batches = self._batches
            rebuilds = self._rebuilds
        obs_journal.emit({
            "type": "event",
            "name": "evolve.stats",
            "epoch": current.number,
            "batches": batches,
            "inserted_edges": current.inserted_edges,
            "deleted_edges": current.deleted_edges,
            "rebuilds": rebuilds,
            "swaps": self.store.swap_count(),
            "pinned": self.store.pinned_count(),
            "triangle_safe": current.triangle_safe,
        })
        if self.wal is not None:
            obs_journal.emit({
                "type": "event",
                "name": "evolve.wal.stats",
                "epoch": current.number,
                "durability": self.durability(),
                **self.wal.stats(),
            })
