"""Regression tests for the defects the race analyzer flagged.

Each test pins one of the concurrency fixes bundled with the analyzer:
torn stats snapshots in the evolve maintainer and rebuild supervisor, and
the metrics exporter's stop-vs-accept race. The poison-on-release locks make the races
deterministic: if a snapshot is read after the critical section again,
the poisoned value shows up and the assertion fails. The
publish-on-enter lock does the same for a read taken before it.
"""

import threading
from dataclasses import replace

from repro.datasets.example import example_graph
from repro.evolve.maintainer import EpochMaintainer
from repro.evolve.rebuild import RebuildSupervisor
from repro.obs.live.server import MetricsServer
from repro.queries import SSSP


class PoisonOnRelease:
    """Lock stand-in that corrupts state the moment it is released."""

    def __init__(self, poison) -> None:
        self._lock = threading.Lock()
        self._poison = poison
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()
        self._poison()
        return False


def test_emit_stats_snapshots_counters_under_writer_lock(monkeypatch):
    m = EpochMaintainer(example_graph(), SSSP, num_hubs=2)
    m.apply([(0, 5, 1.0)], [])
    true_batches = m._batches
    captured = {}
    monkeypatch.setattr(
        "repro.evolve.maintainer.obs_journal.emit", captured.update
    )

    def poison():
        m._batches = 10_000
        m._rebuilds = 10_000

    lock = PoisonOnRelease(poison)
    m._lock = lock
    m.emit_stats()
    assert lock.acquisitions >= 1, "emit_stats never took the writer lock"
    assert captured["batches"] == true_batches
    assert captured["rebuilds"] != 10_000


class PublishOnEnter:
    """Lock stand-in that lets a batch land just before it is granted."""

    def __init__(self, publish) -> None:
        self._lock = threading.Lock()
        self._publish = publish

    def __enter__(self):
        self._publish()
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


def test_emit_stats_reads_the_epoch_under_writer_lock(monkeypatch):
    m = EpochMaintainer(example_graph(), SSSP, num_hubs=2)
    m.apply([(0, 5, 1.0)], [])
    captured = {}
    monkeypatch.setattr(
        "repro.evolve.maintainer.obs_journal.emit", captured.update
    )

    def publish():
        # A concurrent writer's batch: a new epoch and its batch count.
        base = m.store.current()
        m.store.swap(replace(
            base, number=base.number + 1,
            inserted_edges=base.inserted_edges + 1,
        ))
        m._batches += 1

    m._lock = PublishOnEnter(publish)
    m.emit_stats()
    # Every epoch after 0 came from one batch, so a consistent line
    # pairs epoch N with N batches.
    assert captured["epoch"] == captured["batches"] == 2
    assert captured["inserted_edges"] == 2


def test_describe_snapshots_rebuild_stats_under_their_lock():
    m = EpochMaintainer(example_graph(), SSSP, num_hubs=2)
    sup = RebuildSupervisor(m)
    sup.stats.attempts = 3
    sup.stats.rebuilds = 2

    def poison():
        sup.stats.attempts = 10_000
        sup.stats.rebuilds = 10_000

    lock = PoisonOnRelease(poison)
    sup.stats._lock = lock
    line = sup.describe()
    assert lock.acquisitions >= 1, "describe never took the stats lock"
    assert "attempts=3" in line and "rebuilds=2" in line, line


def test_exporter_loop_tolerates_socket_closed_by_stop():
    server = MetricsServer(port=0)

    class ClosedUnderUs:
        def handle_request(self):
            # Simulate stop() winning the race between the loop's flag
            # check and the accept: flag flips, then the socket dies.
            server._stop.set()
            raise OSError("socket closed")

    server._serve_loop(ClosedUnderUs())  # must swallow, not raise


def test_exporter_start_stop_cycles_leave_no_thread_errors():
    failures = []
    orig = threading.excepthook
    threading.excepthook = lambda args: failures.append(args)
    try:
        for _ in range(3):
            server = MetricsServer(port=0).start()
            assert server.port > 0
            server.stop()
    finally:
        threading.excepthook = orig
    assert failures == [], failures
