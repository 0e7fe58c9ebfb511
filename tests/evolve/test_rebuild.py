"""RebuildSupervisor: crash restart and lifecycle."""

import time

import pytest

from repro.evolve import RebuildSupervisor, next_batch
from repro.resilience.faults import injected


def _wait(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _churn(maintainer, steps=2, seed=17):
    for step in range(steps):
        b = next_batch(maintainer.graph, step, batch_size=12, seed=seed)
        maintainer.apply(b.inserts, b.deletes)


class TestSupervisedRebuild:
    def test_forced_rebuild_lands(self, maintainer):
        _churn(maintainer)
        sup = RebuildSupervisor(maintainer, poll_interval_s=0.005)
        sup.request_rebuild()
        sup.start()
        try:
            assert _wait(lambda: sup.stats.rebuilds >= 1)
        finally:
            sup.stop()
        assert maintainer.store.current().triangle_safe
        assert sup.stats.failures == 0

    def test_crash_restarts_and_retries(self, maintainer):
        """An injected crash inside the build kills the attempt; the
        supervisor restarts with backoff and the rebuild still lands."""
        _churn(maintainer)
        sup = RebuildSupervisor(maintainer, poll_interval_s=0.005)
        with injected("evolve.rebuild", "crash"):
            sup.request_rebuild()
            sup.start()
            try:
                assert _wait(lambda: sup.stats.rebuilds >= 1)
            finally:
                sup.stop()
        assert sup.stats.supervisor_restarts >= 1
        assert sup.stats.failures >= 1
        assert maintainer.store.current().triangle_safe

    def test_double_start_rejected(self, maintainer):
        sup = RebuildSupervisor(maintainer, poll_interval_s=0.005)
        sup.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                sup.start()
        finally:
            sup.stop()
