"""QueryService in live-graph mode: pinned epochs, staleness, kill-storm.

The extended chaos invariant: under concurrent mutation batches, injected
maintainer/rebuild/worker crashes, and the runtime sanitizer, every
request resolves (``lost == 0``), no request ever observes a torn epoch
(graph and CG from different versions), and every answer computed on a
superseded epoch carries a staleness certificate.
"""

import threading

import numpy as np
import pytest

from repro.checks.sanitize import runtime as san_runtime
from repro.engines.frontier import evaluate_query
from repro.evolve import (
    EpochMaintainer,
    RebuildSupervisor,
    StalenessCertificate,
    next_batch,
)
from repro.queries import SSSP
from repro.resilience import faults
from repro.resilience.faults import InjectedFault
from repro.serve import STATUS_FAILED, QueryService, ServiceConfig


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def live_service(maintainer, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("queue_capacity", 128)
    return QueryService(config=ServiceConfig(**kw),
                        epochs=maintainer.store)


class Churner:
    """Background writer: applies valid batches until stopped."""

    def __init__(self, maintainer, batch_size=10, seed=29):
        self.maintainer = maintainer
        self.batch_size = batch_size
        self.seed = seed
        self.applied = 0
        self.rolled_back = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(10)
        return False

    def _run(self):
        step = 0
        while not self._stop.is_set():
            b = next_batch(
                self.maintainer.graph, step,
                batch_size=self.batch_size, seed=self.seed,
            )
            try:
                self.maintainer.apply(b.inserts, b.deletes)
                self.applied += 1
            except InjectedFault:
                self.rolled_back += 1
            step += 1
            self._stop.wait(0.001)


class TestLiveService:
    def test_answers_match_their_pinned_epoch(self, maintainer):
        """A request racing mutations is stamped with the epoch it ran
        on — never a mixture of versions."""
        with live_service(maintainer) as svc:
            with Churner(maintainer) as churner:
                tickets = [
                    svc.submit("SSSP", source=s % 40) for s in range(30)
                ]
                outcomes = [t.result(timeout=30.0) for t in tickets]
        assert svc.stats().lost == 0
        for o in outcomes:
            assert o.epoch is not None
            assert o.graph_fingerprint is not None
        assert churner.applied > 0

    def test_stale_answers_carry_certificates(self, maintainer):
        with live_service(maintainer, workers=2) as svc:
            with Churner(maintainer):
                tickets = [
                    svc.submit("SSSP", source=s % 40) for s in range(40)
                ]
                outcomes = [t.result(timeout=30.0) for t in tickets]
        stats = svc.stats()
        assert stats.lost == 0
        certified = [o for o in outcomes if o.staleness is not None]
        assert len(certified) == stats.stale_answers
        for o in certified:
            cert = o.staleness
            assert isinstance(cert, StalenessCertificate)
            assert cert.epoch == o.epoch
            assert cert.epoch_lag >= 1
            assert cert.churned_edges >= 0

    def test_fresh_epoch_answer_is_exact(self, maintainer):
        """An answer whose epoch was still latest at resolve time equals
        the from-scratch evaluation on the final graph."""
        with live_service(maintainer, workers=1) as svc:
            out = svc.submit("SSSP", source=0).result(timeout=30.0)
        assert out.staleness is None
        final = maintainer.store.current()
        baseline = evaluate_query(final.graph, SSSP, 0)
        assert np.allclose(out.values, baseline, equal_nan=True)

    def test_kill_storm(self, maintainer):
        """Worker kills + maintainer crashes + rebuild crashes + sanitizer
        on: nothing lost, nothing torn, every stale answer certified."""
        faults.install("serve.worker.request", "crash", at_hit=3)
        faults.install("evolve.apply", "crash", at_hit=2)
        faults.install("evolve.rebuild", "crash", at_hit=1)
        sup = RebuildSupervisor(maintainer, poll_interval_s=0.005)
        with san_runtime.enabled():
            with live_service(maintainer, workers=3) as svc:
                sup.request_rebuild()
                sup.start()
                try:
                    with Churner(maintainer) as churner:
                        tickets = [
                            svc.submit("SSSP", source=s % 40)
                            for s in range(48)
                        ]
                        outcomes = [
                            t.result(timeout=60.0) for t in tickets
                        ]
                finally:
                    sup.stop()
        stats = svc.stats()
        assert stats.lost == 0
        assert all(t.done() for t in tickets)
        # No request died on a torn epoch: a sanitizer epoch_integrity
        # violation would poison the request with the probe's name.
        torn = [
            o for o in outcomes
            if o.status == STATUS_FAILED and o.error
            and "epoch_integrity" in o.error
        ]
        assert torn == []
        certified = sum(1 for o in outcomes if o.staleness is not None)
        assert certified == stats.stale_answers
        # The maintainer crash rolled back exactly; churn continued.
        assert churner.rolled_back >= 1
        assert churner.applied >= 1
        # The rebuild crash restarted the supervisor.
        assert sup.stats.supervisor_restarts >= 1

    def test_epoch_gauge_in_metric_rows(self, maintainer):
        with live_service(maintainer) as svc:
            svc.submit("SSSP", source=0).result(timeout=30.0)
            names = {row[1] for row in svc.metric_rows()}
        assert {"evolve.epoch", "evolve.pinned",
                "evolve.stale_answers"} <= names

    def test_static_service_has_no_epoch_fields(self, maintainer):
        e = maintainer.store.current()
        with QueryService(e.graph, e.proxy,
                          ServiceConfig(workers=1)) as svc:
            out = svc.submit("SSSP", source=0).result(timeout=30.0)
        assert out.epoch is None
        assert out.staleness is None
        assert svc.stats().graph_epoch == 0
