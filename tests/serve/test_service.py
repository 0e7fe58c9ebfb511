"""QueryService end to end: admission, deadlines, shedding, shutdown.

Every test closes with the chaos invariant: ``stats.lost == 0`` — no
submitted request may end without a terminal outcome.
"""

import numpy as np
import pytest

from repro.engines.frontier import evaluate_query
from repro.queries import SSSP
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    REASON_SHUTDOWN,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_REJECTED,
    QueryService,
    ServiceConfig,
)


def service(g, cg, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("queue_capacity", 64)
    return QueryService(g, cg, ServiceConfig(**kw))


class TestHappyPath:
    def test_concurrent_queries_match_direct_evaluation(
        self, serve_graph, serve_cg
    ):
        with service(serve_graph, serve_cg, workers=4) as svc:
            tickets = [svc.submit("SSSP", source=s) for s in range(8)]
            outcomes = [t.result(timeout=30.0) for t in tickets]
        for s, out in enumerate(outcomes):
            assert out.status == STATUS_OK
            truth = evaluate_query(serve_graph, SSSP, s)
            assert np.array_equal(out.values, truth)
        stats = svc.stats()
        assert stats.completed == 8
        assert stats.lost == 0

    def test_unknown_query_raises_immediately(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg) as svc:
            with pytest.raises(KeyError):
                svc.submit("NOPE", source=0)
        assert svc.stats().submitted == 0

    def test_stats_render_includes_lost(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg) as svc:
            svc.submit("SSSP", source=0).result(timeout=30.0)
        assert "lost" in svc.stats().render()


class TestAdmissionControl:
    def test_queue_full_rejects_typed(self, serve_graph, serve_cg):
        # Not started yet: admitted requests wait in the queue.
        svc = service(serve_graph, serve_cg, workers=1, queue_capacity=4)
        tickets = [svc.submit("SSSP", source=0) for _ in range(7)]
        rejected = [t.result(timeout=5.0) for t in tickets if t.done()]
        assert len(rejected) == 3
        for out in rejected:
            assert out.status == STATUS_REJECTED
            assert out.rejection.reason == REASON_QUEUE_FULL
        with svc:
            assert svc.drain(timeout=30.0)
        stats = svc.stats()
        assert stats.rejected_queue_full == 3
        assert stats.completed == 4
        assert stats.lost == 0

    def test_nonpositive_deadline_unmeetable(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg) as svc:
            out = svc.submit("SSSP", source=0, deadline_s=0.0).result(
                timeout=5.0
            )
        assert out.status == STATUS_REJECTED
        assert out.rejection.reason == REASON_DEADLINE
        assert svc.stats().lost == 0

    def test_deadline_expired_while_queued(self, serve_graph, serve_cg):
        import time

        svc = service(serve_graph, serve_cg, workers=1)
        t = svc.submit("SSSP", source=0, deadline_s=0.02)
        time.sleep(0.05)
        with svc:
            out = t.result(timeout=30.0)
        assert out.status == STATUS_REJECTED
        assert out.rejection.reason == REASON_DEADLINE
        assert svc.stats().lost == 0

    def test_estimated_wait_rejects_unmeetable_deadline(
        self, serve_graph, serve_cg
    ):
        svc = service(serve_graph, serve_cg, workers=1)
        # Seed the service-time EWMA so the estimator has data; the
        # service is not started, so the backlog stays queued.
        svc._ewma_service_s = 0.01
        # Queue depth 3 at the EWMA service time each makes a microscopic
        # deadline provably unmeetable at admission.
        backlog = [svc.submit("SSSP", source=0) for _ in range(3)]
        out = svc.submit("SSSP", source=0, deadline_s=1e-9).result(
            timeout=5.0
        )
        assert out.status == STATUS_REJECTED
        assert out.rejection.reason == REASON_DEADLINE
        assert "estimated queue wait" in out.rejection.detail
        with svc:
            assert svc.drain(timeout=30.0)
        assert svc.stats().lost == 0
        assert all(t.done() for t in backlog)


class TestDegradedAnswers:
    def test_budget_bounded_request_degrades_with_certificate(
        self, serve_graph, serve_cg, phase1_iterations
    ):
        with service(serve_graph, serve_cg) as svc:
            out = svc.submit(
                "SSSP", source=0, max_iterations=phase1_iterations + 1
            ).result(timeout=30.0)
        assert out.status == STATUS_DEGRADED
        assert out.result.degraded
        assert out.result.degraded_phase == 2
        assert out.certificate is not None
        assert svc.stats().degraded == 1
        assert svc.stats().lost == 0

    def test_breaker_trips_then_sheds_with_certificates(
        self, serve_graph, serve_cg, phase1_iterations
    ):
        svc = service(
            serve_graph, serve_cg, workers=1, breaker_cooldown_s=3600.0,
        )
        with svc:
            for _ in range(3):
                out = svc.submit(
                    "SSSP", source=0,
                    max_iterations=phase1_iterations + 1,
                ).result(timeout=30.0)
                assert out.status == STATUS_DEGRADED
            assert svc.breaker.state == OPEN
            # While OPEN, an unbudgeted request is shed: degraded, with a
            # certificate, and with no budget error.
            shed = svc.submit("SSSP", source=1).result(timeout=30.0)
            assert shed.status == STATUS_DEGRADED
            assert shed.shed
            assert shed.result.budget_error is None
            assert shed.certificate is not None
        stats = svc.stats()
        assert stats.breaker_trips == 1
        assert stats.shed_completions == 1
        assert stats.lost == 0

    def test_breaker_recovers_through_probe(
        self, serve_graph, serve_cg, phase1_iterations
    ):
        svc = service(
            serve_graph, serve_cg, workers=1, breaker_cooldown_s=0.0,
        )
        with svc:
            for _ in range(3):
                svc.submit(
                    "SSSP", source=0,
                    max_iterations=phase1_iterations + 1,
                ).result(timeout=30.0)
            assert svc.breaker.state == OPEN
            # Zero cooldown: the next request is the half-open probe; it
            # runs un-budgeted, succeeds, and closes the breaker.
            out = svc.submit("SSSP", source=1).result(timeout=30.0)
            assert out.status == STATUS_OK
            assert svc.breaker.state == CLOSED
        assert svc.stats().lost == 0

    def test_core_aborted_probe_does_not_wedge_breaker(
        self, serve_graph, serve_cg, phase1_iterations
    ):
        svc = service(
            serve_graph, serve_cg, workers=1, breaker_cooldown_s=0.0,
        )
        with svc:
            for _ in range(3):
                svc.submit(
                    "SSSP", source=0,
                    max_iterations=phase1_iterations + 1,
                ).result(timeout=30.0)
            assert svc.breaker.state == OPEN
            # The probe's Core Phase aborts, so it never reports to the
            # breaker; the cooldown since it was admitted has passed, so
            # the next request is a fresh probe instead of being shed.
            probe = svc.submit("SSSP", source=0, max_iterations=1).result(
                timeout=30.0
            )
            assert probe.status == STATUS_DEGRADED
            assert probe.result.degraded_phase == 1
            assert svc.breaker.state == HALF_OPEN
            for s in range(3):
                out = svc.submit("SSSP", source=s).result(timeout=30.0)
                assert out.status == STATUS_OK and not out.shed
                assert svc.breaker.state == CLOSED
        assert svc.breaker.probes == 2
        assert svc.stats().lost == 0

    def test_shed_values_carry_certified_exact_vertices(
        self, serve_graph, serve_cg, phase1_iterations
    ):
        from repro.resilience.anytime import CERT_EXACT

        svc = service(
            serve_graph, serve_cg, workers=1, breaker_cooldown_s=3600.0,
        )
        with svc:
            for _ in range(3):
                svc.submit(
                    "SSSP", source=0, max_iterations=phase1_iterations + 1
                ).result(timeout=30.0)
            shed = svc.submit("SSSP", source=0).result(timeout=30.0)
        assert shed.shed
        truth = evaluate_query(serve_graph, SSSP, 0)
        exact = shed.certificate == CERT_EXACT
        assert np.array_equal(shed.values[exact], truth[exact])


class TestShutdown:
    def test_close_resolves_backlog_as_shutdown(self, serve_graph, serve_cg):
        svc = service(serve_graph, serve_cg, workers=1)  # never started
        tickets = [svc.submit("SSSP", source=0) for _ in range(5)]
        svc.close()
        outcomes = [t.result(timeout=5.0) for t in tickets]
        assert all(o.status == STATUS_REJECTED for o in outcomes)
        assert all(o.rejection.reason == REASON_SHUTDOWN for o in outcomes)
        assert svc.stats().lost == 0

    def test_submit_after_close_rejects(self, serve_graph, serve_cg):
        svc = service(serve_graph, serve_cg)
        svc.start()
        svc.close()
        out = svc.submit("SSSP", source=0).result(timeout=5.0)
        assert out.status == STATUS_REJECTED
        assert out.rejection.reason == REASON_SHUTDOWN
        assert svc.stats().lost == 0

    def test_close_is_idempotent(self, serve_graph, serve_cg):
        svc = service(serve_graph, serve_cg)
        svc.start()
        svc.close()
        svc.close()
