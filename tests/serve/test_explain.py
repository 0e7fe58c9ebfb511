"""Per-request explain records and end-to-end trace reconstruction.

The acceptance bar for the tracing plane: every non-rejected request in a
chaos run must yield a reconstructable causal tree in the journal
(admission -> queue -> worker -> engine phases, zero orphan spans), next
to its ``serve.explain`` record.
"""

from collections import Counter

import pytest

from repro import obs
from repro.evolve import EpochMaintainer, next_batch
from repro.obs import traceview
from repro.obs.metrics import format_metric
from repro.queries import SSSP
from repro.resilience import faults
from repro.resilience.anytime import certificate_counts
from repro.serve import QueryService, ServiceConfig
from repro.serve import service as service_mod


@pytest.fixture(autouse=True)
def clean_slate():
    faults.clear()
    obs.reset()
    obs.disable()
    yield
    faults.clear()
    obs.reset()
    obs.disable()


def service(g, cg, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("queue_capacity", 64)
    return QueryService(g, cg, ServiceConfig(**kw))


def _journaled_explain(journal_path, outcome):
    """The one ``serve.explain`` event journaled for ``outcome``'s trace."""
    tid = outcome.request.trace_id
    (ex,) = [e for e in _explains(journal_path) if e["trace"] == tid]
    return ex


class TestExplainContent:
    def test_done_request_has_the_full_story(
        self, serve_graph, serve_cg, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        with obs.telemetry(trace_path=journal_path):
            with service(serve_graph, serve_cg) as svc:
                ticket = svc.submit("SSSP", source=0)
                out = ticket.result(timeout=30.0)
                assert svc.drain(timeout=30.0)
        assert out.status == "ok"
        ex = _journaled_explain(journal_path, out)
        assert ex["status"] == "ok"
        assert ex["query"] == "SSSP"
        assert ex["admitted"] is True
        assert "sampled" not in ex and "sample_reason" not in ex
        # phase breakdown straight from the engines
        assert ex["phase1"]["iterations"] >= 1
        assert ex["phase2"]["edges_processed"] >= 0
        assert ex["impacted"] >= 0
        assert 0.0 < ex["cg_edge_fraction"] < 1.0
        assert ex["hubs"] == 8
        assert 0.0 <= ex["certified_fraction"] <= 1.0
        assert ex["certificate"] == certificate_counts(out.certificate)
        assert ex["certificate"]["exact"] >= 1  # the source, at least
        assert ex["queue_wait_ms"] >= 0.0
        assert ex["service_ms"] > 0.0
        assert ex["breaker_state"]

    def test_degraded_request_names_the_budget(
        self, serve_graph, serve_cg, phase1_iterations, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        with obs.telemetry(trace_path=journal_path):
            with service(serve_graph, serve_cg, workers=1) as svc:
                out = svc.submit(
                    "SSSP", source=0, max_iterations=phase1_iterations + 1
                ).result(timeout=30.0)
        assert out.status == "degraded"
        ex = _journaled_explain(journal_path, out)
        assert ex["status"] == "degraded"
        assert ex["degraded_phase"] == 2
        assert ex["budget"]["max_iterations"] == phase1_iterations + 1
        assert "exceeded" in ex["budget"]

    def test_rejected_request_explains_the_door(
        self, serve_graph, serve_cg, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        with obs.telemetry(trace_path=journal_path):
            with service(serve_graph, serve_cg) as svc:
                out = svc.submit("SSSP", source=0, deadline_s=-1.0).result(
                    timeout=30.0
                )
        assert out.status == "rejected"
        ex = _journaled_explain(journal_path, out)
        assert ex["admitted"] is False
        assert ex["reason"] == "deadline_unmeetable"
        assert "phase1" not in ex  # never executed
        assert ex["service_ms"] == 0.0


def _explains(journal_path):
    return [
        ev for ev in obs.read_events(journal_path)
        if ev.get("type") == "event" and ev.get("name") == "serve.explain"
    ]


def _drive_ok(svc, phase1):
    svc.submit("SSSP", source=0)


def _drive_budget_degraded(svc, phase1):
    svc.submit("SSSP", source=0, max_iterations=phase1 + 1)


def _drive_shed_degraded(svc, phase1):
    # One worker runs these in order: three Completion-Phase blowups trip
    # the breaker (cooldown an hour), and the last request's completion
    # is shed.
    for _ in range(3):
        svc.submit("SSSP", source=0, max_iterations=phase1 + 1)
    svc.submit("SSSP", source=1)


def _drive_queue_full(svc, phase1):
    for _ in range(4):  # capacity 2: two admitted, two turned away
        svc.submit("SSSP", source=0)


def _drive_deadline_unmeetable(svc, phase1):
    svc.submit("SSSP", source=0, deadline_s=-1.0)


def _drive_shutdown(svc, phase1):
    # The service is never started: close() resolves the backlog.
    for _ in range(3):
        svc.submit("SSSP", source=0)


def _drive_failed(svc, phase1):
    faults.install("serve.worker.request", "crash", at_hit=1, repeat=True)
    svc.submit("SSSP", source=0)


#: kind -> (ServiceConfig overrides, driver, the explain (status, reason,
#: shed) it must produce at least once)
TERMINAL_KINDS = {
    "ok": ({}, _drive_ok, ("ok", None, False)),
    "budget_degraded": (
        {}, _drive_budget_degraded, ("degraded", None, False)),
    "shed_degraded": (
        {"breaker_cooldown_s": 3600.0},
        _drive_shed_degraded, ("degraded", None, True)),
    "queue_full": (
        {"queue_capacity": 2}, _drive_queue_full,
        ("rejected", "queue_full", False)),
    "deadline_unmeetable": (
        {}, _drive_deadline_unmeetable,
        ("rejected", "deadline_unmeetable", False)),
    "shutdown": ({}, _drive_shutdown, ("rejected", "shutdown", False)),
    "failed": ({}, _drive_failed, ("failed", None, False)),
    "stale": ({}, _drive_ok, ("ok", None, False)),
}


class TestOneTerminalRecord:
    """Every terminal kind is counted once: the ServiceStats snapshot, the
    exporter rows, the registry totals folded at close() and the journaled
    ``serve.explain`` events are the same numbers."""

    @pytest.mark.parametrize("kind", sorted(TERMINAL_KINDS))
    def test_stats_rows_and_explain_events_agree(
        self, kind, serve_graph, serve_cg, phase1_iterations, tmp_path,
        monkeypatch,
    ):
        overrides, drive, (status, reason, shed) = TERMINAL_KINDS[kind]
        config = ServiceConfig(workers=1, **overrides)
        if kind == "stale":
            # A live service whose every execution is overtaken by a
            # mutation batch: each answer resolves on a superseded epoch.
            maintainer = EpochMaintainer(serve_graph, SSSP, num_hubs=8)
            real_two_phase = service_mod.two_phase

            def overtaken(*args, **kwargs):
                batch = next_batch(maintainer.graph, 0, batch_size=4, seed=3)
                maintainer.apply(batch.inserts, batch.deletes)
                return real_two_phase(*args, **kwargs)

            monkeypatch.setattr(service_mod, "two_phase", overtaken)
            svc = QueryService(config=config, epochs=maintainer.store)
        else:
            svc = QueryService(serve_graph, serve_cg, config)
        journal_path = tmp_path / f"{kind}.jsonl"
        with obs.telemetry(trace_path=journal_path):
            # Each driver submits to the not-yet-started service, so its
            # requests are queued (or turned away) before any worker runs.
            drive(svc, phase1_iterations)
            if kind == "shutdown":
                svc.close()
            else:
                with svc:
                    assert svc.drain(timeout=60.0)
        stats = svc.stats()
        explains = _explains(journal_path)
        assert any(
            (e["status"], e.get("reason"), e["shed"]) == (status, reason, shed)
            and ("staleness" in e) == (kind == "stale")
            for e in explains
        ), f"no {kind} request among {explains}"

        by_status = Counter(e["status"] for e in explains)
        by_reason = Counter(e.get("reason") for e in explains)
        expected = {
            "submitted": len(explains),
            "completed": by_status["ok"],
            "degraded": by_status["degraded"],
            "failed": by_status["failed"],
            "rejected_queue_full": by_reason["queue_full"],
            "rejected_deadline": by_reason["deadline_unmeetable"],
            "rejected_shutdown": by_reason["shutdown"],
            "shed_completions": sum(e["shed"] for e in explains),
            "stale_answers": sum("staleness" in e for e in explains),
        }
        assert {k: getattr(stats, k) for k in expected} == expected
        assert stats.rejected == by_status["rejected"]
        if kind != "shutdown":
            # (a backlog entry closed out before any worker saw it has no
            # queue wait, which the explain record reads as "not admitted")
            assert stats.admitted == sum(e["admitted"] for e in explains)
        assert stats.lost == 0

        rows = {
            format_metric(name, labels): value
            for _, name, labels, value in svc.metric_rows()
        }
        served = by_status["ok"] + by_status["degraded"]
        scraped = {
            "serve.submitted": len(explains),
            "serve.admitted": stats.admitted,
            "serve.completed": by_status["ok"],
            "serve.degraded": by_status["degraded"],
            "serve.failed": by_status["failed"],
            "serve.poisoned": by_status["failed"],
            "serve.shed": expected["shed_completions"],
            'serve.rejected{reason="queue_full"}': by_reason["queue_full"],
            'serve.rejected{reason="deadline_unmeetable"}':
                by_reason["deadline_unmeetable"],
            'serve.rejected{reason="shutdown"}': by_reason["shutdown"],
            "evolve.stale_answers": expected["stale_answers"],
            "serve.lost": 0,
        }
        assert {k: rows[k] for k in scraped} == scraped
        assert rows["serve.latency_ms"].count == served
        assert rows["serve.queue_wait_ms"].count == served

        # close() folded the same totals into the registry, so the
        # journal's closing snapshot (and --metrics tables) carry them.
        (closing,) = [
            ev["metrics"] for ev in obs.read_events(journal_path)
            if ev.get("type") == "metrics"
        ]
        for key, value in scraped.items():
            if key != "serve.lost":
                assert closing.get(key, 0) == value, key
        assert closing["serve.latency_ms"]["count"] == served

    def test_one_wide_event_per_request_and_no_request_event(
        self, serve_graph, serve_cg, tmp_path
    ):
        journal_path = tmp_path / "smoke.jsonl"
        with obs.telemetry(trace_path=journal_path):
            with service(serve_graph, serve_cg) as svc:
                for i in range(32):
                    svc.submit("SSSP", source=i % 16)
                assert svc.drain(timeout=120.0)
        events = obs.read_events(journal_path)
        assert len(_explains(journal_path)) == 32
        assert not [
            ev for ev in events
            if ev.get("type") == "event" and ev.get("name") == "serve.request"
        ]
        roots = [
            ev for ev in events
            if ev.get("type") == "span" and ev.get("name") == "serve.request"
        ]
        assert len(roots) == 32
        assert svc.stats().lost == 0


class TestChaosTraceReconstruction:
    def test_every_request_yields_a_complete_causal_tree(
        self, serve_graph, serve_cg, tmp_path, phase1_iterations
    ):
        """The headline invariant: chaos traffic, zero orphan spans."""
        journal_path = tmp_path / "chaos.jsonl"
        faults.install("serve.worker.request", "crash", at_hit=3)
        with obs.telemetry(trace_path=journal_path, seed=7):
            with service(serve_graph, serve_cg) as svc:
                tickets = [
                    svc.submit(
                        "SSSP", source=i,
                        max_iterations=(
                            phase1_iterations + 1 if i % 4 == 0 else None
                        ),
                    )
                    for i in range(12)
                ]
                assert svc.drain(timeout=120.0)
        outcomes = {t.request.trace_id: t.result(1.0) for t in tickets}
        statuses = {o.status for o in outcomes.values()}
        assert "degraded" in statuses  # the budgeted ones
        events = obs.read_events(journal_path)
        tids = traceview.trace_ids(events)
        assert set(tids) == set(outcomes)
        for tid in tids:
            tree = traceview.build_tree(events, tid)
            assert tree.orphans == [], (
                f"trace {tid}: broken causal chain "
                f"{[o.name for o in tree.orphans]}"
            )
            roots = [r.name for r in tree.roots]
            assert roots == ["serve.request"]
            names = {n.name for n in tree.all_nodes()}
            assert "serve.admit" in names
            assert {"serve.queue.wait", "serve.execute"} <= names
            # the explain wide event rode the same trace
            assert traceview.find_explain(events, tid) is not None
        assert svc.stats().lost == 0

    def test_pick_and_render_a_degraded_trace(
        self, serve_graph, serve_cg, tmp_path, phase1_iterations
    ):
        """What the CI smoke does: pick a degraded trace, render it."""
        journal_path = tmp_path / "run.jsonl"
        with obs.telemetry(trace_path=journal_path):
            with service(serve_graph, serve_cg, workers=1) as svc:
                svc.submit("SSSP", source=0)
                svc.submit(
                    "SSSP", source=1,
                    max_iterations=phase1_iterations + 1,
                )
                assert svc.drain(timeout=60.0)
        events = obs.read_events(journal_path)
        tid = traceview.pick_trace(events, "degraded")
        assert tid is not None
        tree = traceview.build_tree(events, tid)
        text = traceview.render_trace(tree)
        assert "serve.request" in text and "ORPHAN" not in text
        explain = traceview.find_explain(events, tid)
        assert explain["degraded_phase"] == 2
        out = traceview.render_trace_html(
            tree, tmp_path / "trace.html", explain=explain
        )
        assert out.read_text().startswith("<!doctype html>")
