"""Trace context propagation, journal stamping, and bucket exemplars."""

import threading

from repro import obs
from repro.obs import metrics, spans, trace
from repro.obs.live import prom


class TestTraceContext:
    def test_ids_are_process_unique(self):
        ids = {trace.new_span_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert trace.new_trace_id().startswith("t")

    def test_use_scopes_the_current_context(self):
        assert trace.current() is None
        ctx = trace.new_trace()
        with trace.use(ctx):
            assert trace.current() == ctx
            assert trace.current_trace_id() == ctx.trace_id
            inner = trace.new_trace()
            with trace.use(inner):
                assert trace.current() == inner
            assert trace.current() == ctx
        assert trace.current() is None

    def test_use_none_is_inert(self):
        with trace.use(None):
            assert trace.current() is None

    def test_context_is_thread_local(self):
        ctx = trace.new_trace()
        seen = {}

        def worker():
            seen["other"] = trace.current()

        with trace.use(ctx):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["other"] is None


class TestJournalStamping:
    def test_emit_stamps_active_trace(self, tmp_path):
        ctx = trace.new_trace()
        with obs.telemetry(trace_path=tmp_path / "j.jsonl"):
            with trace.use(ctx):
                obs.emit({"type": "event", "name": "engine.iter", "k": 1})
        (ev,) = [e for e in obs.read_events(tmp_path / "j.jsonl")
                 if e.get("name") == "engine.iter"]
        assert ev["k"] == 1 and ev["trace"] == ctx.trace_id

    def test_emit_without_context_is_not_stamped(self, tmp_path):
        with obs.telemetry(trace_path=tmp_path / "j.jsonl"):
            obs.emit({"type": "event", "name": "engine.iter"})
        (ev,) = [e for e in obs.read_events(tmp_path / "j.jsonl")
                 if e.get("name") == "engine.iter"]
        assert "trace" not in ev


class TestSpanParentage:
    def test_first_span_on_a_thread_parents_under_the_context(self):
        obs.enable()
        ctx = trace.new_trace()
        with trace.use(ctx):
            with obs.span("serve.execute"):
                with obs.span("twophase.core"):
                    pass
        recs = {r.name: r for r in spans.records()}
        outer, inner = recs["serve.execute"], recs["twophase.core"]
        assert outer.parent_span_id == ctx.span_id
        assert inner.parent_span_id == outer.span_id

    def test_cross_thread_spans_stitch_into_one_tree(self, tmp_path):
        ctx = trace.new_trace()

        def worker():
            with trace.use(ctx):
                with obs.span("serve.execute"):
                    pass

        with obs.telemetry(trace_path=tmp_path / "j.jsonl"):
            with trace.use(ctx):
                with obs.span("serve.admit"):
                    pass
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        captured = [e for e in obs.read_events(tmp_path / "j.jsonl")
                    if e.get("type") == "span"]
        by_name = {e["name"]: e for e in captured}
        assert by_name["serve.admit"]["parent_span_id"] == ctx.span_id
        assert by_name["serve.execute"]["parent_span_id"] == ctx.span_id
        assert all(e["trace"] == ctx.trace_id for e in captured)


class TestExemplars:
    def test_stream_hist_snapshot_carries_exemplars(self):
        obs.enable()
        h = metrics.stream_hist("obs.live.span_ms", span="x")
        h.observe(5.0, exemplar="tAAA")
        h.observe(5.0, exemplar="tBBB")  # same bucket: last wins
        h.observe(5000.0, exemplar="tCCC")
        snap = h.snapshot()
        ex = snap.exemplar_map()
        assert set(tid for tid, _ in ex.values()) == {"tBBB", "tCCC"}
        round_trip = type(snap).from_dict(snap.to_dict())
        assert round_trip.exemplars == snap.exemplars

    def test_prom_bucket_lines_carry_and_parse_exemplars(self):
        obs.enable()
        h = metrics.stream_hist("serve.latency.test_ms")
        h.observe(12.0, exemplar="tDDD")
        rows = [("stream_hist", "serve.latency.test_ms", (), h.snapshot())]
        text = prom.render(rows)
        assert '# {trace_id="tDDD"} 12' in text
        prom.parse(text)  # exemplar suffix must not break exposition
        found = prom.exemplars(text)
        assert any(tid == "tDDD" for tid, _ in found.values())
