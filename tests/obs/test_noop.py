"""The disabled path: no events, no records, shared inert objects."""

from repro import obs
from repro.obs import journal, spans
from repro.obs.spans import _NULL_SPAN


def test_span_returns_shared_null_object_when_disabled():
    a = obs.span("anything")
    b = obs.span("else", hub=3)
    assert a is b is _NULL_SPAN
    with a:
        assert spans.current_span_name() is None
    assert spans.records() == []


def test_disabled_run_adds_no_telemetry(tiny_graph):
    from repro.core.twophase import two_phase
    from repro.core.identify import build_core_graph
    from repro.engines.frontier import evaluate_query
    from repro.engines.scalar import scalar_evaluate
    from repro.queries.specs import SSSP

    assert not obs.is_enabled()
    cg = build_core_graph(tiny_graph, SSSP, num_hubs=2)
    two_phase(tiny_graph, cg, SSSP, source=0)
    evaluate_query(tiny_graph, SSSP, 0)
    scalar_evaluate(tiny_graph, SSSP, 0)
    assert spans.records() == []
    assert obs.REGISTRY.snapshot() == {}
    assert journal.active_journal() is None


def test_enabled_run_does_add_telemetry(tiny_graph, tmp_path):
    from repro.core.twophase import two_phase
    from repro.core.identify import build_core_graph
    from repro.queries.specs import SSSP

    with obs.telemetry(trace_path=tmp_path / "run.jsonl"):
        cg = build_core_graph(tiny_graph, SSSP, num_hubs=2)
        two_phase(tiny_graph, cg, SSSP, source=0)
    events = obs.read_events(tmp_path / "run.jsonl")
    names = {e.get("name") for e in events if e["type"] == "span"}
    assert {"cg.build", "cg.hub_query", "twophase.core",
            "twophase.completion"} <= names
    assert any(e["type"] == "rounds" for e in events)
    phases = {e.get("phase") for e in events if e["type"] == "rounds"}
    assert {"cg.hub_query", "twophase.core"} <= phases
    built = [e for e in events if e.get("name") == "cg.built"]
    assert built and built[0]["algorithm"] == "weighted"
    result = [e for e in events if e.get("name") == "twophase.result"]
    assert result and result[0]["impacted"] >= 1
    snap = obs.REGISTRY.snapshot()
    assert snap['twophase.impacted{query="SSSP"}'] == result[0]["impacted"]


def test_unweighted_build_emits_traversal_spans(tiny_graph):
    from repro.core.unweighted import build_unweighted_core_graph

    with obs.telemetry():
        build_unweighted_core_graph(tiny_graph, num_hubs=2)
    rollup = spans.summary()
    assert rollup["cg.build"]["count"] == 1
    assert rollup["cg.hub_traverse"]["count"] == 2


def test_scalar_engine_counts_work(tiny_graph):
    from repro.engines.scalar import scalar_evaluate
    from repro.queries.specs import SSSP

    with obs.telemetry():
        scalar_evaluate(tiny_graph, SSSP, 0)
    assert obs.REGISTRY.aggregate("engine.scalar.pops") > 0
    assert obs.REGISTRY.aggregate("engine.scalar.edges_scanned") > 0
