"""Journal round-trips of real multi-phase runs.

A traced 2Phase evaluation must be fully reconstructible from its journal:
the ``twophase.result`` event and final metrics snapshot reproduce the live
:class:`TwoPhaseResult`, and the per-iteration series reproduce the live
:class:`RunStats` of each phase.
"""

import pytest

from repro import obs
from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase
from repro.obs import report
from repro.queries.registry import get_spec


@pytest.fixture()
def traced_run(medium_graph, tmp_path):
    spec = get_spec("SSSP")
    cg = build_cg(medium_graph, spec, num_hubs=4)
    path = tmp_path / "run.jsonl"
    with obs.telemetry(trace_path=path, graph=medium_graph, seed=7,
                       experiment="SSSP"):
        result = two_phase(medium_graph, cg, spec, source=0, triangle=True)
    return result, list(obs.read_events(path))


def test_result_event_matches_live_result(traced_run):
    result, events = traced_run
    event = next(
        e for e in events
        if e.get("type") == "event" and e.get("name") == "twophase.result"
    )
    assert event["impacted"] == result.impacted
    assert event["certified_precise"] == result.certified_precise
    assert event["edges_skipped"] == result.phase2.edges_skipped
    assert event["phase1"]["edges_processed"] == result.phase1.edges_processed
    assert event["phase2"]["iterations"] == result.phase2.iterations


def test_metrics_snapshot_matches_live_gauges(traced_run):
    result, events = traced_run
    snapshot = [e for e in events if e.get("type") == "metrics"][-1]["metrics"]
    assert snapshot['twophase.impacted{query="SSSP"}'] == result.impacted
    assert snapshot[
        'twophase.certified_precise{query="SSSP"}'
    ] == result.certified_precise
    frac = snapshot['quality.phase1_precise_fraction{query="SSSP"}']
    assert 0.0 <= frac <= 1.0
    assert snapshot[
        'quality.edges_skipped{query="SSSP"}'
    ] == result.phase2.edges_skipped
    for phase, stats in (("twophase.core", result.phase1),
                         ("twophase.completion", result.phase2)):
        label = f'{{phase="{phase}"}}'
        for metric, want in (
            ("engine.edges_scanned", stats.edges_processed),
            ("engine.updates", stats.updates),
            ("engine.vertices_activated", stats.vertices_activated),
            ("engine.edges_skipped", stats.edges_skipped),
            ("engine.redundant_relaxations", stats.redundant_relaxations),
        ):
            assert snapshot[metric + label] == want, (metric, phase)


def test_iteration_series_reproduces_per_phase_stats(traced_run):
    result, events = traced_run
    series = report.iteration_series(events)
    for label, stats in (
        ("twophase.core", result.phase1),
        ("twophase.completion", result.phase2),
    ):
        its = series[label]
        assert len(its) == stats.iterations
        assert sum(i["edges_scanned"] for i in its) == stats.edges_processed
        assert sum(i["updates"] for i in its) == stats.updates
        assert sum(i["edges_skipped"] for i in its) == stats.edges_skipped
        assert sum(i["redundant"] for i in its) == stats.redundant_relaxations
        assert [i["frontier"] for i in its] == [
            info.frontier_size for info in stats.per_iteration
        ]


def test_journal_events_carry_thread_and_span_start(traced_run):
    _, events = traced_run
    spans = [e for e in events if e.get("type") == "span"]
    assert spans, "traced run journaled no spans"
    for event in spans:
        assert "thread" in event
        assert "start_t" in event
        assert event["start_t"] <= event["t"]
