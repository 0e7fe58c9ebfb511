"""Run summaries and their terminal, HTML and JSON rendering."""

from repro.obs import report

EVENTS = [
    {"type": "manifest", "seed": 7, "git_sha": "a" * 40,
     "python": "3.11.7", "experiment": "SSSP",
     "journal_path": "runs/demo.jsonl", "graph": {"num_vertices": 300,
                                                  "num_edges": 2400},
     "seq": 0, "t": 0.0},
    {"type": "event", "name": "graph.loaded", "graph": "PK",
     "seq": 1, "t": 0.001},
    {"type": "rounds", "engine": "frontier", "phase": "twophase.core",
     "frontier": [1, 4], "edges_scanned": [10, 30], "updates": [4, 2],
     "activated": [4, 2], "edges_skipped": [0, 0], "redundant": [0, 0],
     "seq": 3, "t": 0.006},
    {"type": "span", "name": "twophase.core", "duration_s": 0.002,
     "depth": 0, "seq": 4, "t": 0.01},
    {"type": "event", "name": "twophase.result", "query": "SSSP",
     "source": 3, "seq": 5, "t": 0.02},
    {"type": "metrics", "metrics": {
        'quality.phase1_precise_fraction{query="SSSP"}': 0.95,
        'quality.redundant_relaxations{query="SSSP"}': 12,
        "engine.edges_scanned": 40,
    }, "seq": 6, "t": 0.03},
]


def test_render_report_sections():
    text = report.render_report(EVENTS)
    assert "Run report — PK/SSSP/3" in text
    assert "Phase timing" in text
    assert "twophase.core" in text
    assert "Quality counters" in text
    assert "95.00%" in text  # phase1_precise_fraction as a percentage
    assert "higher better" in text and "lower better" in text
    assert "Convergence" in text


def test_render_report_from_file(tmp_path):
    import json

    path = tmp_path / "run.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in EVENTS))
    assert "Run report" in report.render_report(path)


def test_render_report_without_optional_sections():
    text = report.render_report([EVENTS[0]])
    assert "Run report" in text
    assert "Quality counters" not in text
    assert "Convergence" not in text


def test_report_payload_is_json_ready():
    """The --json path: the same summary structures, machine-readable."""
    import json

    events = EVENTS + [
        {"type": "span", "name": "serve.request", "duration_s": 0.004,
         "depth": 0, "span_id": "s1", "parent_span_id": None,
         "trace": "tZ", "status": "ok", "query": "SSSP", "request": 1,
         "seq": 7, "t": 0.04},
    ]
    payload = report.report_payload(events, source="run.jsonl")
    json.dumps(payload)  # every value must serialize
    assert payload["source"] == "run.jsonl"
    assert payload["manifest"]["seed"] == 7
    assert payload["key"]["graph"] == "PK"
    assert payload["key"]["query"] == "SSSP"
    assert payload["phases"]["twophase.core"]["total_s"] == 0.002
    assert payload["quality"]
    assert payload["metrics"]["engine.edges_scanned"] == 40
    assert payload["convergence"] == [
        {"phase": "twophase.core", "iterations": 2, "edges": 40,
         "updates": 6, "peak_frontier": 4},
    ]
    (trace_row,) = payload["traces"]
    assert trace_row["trace"] == "tZ"
    assert trace_row["status"] == "ok"


def test_render_html_self_contained(tmp_path):
    out = report.render_html(EVENTS, tmp_path / "sub" / "report.html")
    html = out.read_text()
    assert html.startswith("<!doctype html>")
    assert "<style>" in html
    assert "<svg" in html  # inline convergence curves
    assert "PK/SSSP/3" in html
    assert "quality.phase1_precise_fraction" in html
    # self-contained: no external assets
    assert "http://" not in html.replace("http://www.w3.org", "")
    assert "<script" not in html and "<link" not in html


def test_summarize_run_extracts_key_phases_metrics():
    events = EVENTS[:-1] + [{"type": "metrics", "metrics": {
        "engine.edges_skipped": 100.0,
        "hub.duration": {"count": 2, "sum": 3.0, "mean": 1.5},
        "telemetry.enabled": True,
    }, "seq": 6, "t": 0.03}]
    summary = report.summarize_run(events)
    assert summary.key["graph"] == "PK"
    assert summary.key["query"] == "SSSP"
    assert summary.key["source"] == 3
    assert summary.key["seed"] == 7
    assert summary.phases["twophase.core"] == {"count": 1, "total_s": 0.002}
    assert summary.metrics["engine.edges_skipped"] == 100.0
    # histograms flatten, booleans drop
    assert summary.metrics["hub.duration.count"] == 2.0
    assert summary.metrics["hub.duration.sum"] == 3.0
    assert "telemetry.enabled" not in summary.metrics
    assert summary.source == "runs/demo.jsonl"
    assert summary.label() == "PK/SSSP/3"


def test_summary_quality_view():
    summary = report.summarize_run(EVENTS)
    assert set(summary.quality) == {
        'quality.phase1_precise_fraction{query="SSSP"}',
        'quality.redundant_relaxations{query="SSSP"}',
    }


def test_summary_key_carries_graph_fingerprint():
    events = [dict(e) for e in EVENTS]
    events[1]["graph_fingerprint"] = "ab" * 16
    summary = report.summarize_run(events)
    assert summary.key["graph_fingerprint"] == "ab" * 16
    # Old journals without the field still summarize (key stays None).
    assert report.summarize_run(EVENTS).key["graph_fingerprint"] is None
