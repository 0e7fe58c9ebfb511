"""Journal readers behind ``obs report``: manifest and per-round series."""

import json

from repro.obs import report

EVENTS = [
    {"type": "manifest", "git_sha": "a" * 40, "python": "3.11.7",
     "numpy": "2.0", "config": {"num_hubs": 4},
     "journal_path": "runs/demo.jsonl", "seq": 0, "t": 0.0},
    {"type": "span", "name": "twophase.core", "duration_s": 0.002,
     "depth": 0, "parent": None, "seq": 3, "t": 0.01},
    {"type": "rounds", "engine": "frontier", "phase": "twophase.core",
     "frontier": [1, 4], "edges_scanned": [10, 30], "updates": [4, 2],
     "activated": [4, 2], "edges_skipped": [0, 5], "redundant": [1, 0],
     "thread": 1, "seq": 2, "t": 0.006},
    {"type": "rounds", "engine": "frontier", "phase": None,
     "frontier": [2], "edges_scanned": [7], "updates": [1], "activated": [1],
     "edges_skipped": [0], "redundant": [0], "thread": 1, "seq": 4, "t": 0.02},
    {"type": "metrics", "metrics": {
        'engine.edges_scanned{phase="twophase.core"}': 40,
        "hub.duration": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0,
                         "mean": 1.5},
    }, "seq": 5, "t": 0.03},
]


def _rounds(edges, **fields):
    """A phase-less ``rounds`` event whose rounds scanned ``edges``."""
    k = len(edges)
    return {"type": "rounds", "engine": "frontier", "phase": None,
            "frontier": [1] * k, "edges_scanned": list(edges),
            "updates": [0] * k, "activated": [0] * k,
            "edges_skipped": [0] * k, "redundant": [0] * k, **fields}


def test_manifest_of():
    assert report.manifest_of(EVENTS)["git_sha"] == "a" * 40
    assert report.manifest_of([]) == {}


def test_iteration_series_groups_by_phase():
    series = report.iteration_series(EVENTS)
    assert list(series) == ["twophase.core", "run"]
    assert [e["edges_scanned"] for e in series["twophase.core"]] == [10, 30]
    assert [e["edges_scanned"] for e in series["run"]] == [7]


def test_iteration_series_expands_rounds_with_todays_keys():
    series = report.iteration_series(EVENTS)
    assert series["twophase.core"] == [
        {"iteration": 0, "engine": "frontier", "phase": "twophase.core",
         "thread": 1, "t": 0.006, "frontier": 1, "edges_scanned": 10,
         "updates": 4, "activated": 4, "edges_skipped": 0, "redundant": 1},
        {"iteration": 1, "engine": "frontier", "phase": "twophase.core",
         "thread": 1, "t": 0.006, "frontier": 4, "edges_scanned": 30,
         "updates": 2, "activated": 2, "edges_skipped": 5, "redundant": 0},
    ]
    assert series["run"][0]["iteration"] == 0
    assert series["run"][0]["phase"] is None


def test_iteration_series_interleaved_threads_label_by_own_span():
    """Phase-less events from concurrent engines split by their thread's span.

    Two engines run in overlapping spans on different threads; their
    ``rounds`` events carry no ``phase``. Each must land in the span open on
    *its own* thread at its timestamp — not in whichever span happens to
    overlap in wall time.
    """
    events = [
        {"type": "span", "name": "twophase.core", "duration_s": 0.08,
         "depth": 0, "thread": 111, "start_t": 0.01, "seq": 10, "t": 0.09},
        {"type": "span", "name": "twophase.completion", "duration_s": 0.08,
         "depth": 0, "thread": 222, "start_t": 0.02, "seq": 11, "t": 0.10},
        # interleaved in time: 0.03 (t1), 0.04 (t2), 0.05 (t1), 0.06 (t2),
        # all inside both spans' wall-time intervals
        _rounds([1], thread=111, seq=1, t=0.03),
        _rounds([2], thread=222, seq=2, t=0.04),
        _rounds([3, 6], thread=111, seq=3, t=0.05),
        _rounds([4], thread=222, seq=4, t=0.06),
        # a third thread with no span at all -> "run"
        _rounds([5], thread=333, seq=5, t=0.05),
    ]
    series = report.iteration_series(events)
    assert [e["edges_scanned"] for e in series["twophase.core"]] == [1, 3, 6]
    assert [e["iteration"] for e in series["twophase.core"]] == [0, 0, 1]
    assert [e["edges_scanned"] for e in series["twophase.completion"]] == [2, 4]
    assert [e["edges_scanned"] for e in series["run"]] == [5]


def test_iteration_series_prefers_innermost_span():
    events = [
        {"type": "span", "name": "outer", "duration_s": 0.10, "depth": 0,
         "thread": 1, "start_t": 0.0, "seq": 10, "t": 0.10},
        {"type": "span", "name": "inner", "duration_s": 0.04, "depth": 1,
         "thread": 1, "start_t": 0.02, "seq": 11, "t": 0.06},
        _rounds([1], thread=1, seq=1, t=0.03),  # inside both
        _rounds([2], thread=1, seq=2, t=0.08),  # outer only
    ]
    series = report.iteration_series(events)
    assert [e["edges_scanned"] for e in series["inner"]] == [1]
    assert [e["edges_scanned"] for e in series["outer"]] == [2]


def test_iteration_series_span_start_falls_back_to_duration():
    # Journals written before start_t existed: start = t - duration_s.
    events = [
        {"type": "span", "name": "core", "duration_s": 0.05, "depth": 0,
         "thread": 1, "seq": 10, "t": 0.06},  # implies [0.01, 0.06]
        _rounds([9], thread=1, seq=1, t=0.02),
    ]
    series = report.iteration_series(events)
    assert [e["edges_scanned"] for e in series["core"]] == [9]


def test_roundtrip_from_file(tmp_path):
    path = tmp_path / "run.jsonl"
    with path.open("w") as fh:
        for event in EVENTS:
            fh.write(json.dumps(event) + "\n")
    assert report.manifest_of(path)["git_sha"] == "a" * 40
    assert list(report.iteration_series(path)) == ["twophase.core", "run"]
