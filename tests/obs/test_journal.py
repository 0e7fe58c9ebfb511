"""JSONL journal round-trip and the telemetry context manager."""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase
from repro.generators.random_graphs import random_weighted_graph
from repro.obs import journal
from repro.obs.journal import Journal, build_manifest, read_events
from repro.queries import SSSP
from repro.serve import QueryService, ServiceConfig


def test_round_trip_write_parse(tmp_path):
    path = tmp_path / "run.jsonl"
    j = Journal(path, build_manifest(seed=7))
    j.emit({"type": "event", "name": "x", "value": np.int64(3)})
    j.emit({"type": "event", "name": "y", "arr": np.arange(3)})
    j.close()
    events = read_events(path)
    assert [e["type"] for e in events] == ["manifest", "event", "event"]
    assert events[1]["value"] == 3
    assert events[2]["arr"] == [0, 1, 2]
    # every line is independently valid JSON
    for line in path.read_text().splitlines():
        json.loads(line)


def test_manifest_captures_environment(tmp_path):
    manifest = build_manifest(
        config={"num_hubs": 4}, graph={"num_vertices": 10, "num_edges": 20},
        seed=42,
    )
    assert manifest["python"]
    assert manifest["numpy"] == np.__version__
    assert manifest["seed"] == 42
    assert manifest["config"] == {"num_hubs": 4}
    assert manifest["graph"]["num_edges"] == 20
    # inside this repo the SHA resolves to 40 hex chars
    assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40


def test_manifest_takes_graph_object(tmp_path, tiny_graph):
    manifest = build_manifest(graph=tiny_graph)
    assert manifest["graph"] == {
        "num_vertices": tiny_graph.num_vertices,
        "num_edges": tiny_graph.num_edges,
    }


def test_seq_and_t_are_monotonic(tmp_path):
    path = tmp_path / "run.jsonl"
    with Journal(path, build_manifest()) as j:
        for i in range(5):
            j.emit({"type": "event", "name": f"e{i}"})
    events = read_events(path)
    seqs = [e["seq"] for e in events]
    ts = [e["t"] for e in events]
    assert seqs == list(range(len(events)))
    assert ts == sorted(ts)


def test_emit_without_active_journal_is_a_noop():
    journal.emit({"type": "event", "name": "dropped"})  # must not raise
    assert journal.active_journal() is None


def test_only_one_journal_may_be_active(tmp_path):
    j = Journal(tmp_path / "a.jsonl")
    journal.activate(j)
    try:
        with pytest.raises(RuntimeError):
            journal.activate(Journal(tmp_path / "b.jsonl"))
    finally:
        journal.deactivate()
        j.close()


def test_telemetry_context_manages_lifecycle(tmp_path):
    path = tmp_path / "run.jsonl"
    assert not obs.is_enabled()
    with obs.telemetry(trace_path=path, seed=3) as j:
        assert obs.is_enabled()
        assert journal.active_journal() is j
        obs.counter("c").inc(2)
        obs.emit({"type": "event", "name": "inside"})
    assert not obs.is_enabled()
    assert journal.active_journal() is None
    events = read_events(path)
    assert events[0]["type"] == "manifest"
    assert events[0]["seed"] == 3
    assert any(e.get("name") == "inside" for e in events)
    final = events[-1]
    assert final["type"] == "metrics"
    assert final["metrics"]["c"] == 2


def test_telemetry_without_trace_path_still_enables():
    with obs.telemetry() as j:
        assert j is None
        assert obs.is_enabled()
        with obs.span("timed"):
            pass
    assert not obs.is_enabled()
    assert "timed" in obs.spans.summary()


def test_telemetry_fresh_resets_prior_state():
    obs.REGISTRY.counter("stale").inc()
    with obs.telemetry():
        assert obs.REGISTRY.snapshot() == {}


class TestAmbientContext:
    """Global + thread-local context stamped onto journaled events."""

    @pytest.fixture(autouse=True)
    def _clean_context(self):
        journal.clear_global_context()
        yield
        journal.clear_global_context()

    def _record(self, tmp_path, emit):
        path = tmp_path / "run.jsonl"
        j = Journal(path, build_manifest())
        journal.activate(j)
        try:
            emit()
        finally:
            journal.deactivate()
            j.close()
        return read_events(path)

    def test_global_context_stamps_events(self, tmp_path):
        journal.set_global_context(graph_fingerprint="ff" * 16)

        def emit():
            journal.emit({"type": "event", "name": "twophase.result"})
            journal.emit({"type": "span", "name": "x", "duration_s": 0.0})

        events = self._record(tmp_path, emit)
        ev = next(e for e in events if e.get("name") == "twophase.result")
        assert ev["graph_fingerprint"] == "ff" * 16
        # Only type == "event" payloads are stamped.
        sp = next(e for e in events if e.get("type") == "span")
        assert "graph_fingerprint" not in sp

    def test_scoped_context_overlays_and_restores(self, tmp_path):
        journal.set_global_context(graph_epoch=1)

        def emit():
            with journal.context(graph_epoch=4):
                journal.emit({"type": "event", "name": "inner"})
            journal.emit({"type": "event", "name": "outer"})

        events = self._record(tmp_path, emit)
        inner = next(e for e in events if e.get("name") == "inner")
        outer = next(e for e in events if e.get("name") == "outer")
        assert inner["graph_epoch"] == 4
        assert outer["graph_epoch"] == 1

    def test_explicit_fields_win_over_context(self, tmp_path):
        journal.set_global_context(graph_epoch=1)

        def emit():
            journal.emit(
                {"type": "event", "name": "e", "graph_epoch": 9}
            )

        events = self._record(tmp_path, emit)
        ev = next(e for e in events if e.get("name") == "e")
        assert ev["graph_epoch"] == 9

    def test_none_removes_global_key(self, tmp_path):
        journal.set_global_context(graph_epoch=1)
        journal.set_global_context(graph_epoch=None)

        def emit():
            journal.emit({"type": "event", "name": "e"})

        events = self._record(tmp_path, emit)
        ev = next(e for e in events if e.get("name") == "e")
        assert "graph_epoch" not in ev


def _walked(payload):
    """A journal line as encoded by walking every value through
    ``_jsonable`` before ``json.dumps``."""
    return json.dumps({k: journal._jsonable(v) for k, v in payload.items()})


@dataclass
class _Point:
    x: int
    y: float


_UNREPRESENTABLE = object()

ENCODING_EDGE_CASES = {
    "numpy_scalars": {
        "i64": np.int64(3), "u8": np.uint8(7), "f32": np.float32(0.1),
        "f64": np.float64(1.25), "b": np.bool_(True),
    },
    "numpy_arrays": {
        "ints": np.arange(4), "floats": np.array([0.5, np.inf, np.nan]),
        "matrix": np.zeros((2, 2)), "zero_d": np.array(3.0),
        "in_list": [np.arange(2), np.float32(2.5)],
    },
    "dataclass": {"point": _Point(1, 2.5), "nested": [_Point(3, np.nan)]},
    "path": {"path": Path("/a/b"), "in_dict": {"p": Path("x")}},
    "set": {"set": {3, 1, 2}, "frozen": frozenset({"a"}), "empty": set()},
    "non_finite": {
        "nan": float("nan"), "inf": float("inf"), "ninf": -np.inf,
        "nested": {"x": [np.float64("nan"), -float("inf")]},
    },
    "non_str_keys": {
        "int": {1: "a", 2: "b"}, "numpy": {np.int64(1): 2},
        "bool": {True: 1, False: 0}, "none": {None: 0},
        "float": {1.5: 0, float("nan"): 1, float("inf"): 2},
        "tuple": {(1, 2): 3}, "deep": [{"x": {False: 1}}],
    },
    "plain": {"tuple": (1, (2, "3")), "none": None, "text": "é\n\"q\""},
    "repr_fallback": {"object": _UNREPRESENTABLE, "in_list": [_UNREPRESENTABLE]},
}


@pytest.mark.parametrize("case", sorted(ENCODING_EDGE_CASES))
def test_encode_matches_the_walk_on_edge_cases(case):
    payload = {"type": "event", "name": case, **ENCODING_EDGE_CASES[case]}
    assert journal._encode(payload) == _walked(payload)


def test_encode_matches_the_walk_on_real_events(tmp_path, monkeypatch):
    """Every line a traced two_phase and a traced service write: the
    manifest, spans, ``rounds``, ``twophase.result``, ``serve.explain``."""
    seen = []
    encode = journal._encode
    monkeypatch.setattr(
        journal, "_encode", lambda payload: seen.append(payload) or encode(payload)
    )
    g = random_weighted_graph(200, 1600, seed=5)
    cg = build_cg(g, SSSP, num_hubs=4)
    with obs.telemetry(trace_path=tmp_path / "run.jsonl", config={"k": 1},
                       graph=g, seed=3):
        two_phase(g, cg, SSSP, 0, triangle=True)
        with QueryService(g, cg, ServiceConfig(workers=2)) as svc:
            for source in range(4):
                svc.submit("SSSP", source=source, max_iterations=2 + source)
            assert svc.drain(timeout=60.0)
    kinds = {(p["type"], p.get("name")) for p in seen}
    for kind in [("manifest", None), ("rounds", None), ("metrics", None),
                 ("event", "twophase.result"), ("event", "serve.explain"),
                 ("span", "twophase.core"), ("span", "serve.request")]:
        assert kind in kinds, kind
    for payload in seen:
        assert encode(payload) == _walked(payload), payload["type"]
