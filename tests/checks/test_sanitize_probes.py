"""Every sanitizer probe catches its deliberately broken mutant.

Mutants are real engines fed broken specs or tampered graphs — the
probes must catch corruption introduced *through* the normal execution
paths, not just hand-built bad arrays (though those are covered too).
"""

import dataclasses

import numpy as np
import pytest

from repro.checks.sanitize import (
    SanitizerViolation,
    disable,
    enable,
    enabled,
    is_enabled,
    probes,
)
from repro.core.identify import build_core_graph
from repro.core.twophase import two_phase
from repro.datasets.example import example_graph
from repro.engines.frontier import evaluate_query
from repro.engines.scalar import scalar_evaluate
from repro.graph.builder import from_edges
from repro.queries.base import QuerySpec
from repro.queries.registry import ALL_SPECS
from repro.queries.specs import SSSP, SSWP

BY_NAME = {s.name: s for s in ALL_SPECS}


class AssignReduce(QuerySpec):
    """Broken reduce: last-write-wins, ignoring the selection lattice."""

    def reduce_at(self, vals, idx, cand):
        vals[idx] = cand


class AlwaysBetter(QuerySpec):
    """Broken comparator: accepts every candidate, including regressions."""

    def better(self, a, b):
        return np.ones_like(np.broadcast_arrays(a, b)[0], dtype=bool)


def mutate(spec, cls, **overrides):
    kwargs = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    kwargs.update(overrides)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Monotonicity watchdog: all six query kinds, both selection directions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["SSSP", "SSNP", "Viterbi", "SSWP", "WCC"]
)
def test_watchdog_catches_broken_reduce(name):
    spec = BY_NAME[name]
    bad = mutate(spec, AssignReduce)
    src = None if spec.multi_source else 0
    with enabled(), pytest.raises(SanitizerViolation) as exc:
        evaluate_query(example_graph(), bad, source=src)
    assert exc.value.probe == "monotone_watchdog"


def test_watchdog_catches_broken_reach_propagate():
    # REACH candidates from reached vertices are always 1, so a broken
    # reduce alone cannot produce a wrong-direction write; a decaying
    # propagate plus last-write-wins can.
    bad = mutate(
        BY_NAME["REACH"], AssignReduce, propagate=lambda val, w: 0.5 * val
    )
    with enabled(), pytest.raises(SanitizerViolation) as exc:
        evaluate_query(example_graph(), bad, source=0)
    assert exc.value.probe == "monotone_watchdog"


def test_watchdog_direct_max_direction():
    with pytest.raises(SanitizerViolation):
        probes.monotone_watchdog(
            SSWP, np.array([5.0, 3.0]), np.array([5.0, 2.0]), "test"
        )


def test_watchdog_direct_min_direction():
    with pytest.raises(SanitizerViolation):
        probes.monotone_watchdog(
            SSSP, np.array([1.0]), np.array([2.0]), "test"
        )


def test_watchdog_tolerates_float_noise():
    vals = np.array([1.0, 2.0])
    probes.monotone_watchdog(SSSP, vals, vals * (1 + 1e-14), "test")


def test_watchdog_in_scalar_engine():
    bad = mutate(SSSP, AlwaysBetter)
    with enabled(), pytest.raises(SanitizerViolation) as exc:
        scalar_evaluate(example_graph(), bad, source=0)
    assert exc.value.probe == "monotone_watchdog"


def test_reduce_settled_catches_overwrite_in_dense_seed_round():
    # The core phase (proxy: 0->1 only) runs clean even last-write-wins.
    # The Completion Phase's dense seed round then sends two improving
    # candidates to vertex 2, 1.0 then 6.0; last-write-wins keeps 6.0.
    # Both improve on inf, so only the post-reduce probe can see it.
    g = from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 5.0)], num_vertices=3)
    proxy = from_edges([(0, 1, 1.0)], num_vertices=3)
    bad = mutate(SSSP, AssignReduce)
    with enabled(), pytest.raises(SanitizerViolation) as exc:
        two_phase(g, proxy, bad, source=0)
    assert exc.value.probe == "reduce_settled"


def test_reduce_settled_direct():
    with pytest.raises(SanitizerViolation):
        probes.check_reduce_settled(
            SSWP, np.array([4.0, 3.0]), np.array([4.0, 2.0]), "test"
        )
    probes.check_reduce_settled(
        SSSP, np.array([1.0, 6.0]), np.array([1.0, 1.0]), "test"
    )


def test_mutant_runs_unchecked_when_disabled():
    # The broken engine must run to completion with the sanitizer off —
    # proving the disabled path really is a no-op, not a cheaper check.
    assert not is_enabled()
    vals = evaluate_query(example_graph(), mutate(SSSP, AssignReduce), source=0)
    assert vals.shape == (example_graph().num_vertices,)


# ---------------------------------------------------------------------------
# Structural probes
# ---------------------------------------------------------------------------


def test_csr_probe_catches_tampered_dst():
    g = example_graph()
    g.dst[0] = g.num_vertices + 7  # out-of-range destination
    with enabled(), pytest.raises(SanitizerViolation) as exc:
        evaluate_query(g, SSSP, source=0)
    assert exc.value.probe == "csr"


def test_csr_probe_catches_nonfinite_weight():
    g = example_graph()
    g.weights[3] = np.inf
    with enabled(), pytest.raises(SanitizerViolation):
        probes.check_csr(g, "test")


def test_csr_probe_catches_decreasing_offsets():
    g = example_graph()
    g.offsets = g.offsets.copy()
    g.offsets[2] = g.offsets[3] + 1
    with pytest.raises(SanitizerViolation):
        probes.check_csr(g, "test")


def test_frontier_probe_catches_duplicates():
    with pytest.raises(SanitizerViolation):
        probes.check_frontier(np.array([1, 2, 2]), 10, "test")


def test_frontier_probe_catches_out_of_range():
    with pytest.raises(SanitizerViolation):
        probes.check_frontier(np.array([0, 11]), 10, "test")


def test_symmetrize_probe_catches_unsymmetrized():
    g = example_graph()
    with pytest.raises(SanitizerViolation):
        probes.check_symmetrized(g, g, "test")


# ---------------------------------------------------------------------------
# Core-graph containment (Algorithm 1's subset invariant)
# ---------------------------------------------------------------------------


def test_containment_catches_reweighted_edge():
    g = example_graph()
    cg = build_core_graph(g, SSSP, num_hubs=2)
    cg.graph.weights[0] += 0.5  # no longer an edge of G
    with enabled(), pytest.raises(SanitizerViolation) as exc:
        two_phase(g, cg, SSSP, source=0)
    assert exc.value.probe == "cg_containment"


def test_containment_catches_rewired_edge():
    g = example_graph()
    cg = build_core_graph(g, SSSP, num_hubs=2)
    cg.graph.dst[0] = (cg.graph.dst[0] + 1) % g.num_vertices
    with enabled(), pytest.raises(SanitizerViolation):
        probes.check_cg_containment(g, cg, "test")


def test_containment_passes_on_real_cg():
    g = example_graph()
    cg = build_core_graph(g, SSSP, num_hubs=2)
    probes.check_cg_containment(g, cg, "test")


# ---------------------------------------------------------------------------
# Theorem 1 certificate cross-audit
# ---------------------------------------------------------------------------


def test_certificate_audit_catches_false_certificate():
    g = example_graph()
    truth = evaluate_query(g, SSSP, source=0)
    vals = truth.copy()
    victim = int(np.flatnonzero(np.isfinite(truth) & (truth > 0))[0])
    vals[victim] = truth[victim] + 5.0  # imprecise, yet "certified"
    certified = np.zeros(g.num_vertices, dtype=bool)
    certified[victim] = True
    with pytest.raises(SanitizerViolation) as exc:
        probes.audit_certified_fixed_point(g, SSSP, vals, certified, "test")
    assert exc.value.probe == "certificate_audit"


def test_certificate_audit_passes_at_fixed_point():
    g = example_graph()
    truth = evaluate_query(g, SSSP, source=0)
    certified = np.isfinite(truth)
    probes.audit_certified_fixed_point(g, SSSP, truth, certified, "test")


# ---------------------------------------------------------------------------
# Metric-name audit
# ---------------------------------------------------------------------------


def test_metric_audit_catches_unregistered_name(monkeypatch):
    from repro.obs import metrics as obs_metrics

    fresh = obs_metrics.MetricsRegistry()
    monkeypatch.setattr(obs_metrics, "REGISTRY", fresh)
    fresh.counter("engine.itertions").inc()  # typo'd, not in the catalog
    with pytest.raises(SanitizerViolation) as exc:
        probes.audit_metric_names("test")
    assert "engine.itertions" in str(exc.value)


def test_metric_audit_passes_on_registered_names(monkeypatch):
    from repro.obs import metrics as obs_metrics

    fresh = obs_metrics.MetricsRegistry()
    monkeypatch.setattr(obs_metrics, "REGISTRY", fresh)
    fresh.counter("engine.iterations", phase="core").inc()
    probes.audit_metric_names("test")


# ---------------------------------------------------------------------------
# Runtime switch
# ---------------------------------------------------------------------------


def test_enable_disable_roundtrip():
    assert not is_enabled()
    enable()
    try:
        assert is_enabled()
    finally:
        disable()
    assert not is_enabled()


def test_enabled_context_restores_prior_state():
    assert not is_enabled()
    with enabled():
        assert is_enabled()
        with enabled(False):
            assert not is_enabled()
        assert is_enabled()
    assert not is_enabled()


def test_violation_carries_probe_site_detail():
    with pytest.raises(SanitizerViolation) as exc:
        probes.check_frontier(np.array([5, 5]), 10, "engine.test")
    v = exc.value
    assert v.probe == "frontier"
    assert v.site == "engine.test"
    assert "engine.test" in str(v)


def test_violation_counted_and_journaled(tmp_path):
    from repro import obs

    journal_path = tmp_path / "j.jsonl"
    with obs.telemetry(trace_path=journal_path):
        with pytest.raises(SanitizerViolation):
            probes.check_frontier(np.array([3, 3]), 10, "engine.test")
    from repro.obs.journal import read_events

    events = [
        e for e in read_events(journal_path)
        if e.get("name") == "sanitizer.violation"
    ]
    assert events and events[0]["probe"] == "frontier"
