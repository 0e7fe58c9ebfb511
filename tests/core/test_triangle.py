"""Tests for Theorem 1 certificates: soundness on every supported query."""

import numpy as np
import pytest

from repro import obs
from repro.core.dispatch import build_cg
from repro.core.identify import build_core_graph
from repro.core.triangle import certify_precise, supports_triangle
from repro.core.twophase import two_phase
from repro.core.unweighted import build_unweighted_core_graph
from repro.datasets.zoo import load_zoo_graph
from repro.engines.frontier import evaluate_query
from repro.engines.stats import RunStats
from repro.generators.random_graphs import random_weighted_graph
from repro.queries.registry import get_spec
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC

WEIGHTED = (SSSP, SSNP, SSWP, VITERBI)


@pytest.fixture(scope="module")
def setup():
    g = random_weighted_graph(220, 1800, seed=41)
    cgs = {s.name: build_core_graph(g, s, num_hubs=6) for s in WEIGHTED}
    cgs["REACH"] = build_unweighted_core_graph(g, num_hubs=6)
    return g, cgs


class TestSupport:
    def test_supported_set(self):
        for spec in WEIGHTED + (REACH,):
            assert supports_triangle(spec)
        assert not supports_triangle(WCC)

    def test_wcc_rejected(self, setup):
        g, cgs = setup
        with pytest.raises(ValueError):
            certify_precise(cgs["REACH"], WCC, 0, np.zeros(g.num_vertices))


class TestSoundness:
    """A certificate must never mark an imprecise vertex as precise."""

    @pytest.mark.parametrize("spec", WEIGHTED, ids=lambda s: s.name)
    @pytest.mark.parametrize("source", [2, 55, 130])
    def test_certified_implies_precise(self, setup, spec, source):
        g, cgs = setup
        cg = cgs[spec.name]
        cg_vals = evaluate_query(cg.graph, spec, source)
        truth = evaluate_query(g, spec, source)
        certified = certify_precise(cg, spec, source, cg_vals)
        precise = spec.values_equal(cg_vals, truth)
        assert not np.any(certified & ~precise)

    @pytest.mark.parametrize("source", [2, 55, 130])
    def test_reach_certificates(self, setup, source):
        g, cgs = setup
        cg = cgs["REACH"]
        cg_vals = evaluate_query(cg.graph, REACH, source)
        truth = evaluate_query(g, REACH, source)
        certified = certify_precise(cg, REACH, source, cg_vals)
        assert np.array_equal(certified, cg_vals == 1.0)
        assert not np.any(certified & (truth != cg_vals))


class TestUsefulness:
    def test_hub_as_source_fully_certified_sssp(self, setup):
        """Querying from a hub itself: every CG-reached vertex should carry
        a certificate (cg == F[v] - F[h] with F[h] = 0)."""
        g, cgs = setup
        cg = cgs["SSSP"]
        hub = int(cg.hubs[0])
        cg_vals = evaluate_query(cg.graph, SSSP, hub)
        certified = certify_precise(cg, SSSP, hub, cg_vals)
        reached = SSSP.reached(cg_vals)
        assert np.array_equal(certified & reached, reached)

    @pytest.mark.parametrize("spec", (SSNP, SSWP), ids=lambda s: s.name)
    def test_nontrivial_certificates_found(self, setup, spec):
        g, cgs = setup
        certified = certify_precise(
            cgs[spec.name], spec, 7,
            evaluate_query(cgs[spec.name].graph, spec, 7),
        )
        assert certified.sum() > 0


# Work counts of a traced `two_phase(triangle=True)` on PK (default scale,
# 4 hubs, source 3). Per phase: (iterations, edges_processed, updates,
# redundant_relaxations, vertices_activated, edges_skipped); `direct` is
# `evaluate_query`'s (iterations, edges_processed). Table 12 runs only
# SSNP/Viterbi/SSWP, so these pin the SSSP and REACH certificates.
PK_COUNTS = {
    "SSSP": dict(
        core=(8, 5905, 2399, 674, 1725, 0),
        completion=(5, 21293, 201, 2, 199, 5746),
        impacted=1518, certified=256, precise_fraction=0.9033203125,
        direct=(8, 43588),
    ),
    "REACH": dict(
        core=(5, 4401, 1983, 466, 1517, 0),
        completion=(1, 0, 0, 0, 0, 23821),
        impacted=1518, certified=1518, precise_fraction=1.0,
        direct=(5, 23821),
    ),
}


def _counts(stats):
    return (stats.iterations, stats.edges_processed, stats.updates,
            stats.redundant_relaxations, stats.vertices_activated,
            stats.edges_skipped)


@pytest.mark.parametrize("query", sorted(PK_COUNTS))
def test_pk_certificate_work_counts_exact(query):
    want = PK_COUNTS[query]
    g = load_zoo_graph("PK", scale_delta=0)
    spec = get_spec(query)
    cg = build_cg(g, spec, num_hubs=4)
    direct = RunStats()
    # Telemetry on: redundant relaxations are only counted while tracing.
    with obs.telemetry():
        evaluate_query(g, spec, 3, stats=direct)
        result = two_phase(g, cg, spec, 3, triangle=True)
        quality = obs.quality.snapshot()

    assert (direct.iterations, direct.edges_processed) == want["direct"]
    assert _counts(result.phase1) == want["core"]
    assert _counts(result.phase2) == want["completion"]
    assert result.impacted == want["impacted"]
    assert result.certified_precise == want["certified"]
    label = f'{{query="{query}"}}'
    assert quality == {
        f"quality.phase1_precise_fraction{label}": want["precise_fraction"],
        f"quality.certified_fraction{label}":
            want["certified"] / g.num_vertices,
        f"quality.edges_skipped{label}": want["completion"][5],
        f"quality.redundant_relaxations{label}":
            want["core"][3] + want["completion"][3],
    }


@pytest.mark.parametrize("built,asked", [
    ("SSSP", "SSWP"), ("SSNP", "SSWP"), ("SSSP", "Viterbi"), ("SSWP", "SSSP"),
])
def test_certificates_refuse_another_querys_hub_values(built, asked):
    g = load_zoo_graph("PK", scale_delta=0)
    cg = build_cg(g, get_spec(built), num_hubs=4)
    with pytest.raises(ValueError, match=f"{asked}.*{built}"):
        two_phase(g, cg, get_spec(asked), 3, triangle=True)
