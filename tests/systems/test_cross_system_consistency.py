"""Cross-system consistency matrix: every simulator, every query kind,
every proxy — identical converged values.

The three system models (Subway, GridGraph, Ligra) are cost models
over the *same* algorithm; if any of them ever disagreed on
values, its speedup numbers would be meaningless. This module pins that
invariant across the full matrix.
"""

import numpy as np
import pytest

from repro.baselines.abstraction import build_abstraction_graph
from repro.core.dispatch import build_cg
from repro.engines.frontier import evaluate_query
from repro.generators.rmat import rmat
from repro.graph.weights import ligra_weights
from repro.queries.registry import ALL_SPECS, get_spec
from repro.systems.gridgraph import GridGraphSimulator
from repro.systems.ligra import LigraSimulator
from repro.systems.subway import SubwaySimulator

QUERIES = ("SSSP", "SSNP", "Viterbi", "SSWP", "REACH", "WCC")


@pytest.fixture(scope="module")
def world():
    g = ligra_weights(rmat(9, 9, seed=111), seed=112)
    sims = {
        "subway": SubwaySimulator(g),
        "gridgraph": GridGraphSimulator(g, p=3),
        "ligra": LigraSimulator(g),
    }
    cgs = {spec.name: build_cg(g, spec, num_hubs=5) for spec in ALL_SPECS}
    ag, _ = build_abstraction_graph(g, g.num_edges // 5)
    return g, sims, cgs, ag


@pytest.mark.parametrize("sim_name", (
    "subway", "gridgraph", "ligra"
))
@pytest.mark.parametrize("spec_name", QUERIES)
def test_baseline_values_match_engine(world, sim_name, spec_name):
    g, sims, _, _ = world
    spec = get_spec(spec_name)
    source = None if spec.multi_source else 7
    rep = sims[sim_name].baseline_run(spec, source)
    assert np.array_equal(rep.values, evaluate_query(g, spec, source))


@pytest.mark.parametrize("sim_name", (
    "subway", "gridgraph", "ligra"
))
@pytest.mark.parametrize("spec_name", QUERIES)
def test_two_phase_values_match_engine(world, sim_name, spec_name):
    g, sims, cgs, _ = world
    spec = get_spec(spec_name)
    source = None if spec.multi_source else 7
    rep = sims[sim_name].two_phase_run(cgs[spec.name], spec, source)
    assert np.array_equal(rep.values, evaluate_query(g, spec, source))


@pytest.mark.parametrize("sim_name", (
    "subway", "gridgraph", "ligra"
))
def test_two_phase_with_ag_proxy(world, sim_name):
    """Even a low-precision proxy must never change converged values."""
    g, sims, _, ag = world
    spec = get_spec("SSSP")
    rep = sims[sim_name].two_phase_run(ag, spec, 7)
    assert np.array_equal(rep.values, evaluate_query(g, spec, 7))


@pytest.mark.parametrize("spec_name", ("SSSP", "SSWP", "SSNP", "Viterbi"))
def test_triangle_mode_across_systems(world, spec_name):
    g, sims, cgs, _ = world
    spec = get_spec(spec_name)
    truth = evaluate_query(g, spec, 7)
    for sim in sims.values():
        rep = sim.two_phase_run(cgs[spec.name], spec, 7, triangle=True)
        assert np.array_equal(rep.values, truth)
