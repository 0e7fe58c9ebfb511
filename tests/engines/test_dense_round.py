"""The dense ``first_visit`` round is the sparse round, computed differently.

Every case runs twice: with ``DENSE_DIVISOR`` huge (the threshold
``|E| // divisor`` drops to 0, so every ``first_visit`` round with edges
sweeps densely) and with it at 1 (the threshold is ``|E|``, which no
frontier exceeds, so every round is sparse). Values must be bit-identical
and every per-round counter equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import build_cg
from repro.core.triangle import supports_triangle
from repro.core.twophase import two_phase
from repro.datasets.zoo import load_zoo_graph
from repro.engines import frontier as frontier_mod
from repro.engines.frontier import push_iterations
from repro.graph.builder import from_arrays
from repro.obs import runtime as obs_runtime
from repro.queries.registry import ALL_SPECS

ALL_DENSE = 10**18
ALL_SPARSE = 1


@pytest.fixture(scope="module")
def zoo():
    g = load_zoo_graph("PK", scale_delta=-2)
    cgs = {spec.name: build_cg(g, spec, num_hubs=4) for spec in ALL_SPECS}
    return g, cgs


@pytest.fixture
def dense_calls(monkeypatch):
    """Count calls into the dense branch (so a case cannot pass vacuously)."""
    calls = []
    real = frontier_mod._dense_round

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(frontier_mod, "_dense_round", spy)
    return calls


def _rounds(stats):
    return [
        (i.index, i.frontier_size, i.edges_scanned, i.updates, i.activated,
         i.edges_skipped, i.redundant,
         None if i.frontier is None else i.frontier.tolist())
        for i in stats.per_iteration
    ]


def _two_phase(monkeypatch, divisor, g, cg, spec, triangle):
    monkeypatch.setattr(frontier_mod, "DENSE_DIVISOR", divisor)
    source = None if spec.multi_source else 1
    with obs_runtime.enabled():
        return two_phase(
            g, cg, spec, source, triangle=triangle, keep_frontier=True
        )


@pytest.mark.parametrize("triangle", (False, True), ids=("plain", "triangle"))
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_two_phase_dense_matches_sparse(
    monkeypatch, dense_calls, zoo, spec, triangle
):
    if triangle and not supports_triangle(spec):
        pytest.skip(f"Theorem 1 is not defined for {spec.name}")
    g, cgs = zoo
    cg = cgs[spec.name]
    sparse = _two_phase(monkeypatch, ALL_SPARSE, g, cg, spec, triangle)
    assert not dense_calls
    dense = _two_phase(monkeypatch, ALL_DENSE, g, cg, spec, triangle)
    assert dense_calls
    assert dense.values.tobytes() == sparse.values.tobytes()
    assert _rounds(dense.phase1) == _rounds(sparse.phase1)
    assert _rounds(dense.phase2) == _rounds(sparse.phase2)
    assert dense.certified_precise == sparse.certified_precise


def test_default_threshold_sweeps_the_seed_round(dense_calls, zoo):
    g, cgs = zoo
    spec = ALL_SPECS[0]
    two_phase(g, cgs[spec.name], spec, 1)
    assert len(dense_calls) >= 1


@st.composite
def multigraph_round(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    # Few distinct small weights: parallel edges and tied candidates.
    g = from_arrays(n, src, dst, rng.integers(1, 4, m).astype(float))
    spec = draw(st.sampled_from(ALL_SPECS))
    vals = spec.initial_values(n, 0)
    reached = rng.random(n) < 0.6
    vals[reached] = rng.integers(0, 6, int(reached.sum())) / 4.0
    frontier = np.flatnonzero(rng.random(n) < 0.7)
    visited = rng.random(n) < 0.5
    visited[frontier] = True
    blocked = rng.random(n) < 0.3 if draw(st.booleans()) else None
    return g, spec, vals, frontier, visited, blocked


def _drive(g, spec, vals, frontier, visited, blocked):
    vals, visited = vals.copy(), visited.copy()
    with obs_runtime.enabled():
        rounds = [
            (info.frontier_size, info.edges_scanned, info.updates,
             info.activated, info.edges_skipped, info.redundant,
             info.frontier.tolist())
            for info in push_iterations(
                g, spec, vals, frontier, first_visit=True, visited=visited,
                blocked_dst=blocked, keep_frontier=True,
            )
        ]
    return vals, visited, rounds


@given(case=multigraph_round())
@settings(max_examples=150, deadline=None)
def test_random_multigraph_round_equivalence(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_mod, "DENSE_DIVISOR", ALL_SPARSE)
        sparse = _drive(*case)
        mp.setattr(frontier_mod, "DENSE_DIVISOR", ALL_DENSE)
        dense = _drive(*case)
    assert dense[0].tobytes() == sparse[0].tobytes()
    assert np.array_equal(dense[1], sparse[1])
    assert dense[2] == sparse[2]

