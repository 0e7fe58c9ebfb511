"""The dense ``first_visit`` round is the sparse round, computed differently.

A dense round has two shapes: a push sweep over the CSR in blocks of
``DENSE_BLOCK_EDGES`` edges, and, when ``blocked_dst`` is set, a pull over
the unblocked destinations' in-edges. Each case runs every shape against
the sparse round, chosen by monkeypatching the module constants:

* ``DENSE_DIVISOR`` huge makes every ``first_visit`` round with edges dense
  (the threshold ``|E| // divisor`` drops to 0); at 1 the threshold is
  ``|E|``, which no frontier exceeds, so every round is sparse;
* ``DENSE_BLOCK_EDGES`` of a few edges splits each sweep into many blocks;
* ``PULL_EDGE_COST`` 0 pulls every blocked dense round, and replacing
  ``_pull_targets`` by one that declines never pulls.

Values must be bit-identical and every per-round counter equal.
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
from repro.graph.csr import Graph
from repro.graph.transform import reverse
from repro.obs import runtime as obs_runtime
from repro.queries.registry import ALL_SPECS, get_spec

NEVER = 10**18
DEFAULTS = {
    name: getattr(frontier_mod, name)
    for name in (
        "DENSE_DIVISOR", "DENSE_BLOCK_EDGES", "PULL_EDGE_COST", "_pull_targets"
    )
}

SPARSE = {"DENSE_DIVISOR": 1}
DENSE = {"DENSE_DIVISOR": NEVER}
#: Blocks of three edges: most end inside a vertex's out-edges or on a
#: run of zero-out-degree vertices.
SMALL_BLOCKS = {"DENSE_DIVISOR": NEVER, "DENSE_BLOCK_EDGES": 3}
PUSH = {"DENSE_DIVISOR": NEVER, "_pull_targets": lambda *args: None}
PULL = {"DENSE_DIVISOR": NEVER, "PULL_EDGE_COST": 0}
PULL_SMALL_BLOCKS = {**PULL, "DENSE_BLOCK_EDGES": 3}
DENSE_SHAPES = {
    "dense": DENSE,
    "small-blocks": SMALL_BLOCKS,
    "push": PUSH,
    "pull": PULL,
    "pull-small-blocks": PULL_SMALL_BLOCKS,
}
TRIANGLE_SPECS = [s for s in ALL_SPECS if supports_triangle(s)]


@pytest.fixture(scope="module")
def zoo():
    g = load_zoo_graph("PK", scale_delta=-2)
    cgs = {spec.name: build_cg(g, spec, num_hubs=4) for spec in ALL_SPECS}
    return g, cgs


def _spy(monkeypatch, name):
    """Count calls into ``frontier_mod.<name>`` (so no case passes vacuously)."""
    calls = []
    real = getattr(frontier_mod, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(frontier_mod, name, spy)
    return calls


@pytest.fixture
def dense_calls(monkeypatch):
    return _spy(monkeypatch, "_dense_round")


@pytest.fixture
def pull_calls(monkeypatch):
    return _spy(monkeypatch, "_pull_sweep")


def _rounds(stats):
    return [
        (i.index, i.frontier_size, i.edges_scanned, i.updates, i.activated,
         i.edges_skipped, i.redundant,
         None if i.frontier is None else i.frontier.tolist())
        for i in stats.per_iteration
    ]


def _set_shape(mp, shape):
    for name, value in {**DEFAULTS, **shape}.items():
        mp.setattr(frontier_mod, name, value)


def _two_phase(monkeypatch, shape, g, cg, spec, triangle):
    _set_shape(monkeypatch, shape)
    source = None if spec.multi_source else 1
    with obs_runtime.enabled():
        return two_phase(
            g, cg, spec, source, triangle=triangle, keep_frontier=True
        )


def _assert_same(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert _rounds(got.phase1) == _rounds(want.phase1)
    assert _rounds(got.phase2) == _rounds(want.phase2)
    assert got.certified_precise == want.certified_precise


@pytest.mark.parametrize("triangle", (False, True), ids=("plain", "triangle"))
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_two_phase_dense_matches_sparse(
    monkeypatch, dense_calls, zoo, spec, triangle
):
    if triangle and not supports_triangle(spec):
        pytest.skip(f"Theorem 1 is not defined for {spec.name}")
    g, cgs = zoo
    cg = cgs[spec.name]
    sparse = _two_phase(monkeypatch, SPARSE, g, cg, spec, triangle)
    assert not dense_calls
    dense = _two_phase(monkeypatch, DENSE, g, cg, spec, triangle)
    assert dense_calls
    _assert_same(dense, sparse)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_multi_block_sweep_matches_sparse(monkeypatch, dense_calls, zoo, spec):
    g, cgs = zoo
    cg = cgs[spec.name]
    sparse = _two_phase(monkeypatch, SPARSE, g, cg, spec, False)
    blocked = _two_phase(monkeypatch, SMALL_BLOCKS, g, cg, spec, False)
    assert dense_calls
    # Among the counters: a destination improved from two blocks is one
    # improved vertex, so ``redundant`` must not grow with the blocks.
    _assert_same(blocked, sparse)


@pytest.mark.parametrize(
    "spec,triangle",
    [(get_spec("REACH"), False)] + [(s, True) for s in TRIANGLE_SPECS],
    ids=lambda x: getattr(x, "name", None) or ("triangle" if x else "plain"),
)
@pytest.mark.parametrize("pull", (PULL, PULL_SMALL_BLOCKS),
                         ids=("pull", "pull-small-blocks"))
def test_blocked_seed_pull_matches_push_and_sparse(
    monkeypatch, pull_calls, zoo, spec, triangle, pull
):
    g, cgs = zoo
    cg = cgs[spec.name]
    sparse = _two_phase(monkeypatch, SPARSE, g, cg, spec, triangle)
    push = _two_phase(monkeypatch, PUSH, g, cg, spec, triangle)
    assert not pull_calls
    pulled = _two_phase(monkeypatch, pull, g, cg, spec, triangle)
    assert pull_calls
    _assert_same(push, sparse)
    _assert_same(pulled, sparse)


def test_default_threshold_sweeps_the_seed_round(dense_calls, zoo):
    g, cgs = zoo
    spec = ALL_SPECS[0]
    two_phase(g, cgs[spec.name], spec, 1)
    assert len(dense_calls) >= 1


def test_saturated_reach_seed_round_pulls_by_default(pull_calls, zoo):
    # Saturation blocks every reached vertex, so the unblocked in-edges
    # are far fewer than the impacted frontier's out-edges.
    g, cgs = zoo
    res = two_phase(g, cgs["REACH"], get_spec("REACH"), 1)
    assert pull_calls
    assert res.phase2.per_iteration[0].edges_skipped > 0


def test_in_edge_index_follows_the_transpose_it_is_given():
    # Rows of 0 out of (dst) order: reverse(reverse(h)) would sort them,
    # but the transpose of reverse(h) is h itself, rows as they are.
    h = Graph(np.array([0, 3, 4, 5]), np.array([2, 1, 2, 0, 0]),
              np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    for g in (h, h.reverse()):
        rev, idx = g.reverse(), g.reverse_index()
        assert sorted(idx.tolist()) == list(range(g.num_edges))
        assert np.array_equal(rev.dst, g.edge_sources()[idx])
        assert np.array_equal(rev.edge_sources(), g.dst[idx])
        assert np.array_equal(rev.edge_weights(), g.edge_weights()[idx])
    assert h.reverse().reverse() is h
    assert reverse(h.reverse()) != h


@st.composite
def multigraph_round(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    src = rng.integers(0, n, m)
    # Some rows stay empty, so short blocks end on zero-degree runs.
    src = src[rng.random(m) < 0.8] if draw(st.booleans()) else src
    dst = rng.integers(0, n, src.size)
    # Few distinct small weights: parallel edges and tied candidates.
    g = from_arrays(n, src, dst, rng.integers(1, 4, src.size).astype(float))
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


@given(case=multigraph_round(), block=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_random_multigraph_round_equivalence(case, block):
    results = {}
    for name, shape in {"sparse": SPARSE, **DENSE_SHAPES}.items():
        if "DENSE_BLOCK_EDGES" in shape:
            shape = {**shape, "DENSE_BLOCK_EDGES": block}
        with pytest.MonkeyPatch.context() as mp:
            _set_shape(mp, shape)
            results[name] = _drive(*case)
    sparse = results.pop("sparse")
    for name, dense in results.items():
        assert dense[0].tobytes() == sparse[0].tobytes(), name
        assert np.array_equal(dense[1], sparse[1]), name
        assert dense[2] == sparse[2], name
