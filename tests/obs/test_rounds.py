"""The frontier engine reports its telemetry once per run.

Each ``push_iterations`` run bumps the six ``engine.*`` counters once, by
its totals, and journals one ``rounds`` event with one column entry per
round; :func:`repro.obs.report.iteration_series` expands it back into
per-round dicts. These tests pin the numbers to independent counts.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase
from repro.engines.frontier import push_iterations
from repro.engines.stats import RunStats
from repro.graph.builder import from_arrays
from repro.obs import report
from repro.obs import runtime as obs_runtime
from repro.queries.registry import get_spec
from repro.resilience.budget import Budget, BudgetExceeded

#: Each ``engine.*`` counter and the ``rounds`` column it totals.
COUNTERS = (
    ("engine.edges_scanned", "edges_scanned"),
    ("engine.updates", "updates"),
    ("engine.vertices_activated", "activated"),
    ("engine.edges_skipped", "edges_skipped"),
    ("engine.redundant_relaxations", "redundant"),
)


def _multigraph(seed):
    """40 vertices, each edge drawn three times with different weights."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 40, 120)
    dst = rng.integers(0, 40, 120)
    src, dst = np.tile(src, 3), np.tile(dst, 3)
    return from_arrays(40, src, dst, rng.uniform(1.0, 9.0, src.size))


def _traced_rounds(g, spec, source):
    """Run traced round by round; check each ``redundant`` independently.

    Returns the values, the per-round counters and how many losers of the
    reduce race the run had.
    """
    vals = spec.initial_values(g.num_vertices, source)
    weights = spec.weight_transform(g.edge_weights())
    src, dst = g.edge_sources(), g.dst
    gen = push_iterations(
        g, spec, vals, spec.initial_frontier(g.num_vertices, source),
        keep_frontier=True,
    )
    losers = 0
    stats = RunStats()
    while True:
        before = vals.copy()
        info = next(gen, None)
        if info is None:
            break
        # The round's edges, judged against the pre-round values.
        edge = np.isin(src, info.frontier)
        cand = spec.propagate(before[src[edge]], weights[edge])
        improving = spec.better(cand, before[dst[edge]])
        reached = dst[edge][improving]
        assert info.updates == reached.size
        assert info.redundant == info.updates - np.unique(reached).size
        losers += info.redundant
        stats.record(info)
    return vals, stats, losers


@pytest.mark.parametrize("name", ["SSSP", "SSWP", "Viterbi"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_round_redundant_counts_the_reduce_losers(name, seed):
    spec = get_spec(name)
    g = _multigraph(seed)
    source = int(np.argmax(np.diff(g.offsets)))
    with obs_runtime.enabled():
        traced, traced_stats, losers = _traced_rounds(g, spec, source)
    # Parallel edges into one destination: some round has losers.
    assert losers > 0
    plain_stats = RunStats()
    plain = spec.initial_values(g.num_vertices, source)
    for info in push_iterations(
        g, spec, plain, spec.initial_frontier(g.num_vertices, source)
    ):
        assert info.redundant == 0
        plain_stats.record(info)
    assert traced.tobytes() == plain.tobytes()
    assert _without_redundant(traced_stats) == _without_redundant(plain_stats)


def _without_redundant(stats):
    totals = stats.to_dict(include_iterations=False)
    del totals["redundant_relaxations"]
    rounds = [
        (i.index, i.frontier_size, i.edges_scanned, i.updates, i.activated,
         i.edges_skipped)
        for i in stats.per_iteration
    ]
    return totals, rounds


def _columns(stats, k):
    rounds = stats.per_iteration[:k]
    return {
        "frontier": [i.frontier_size for i in rounds],
        "edges_scanned": [i.edges_scanned for i in rounds],
        "updates": [i.updates for i in rounds],
        "activated": [i.activated for i in rounds],
        "edges_skipped": [i.edges_skipped for i in rounds],
        "redundant": [i.redundant for i in rounds],
    }


@pytest.mark.parametrize("phase", ["twophase.core", "twophase.completion"])
def test_budget_abort_reports_the_rounds_that_ran(medium_graph, tmp_path, phase):
    spec = get_spec("SSSP")
    cg = build_cg(medium_graph, spec, num_hubs=4)
    with obs_runtime.enabled():
        full = two_phase(medium_graph, cg, spec, source=0)
    assert full.phase1.iterations > 2 and full.phase2.iterations > 2
    core_rounds = full.phase1.iterations
    # Abort after two rounds of the chosen phase.
    k = 2
    limit = k if phase == "twophase.core" else core_rounds + k
    path = tmp_path / "run.jsonl"
    with obs.telemetry(trace_path=path):
        with pytest.raises(BudgetExceeded):
            two_phase(
                medium_graph, cg, spec, source=0,
                budget=Budget(max_iterations=limit),
            )
    events = obs.read_events(path)
    snapshot = events[-1]["metrics"]

    rounds = [e for e in events if e["type"] == "rounds"]
    want = {"twophase.core": _columns(full.phase1, core_rounds)}
    if phase == "twophase.completion":
        want[phase] = _columns(full.phase2, k)
    else:
        want[phase] = _columns(full.phase1, k)
    assert [e["phase"] for e in rounds] == list(want)
    for event in rounds:
        columns = want[event["phase"]]
        assert {c: event[c] for c in columns} == columns
        label = f'{{phase="{event["phase"]}"}}'
        assert snapshot["engine.iterations" + label] == len(columns["frontier"])
        for metric, column in COUNTERS:
            assert snapshot[metric + label] == sum(columns[column]), metric

    series = report.iteration_series(events)
    assert [e["edges_scanned"] for e in series[phase]] == (
        want[phase]["edges_scanned"]
    )
    assert [e["iteration"] for e in series[phase]] == list(range(k))
    # The event lands inside its phase's span even as the budget aborts
    # it, so a reader that has only the span intervals labels it too.
    aborted = rounds[-1]
    aborted["phase"] = None
    assert list(report.iteration_series(events)) == list(want)

