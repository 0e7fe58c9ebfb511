"""Property-based exactness of evolving core graphs under random churn."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evolving import EvolvingCoreGraph, advance
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.graph.builder import from_arrays
from repro.queries.specs import SSSP, SSWP


@st.composite
def churn_scenario(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(4, 12))
    m = draw(st.integers(4, 40))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weights = rng.integers(1, 8, m).astype(float)
    g = from_arrays(n, src, dst, weights)
    # batches must be valid under strict add_edges semantics: no
    # self-loops, no duplicates within the batch or vs the live edge set
    current = {(int(u), int(v)) for u, v, _ in g.iter_edges()}
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            k = draw(st.integers(1, 6))
            batch = []
            for _ in range(4 * k):
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (u, v) in current:
                    continue
                current.add((u, v))
                batch.append((u, v, float(rng.integers(1, 8))))
                if len(batch) == k:
                    break
            if batch:
                ops.append(("insert", batch))
        else:
            k = draw(st.integers(1, 4))
            batch = [
                (int(rng.integers(n)), int(rng.integers(n)))
                for _ in range(k)
            ]
            current -= set(batch)
            ops.append(("delete", batch))
    source = draw(st.integers(0, n - 1))
    return g, ops, source


@pytest.mark.parametrize("spec", (SSSP, SSWP), ids=lambda s: s.name)
@given(data=churn_scenario())
@settings(max_examples=30, deadline=None)
def test_exact_after_arbitrary_churn(spec, data):
    g, ops, source = data
    ev = EvolvingCoreGraph(g, spec, num_hubs=2)
    for kind, batch in ops:
        if kind == "insert":
            ev.insert_edges(batch)
        else:
            ev.delete_edges(batch)
    res = ev.answer(source)
    truth = evaluate_query(ev.graph, spec, source)
    assert np.array_equal(res.values, truth)


@given(data=churn_scenario())
@settings(max_examples=20, deadline=None)
def test_cg_stays_subgraph(data):
    g, ops, _ = data
    ev = EvolvingCoreGraph(g, SSSP, num_hubs=2)
    for kind, batch in ops:
        if kind == "insert":
            ev.insert_edges(batch)
        else:
            ev.delete_edges(batch)
    # As (u, v, w) multisets: a CG copy at a weight the graph no longer
    # holds, or one parallel copy too many, breaks 2Phase exactness.
    full = Counter(ev.graph.iter_edges())
    assert not Counter(ev.cg.graph.iter_edges()) - full
    assert int(ev.cg.edge_mask.sum()) == ev.cg.graph.num_edges


@pytest.mark.parametrize("spec", (SSSP, SSWP), ids=lambda s: s.name)
@given(data=churn_scenario())
@settings(max_examples=30, deadline=None)
def test_mixed_batch_matches_insert_then_delete(spec, data):
    g, ops, source = data
    # Fold the scenario into one batch: every insert that is new to ``g``
    # (once), then every delete pair.
    present = {(u, v) for u, v, _ in g.iter_edges()}
    inserts, deletes = [], []
    for kind, batch in ops:
        for e in batch:
            if kind == "delete":
                deletes.append(e)
            elif (e[0], e[1]) not in present:
                present.add((e[0], e[1]))
                inserts.append(e)
    ev = EvolvingCoreGraph(g, spec, num_hubs=2)
    step = advance(ev.graph, ev.cg, ev.triangle_safe, inserts, deletes)
    ev.insert_edges(inserts)
    ev.delete_edges(deletes)
    assert step.graph.fingerprint() == ev.graph.fingerprint()
    assert np.array_equal(step.cg.edge_mask, ev.cg.edge_mask)
    assert step.cg.graph == ev.cg.graph
    assert step.triangle_safe == ev.triangle_safe
    assert step.deleted == ev.stats.deleted_edges
    res = two_phase(step.graph, step.cg, spec, source)
    assert np.array_equal(res.values,
                          evaluate_query(step.graph, spec, source))
