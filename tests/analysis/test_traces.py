"""Tests for convergence-trace capture and export."""

import csv

from repro.analysis.traces import (
    Trace,
    compare_convergence,
    two_phase_trace,
    write_traces_csv,
)
from repro.core.identify import build_core_graph
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.engines.stats import RunStats
from repro.queries.specs import SSSP


def _run(medium_graph):
    baseline = RunStats()
    evaluate_query(medium_graph, SSSP, 3, stats=baseline)
    cg = build_core_graph(medium_graph, SSSP, num_hubs=5)
    result = two_phase(medium_graph, cg, SSSP, 3)
    return baseline, result


def test_trace_from_stats(medium_graph):
    baseline, _ = _run(medium_graph)
    trace = Trace.from_stats("direct", baseline)
    assert trace.iterations == baseline.iterations
    assert trace.total_edges == baseline.edges_processed
    assert trace.frontier_sizes[0] == 1  # single-source start


def test_two_phase_trace(medium_graph):
    _, result = _run(medium_graph)
    core, completion = two_phase_trace(result)
    assert core.label == "core"
    assert core.iterations == result.phase1.iterations
    assert completion.total_edges == result.phase2.edges_processed


def test_compare_convergence(medium_graph):
    baseline, result = _run(medium_graph)
    core, completion = two_phase_trace(result)
    summary = compare_convergence(Trace.from_stats("d", baseline),
                                  core, completion)
    assert summary["baseline_iterations"] == baseline.iterations
    assert summary["two_phase_edges"] == result.total.edges_processed
    assert -100 <= summary["edge_reduction_pct"] <= 100


def test_csv_export(tmp_path, medium_graph):
    baseline, result = _run(medium_graph)
    traces = [Trace.from_stats("direct", baseline)] + two_phase_trace(result)
    path = write_traces_csv(traces, tmp_path / "traces.csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "iteration", "frontier", "edges", "updates"]
    labels = {row[0] for row in rows[1:]}
    assert labels == {"direct", "core", "completion"}
    assert len(rows) - 1 == sum(t.iterations for t in traces)
