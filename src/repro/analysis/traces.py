"""Convergence traces: per-iteration frontier/edge/update series.

The speedups in the paper ultimately come from two time-series effects —
the core phase converges on a tiny edge set, and the completion phase
collapses to a few near-empty iterations. These helpers capture those
series from any run's :class:`~repro.engines.stats.RunStats` for plotting
or CSV export (the supplementary "convergence" experiment uses them).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.engines.stats import RunStats
from repro.resilience.atomic import atomic_open


@dataclass
class Trace:
    """One labeled per-iteration series."""

    label: str
    frontier_sizes: List[int] = field(default_factory=list)
    edges_scanned: List[int] = field(default_factory=list)
    updates: List[int] = field(default_factory=list)

    @classmethod
    def from_stats(cls, label: str, stats: RunStats) -> "Trace":
        trace = cls(label)
        for info in stats.per_iteration:
            trace.frontier_sizes.append(info.frontier_size)
            trace.edges_scanned.append(info.edges_scanned)
            trace.updates.append(info.updates)
        return trace

    @property
    def iterations(self) -> int:
        return len(self.frontier_sizes)

    @property
    def total_edges(self) -> int:
        return sum(self.edges_scanned)


def two_phase_trace(result, labels=("core", "completion")) -> List[Trace]:
    """The two phase traces of a :class:`TwoPhaseResult`."""
    return [
        Trace.from_stats(labels[0], result.phase1),
        Trace.from_stats(labels[1], result.phase2),
    ]


def write_traces_csv(
    traces: List[Trace], path: Union[str, Path]
) -> Path:
    """Long-format CSV: label, iteration, frontier, edges, updates."""
    path = Path(path)
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "iteration", "frontier", "edges", "updates"])
        for trace in traces:
            for i in range(trace.iterations):
                writer.writerow([
                    trace.label, i, trace.frontier_sizes[i],
                    trace.edges_scanned[i], trace.updates[i],
                ])
    return path


def compare_convergence(
    baseline: Trace, core: Trace, completion: Trace
) -> dict:
    """Summary statistics contrasting direct vs 2Phase convergence."""
    two_phase_edges = core.total_edges + completion.total_edges
    return {
        "baseline_iterations": baseline.iterations,
        "two_phase_iterations": core.iterations + completion.iterations,
        "completion_iterations": completion.iterations,
        "baseline_edges": baseline.total_edges,
        "two_phase_edges": two_phase_edges,
        "edge_reduction_pct": (
            100.0 * (1 - two_phase_edges / baseline.total_edges)
            if baseline.total_edges else 0.0
        ),
        "peak_baseline_frontier": max(baseline.frontier_sizes, default=0),
        "peak_completion_frontier": max(completion.frontier_sizes, default=0),
    }
