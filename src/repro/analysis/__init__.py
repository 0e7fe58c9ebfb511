"""Structural analyses from §3.4: why core graphs stay precise."""

from repro.analysis.degree_dist import degree_distribution_series, powerlaw_fit
from repro.analysis.overlap import top_degree_overlap
from repro.analysis.stats import graph_summary, GraphSummary
from repro.analysis.traces import (
    Trace,
    two_phase_trace,
    write_traces_csv,
)
from repro.analysis.diameter import (
    estimate_effective_diameter,
    DiameterEstimate,
)

__all__ = [
    "estimate_effective_diameter",
    "DiameterEstimate",
    "degree_distribution_series",
    "powerlaw_fit",
    "top_degree_overlap",
    "graph_summary",
    "GraphSummary",
    "Trace",
    "two_phase_trace",
    "write_traces_csv",
]
