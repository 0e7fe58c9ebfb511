"""The paper's contribution: Core Graph identification and exploitation."""

from repro.core.coregraph import CoreGraph, HubData
from repro.core.identify import build_core_graph, solution_edge_mask
from repro.core.unweighted import build_unweighted_core_graph
from repro.core.connectivity import add_connectivity_edges
from repro.core.twophase import two_phase, two_phase_batch, TwoPhaseResult
from repro.core.triangle import certify_precise, supports_triangle
from repro.core.precision import measure_precision, PrecisionReport
from repro.core.dispatch import build_cg
from repro.core.evolving import EvolvingCoreGraph

__all__ = [
    "EvolvingCoreGraph",
    "two_phase_batch",
    "CoreGraph",
    "HubData",
    "build_core_graph",
    "build_unweighted_core_graph",
    "build_cg",
    "solution_edge_mask",
    "add_connectivity_edges",
    "two_phase",
    "TwoPhaseResult",
    "certify_precise",
    "supports_triangle",
    "measure_precision",
    "PrecisionReport",
]
