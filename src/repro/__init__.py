"""Reproduction of *Core Graph: Exploiting Edge Centrality to Speedup the
Evaluation of Iterative Graph Queries* (EuroSys 2024).

The package is organized as a small stack of subsystems:

``repro.graph``
    CSR graph substrate: construction, transforms, weights, I/O.
``repro.generators``
    Synthetic graph generators (R-MAT, Erdős–Rényi).
``repro.datasets``
    The paper's worked example and scaled-down stand-ins for its inputs.
``repro.queries``
    The monotonic vertex-query framework (Table 6 of the paper) with the six
    query kinds: SSSP, SSWP, SSNP, Viterbi, REACH, WCC.
``repro.engines``
    Iterative frontier-push evaluation engines with run statistics.
``repro.core``
    The paper's contribution: Core Graph identification (Algorithms 1 and 2),
    two-phase evaluation (Algorithm 3), and the triangle-inequality
    optimization (Theorem 1).
``repro.systems``
    Cost-model simulators of the three host systems the paper accelerates:
    Subway (GPU), GridGraph (out-of-core), and Ligra (in-memory).
``repro.baselines``
    Abstraction Graph and Sampled Graph proxy-graph baselines.
``repro.analysis`` / ``repro.harness``
    Experiment drivers that regenerate every table and figure.

Importing the package fixes glibc's malloc thresholds (:mod:`repro.alloc`),
so what a query's numpy temporaries cost does not depend on what the
process freed before.

Quickstart::

    from repro import Graph, build_core_graph, two_phase, SSSP

    g = ...  # a repro.Graph
    cg = build_core_graph(g, SSSP, num_hubs=20)
    result = two_phase(g, cg, SSSP, source=0)
"""

from repro.alloc import pin_thresholds
from repro.graph import Graph, GraphBuilder
from repro.queries import SSSP, SSWP, SSNP, VITERBI, REACH, WCC, QuerySpec
from repro.engines import evaluate_query, RunStats
from repro.core import (
    CoreGraph,
    build_core_graph,
    build_unweighted_core_graph,
    two_phase,
    TwoPhaseResult,
)

pin_thresholds()

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "QuerySpec",
    "SSSP",
    "SSWP",
    "SSNP",
    "VITERBI",
    "REACH",
    "WCC",
    "evaluate_query",
    "RunStats",
    "CoreGraph",
    "build_core_graph",
    "build_unweighted_core_graph",
    "two_phase",
    "TwoPhaseResult",
    "__version__",
]
