"""Cost-model simulators of the three systems the paper accelerates.

Each simulator exposes a ``baseline_run`` (the unmodified system evaluating
one query on the full graph) and a ``two_phase_run`` (the system enhanced
with proxy-graph bootstrapping, Algorithm 3). Both return a
:class:`~repro.systems.report.SystemReport` carrying the counters the paper
plots — subgraph-generation work, host/GPU transfer bytes, computation,
atomic updates (Subway, Fig. 5), disk I/O bytes and iterations (GridGraph,
Table 9), and edges processed (Ligra, Table 11) — plus a modeled execution
time from which speedups are derived.
"""

from repro.systems.report import CostParams, SystemReport
from repro.systems.subway import SubwaySimulator
from repro.systems.gridgraph import GridGraphSimulator, GridStore
from repro.systems.ligra import LigraSimulator

__all__ = [
    "CostParams",
    "SystemReport",
    "SubwaySimulator",
    "GridGraphSimulator",
    "GridStore",
    "LigraSimulator",
]
