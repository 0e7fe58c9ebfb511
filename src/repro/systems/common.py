"""Shared plumbing for the system cost models."""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.engines.frontier import symmetric_view
from repro.engines.stats import RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.report import SystemReport


def resolve_proxy(proxy: Union[CoreGraph, Graph]) -> Graph:
    """The proxy's graph whether a CoreGraph or a bare subgraph (AG/SG)."""
    return proxy.graph if isinstance(proxy, CoreGraph) else proxy


def working_graph(g: Graph, spec: QuerySpec) -> Graph:
    """The graph the engine actually iterates: symmetrized for WCC."""
    return symmetric_view(g) if spec.symmetric else g


def proxy_transfer_bytes(
    proxy_graph: Graph, bytes_per_edge: int, bytes_per_vertex: int
) -> int:
    """Size of shipping the proxy graph (CSR edges + vertex values) once."""
    return (
        proxy_graph.num_edges * bytes_per_edge
        + proxy_graph.num_vertices * bytes_per_vertex
    )


def new_report(
    system: str,
    spec: QuerySpec,
    mode: str,
    source: Optional[int],
    counters: Iterable[str],
    breakdown: Iterable[str],
) -> SystemReport:
    """An empty report with the given counters and time categories at 0."""
    return SystemReport(
        system=system, spec_name=spec.name, mode=mode, source=source,
        counters={key: 0.0 for key in counters},
        breakdown={key: 0.0 for key in breakdown},
    )


def finish(
    report: SystemReport, values: np.ndarray, stats: RunStats
) -> SystemReport:
    """Close a report: modeled time is the sum of its breakdown."""
    report.time = sum(report.breakdown.values())
    report.stats = stats
    report.values = values
    return report
