"""Shared plumbing for the system simulators' 2Phase runs."""

from __future__ import annotations

from typing import Union

from repro.core.coregraph import CoreGraph
from repro.engines.frontier import symmetric_view
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec


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
