"""Subway's GPU memory model.

Subway (EuroSys '20) ships only the *active* subgraph -- the out-edges of
the current frontier, compacted on the host -- to the GPU each round.
:class:`GpuMemoryModel` decides when a graph can instead be shipped once
and iterated on-device.
"""

from __future__ import annotations

from repro.graph.csr import Graph


class GpuMemoryModel:
    """Tracks whether a graph fits in (simulated) GPU memory.

    The paper's regime is "the full graph cannot be held in GPU memory";
    with ``capacity=None`` the model pins capacity to half the full graph's
    size so that regime holds at any stand-in scale, while typical core
    graphs (~10-25% of edges) still fit and iterate on-device.
    """

    def __init__(self, full_graph: Graph, capacity: int = None,
                 bytes_per_edge: int = 8, bytes_per_vertex: int = 8) -> None:
        self.bytes_per_edge = bytes_per_edge
        self.bytes_per_vertex = bytes_per_vertex
        full = self.graph_bytes(full_graph)
        self.capacity = int(full // 2) if capacity is None else int(capacity)

    def graph_bytes(self, g: Graph) -> int:
        return int(
            g.num_edges * self.bytes_per_edge
            + g.num_vertices * self.bytes_per_vertex
        )

    def fits(self, g: Graph) -> bool:
        return self.graph_bytes(g) <= self.capacity
