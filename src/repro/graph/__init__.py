"""Graph substrate: CSR storage, construction, transforms, weights, and I/O."""

from repro.graph.csr import Graph
from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.transform import (
    reverse,
    symmetrize,
    edge_subgraph,
    vertex_induced_subgraph,
)
from repro.graph.weights import ligra_weights, uniform_weights
from repro.graph.degree import top_degree_vertices, degree_histogram
from repro.graph.edgelist import read_edge_list, write_edge_list
from repro.graph.validate import validate_graph, ValidationReport

__all__ = [
    "Graph",
    "GraphBuilder",
    "from_edges",
    "reverse",
    "symmetrize",
    "edge_subgraph",
    "vertex_induced_subgraph",
    "ligra_weights",
    "uniform_weights",
    "top_degree_vertices",
    "degree_histogram",
    "read_edge_list",
    "write_edge_list",
    "validate_graph",
    "ValidationReport",
]
