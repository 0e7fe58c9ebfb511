"""Binary persistence for graphs and core graphs, plus an artifact cache."""

from repro.io.binary import save_graph, load_graph, save_core_graph, load_core_graph
from repro.io.artifacts import ArtifactCache
from repro.io.errors import CorruptGraphError

__all__ = [
    "CorruptGraphError",
    "save_graph",
    "load_graph",
    "save_core_graph",
    "load_core_graph",
    "ArtifactCache",
]
