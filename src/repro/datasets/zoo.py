"""Scaled-down stand-ins for the paper's input graphs (Tables 3 and 13a).

The paper evaluates on billion-edge SNAP graphs (Friendster, two Twitter
crawls, PokeC) plus three 2.72-billion-edge R-MAT graphs. Pure Python cannot
process those sizes, so the zoo provides deterministic R-MAT stand-ins that
preserve what the core-graph technique actually depends on: power-law degree
skew, directedness, the paper's weight schemes (Ligra integers for the
"real" graphs, uniform (0,1] floats for the R-MAT trio), and the relative
size ordering FR > TT > TTW ≫ PK. RMAT1/2/3 use exactly the paper's
(a, b, c, d) parameters — RMAT2 more locally connected, RMAT3 more globally
connected.

``REPRO_SCALE_DELTA`` (env var, integer) shifts every stand-in's R-MAT scale
to run the full suite larger or smaller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.generators.rmat import rmat, GRAPH500_PARAMS
from repro.graph.csr import Graph
from repro.graph.weights import ligra_weights, uniform_weights


@dataclass(frozen=True)
class ZooEntry:
    """Recipe for one stand-in graph."""

    name: str
    scale: int
    edge_factor: int
    params: Tuple[float, float, float, float]
    seed: int
    weight_scheme: str  # "ligra" | "uniform"
    paper_edges: int
    paper_vertices: int


ZOO: Dict[str, ZooEntry] = {
    # The four "real" graphs of Table 3 (paper |E|, |V| recorded for docs).
    "FR": ZooEntry("FR", 14, 16, GRAPH500_PARAMS, 1101, "ligra",
                   2_586_147_869, 68_349_467),
    "TT": ZooEntry("TT", 13, 16, GRAPH500_PARAMS, 1102, "ligra",
                   1_963_263_821, 52_579_683),
    "TTW": ZooEntry("TTW", 13, 12, GRAPH500_PARAMS, 1103, "ligra",
                    1_468_365_182, 41_652_231),
    "PK": ZooEntry("PK", 11, 15, GRAPH500_PARAMS, 1104, "ligra",
                   30_622_564, 1_632_804),
    # The R-MAT trio of Table 13(a); all 2.72 B edges / 71.8 M vertices in
    # the paper, distinguished only by the quadrant probabilities.
    "RMAT1": ZooEntry("RMAT1", 13, 24, (0.57, 0.19, 0.19, 0.05), 1201,
                      "uniform", 2_720_000_000, 71_800_000),
    "RMAT2": ZooEntry("RMAT2", 13, 24, (0.67, 0.14, 0.14, 0.05), 1202,
                      "uniform", 2_720_000_000, 71_800_000),
    "RMAT3": ZooEntry("RMAT3", 13, 24, (0.47, 0.24, 0.24, 0.05), 1203,
                      "uniform", 2_720_000_000, 71_800_000),
}

REAL_NAMES: Tuple[str, ...] = ("FR", "TT", "TTW", "PK")
RMAT_NAMES: Tuple[str, ...] = ("RMAT1", "RMAT2", "RMAT3")


def zoo_entry(name: str) -> ZooEntry:
    """Recipe lookup; raises ``KeyError`` with the known names."""
    key = name.upper()
    if key not in ZOO:
        raise KeyError(f"unknown zoo graph {name!r}; known: {sorted(ZOO)}")
    return ZOO[key]


def _scale_delta() -> int:
    return int(os.environ.get("REPRO_SCALE_DELTA", "0"))


def load_zoo_graph(name: str, scale_delta: int = None) -> Graph:
    """Generate the named stand-in (deterministic for a given scale)."""
    entry = zoo_entry(name)
    delta = _scale_delta() if scale_delta is None else scale_delta
    scale = max(4, entry.scale + delta)
    g = rmat(scale, entry.edge_factor, entry.params, seed=entry.seed)
    if entry.weight_scheme == "ligra":
        return ligra_weights(g, seed=entry.seed + 7)
    return uniform_weights(g, 0.0, 1.0, seed=entry.seed + 7)
