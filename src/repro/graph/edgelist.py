"""Plain-text edge-list I/O (SNAP-style ``u v [w]`` lines)."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.graph.builder import from_arrays
from repro.graph.csr import Graph
from repro.resilience.atomic import atomic_open


def write_edge_list(g: Graph, path: Union[str, Path]) -> None:
    """Write ``g`` as whitespace-separated ``u v [w]`` lines.

    Atomic: a write that fails part-way leaves any previous file at
    ``path`` untouched.
    """
    src = g.edge_sources()
    with atomic_open(path) as fh:
        if g.is_weighted:
            for u, v, w in zip(src, g.dst, g.weights):
                fh.write(f"{u} {v} {w:.10g}\n")
        else:
            for u, v in zip(src, g.dst):
                fh.write(f"{u} {v}\n")


def read_edge_list(
    path: Union[str, Path],
    num_vertices: Optional[int] = None,
    comments: str = "#",
) -> Graph:
    """Read a SNAP-style edge list; weighted iff lines carry a third column."""
    src, dst, weights = [], [], []
    weighted: Optional[bool] = None
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns")
            has_weight = len(parts) == 3
            if weighted is None:
                weighted = has_weight
            elif weighted != has_weight:
                raise ValueError(f"{path}:{lineno}: mixed weighted/unweighted rows")
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
            if has_weight:
                weights.append(float(parts[2]))
    if not src:
        if num_vertices is None:
            raise ValueError(f"{path}: empty edge list and no num_vertices given")
        return from_arrays(num_vertices, [], [], None)
    if num_vertices is None:
        num_vertices = int(max(max(src), max(dst))) + 1
    w = np.asarray(weights) if weighted else None
    return from_arrays(num_vertices, src, dst, w)
