"""Batch edge insertions and deletions over immutable CSR graphs.

Graphs here are immutable; evolution is modeled functionally — a batch of
changes produces a new CSR (the approach of snapshot-based evolving-graph
systems). Used by :mod:`repro.core.evolving` to study core-graph
maintenance under churn and by :mod:`repro.evolve` to drive live mutation
streams against the query service.

Batch semantics are strict by construction: ``add_edges`` rejects
self-loops and duplicate pairs (within the batch or against the existing
edge set) with typed errors instead of silently inflating CSR degree, and
``remove_edges(strict=True)`` names the first missing pair. The batch
generators only emit valid batches, so callers can feed them straight in.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.builder import EdgeTuple, from_arrays
from repro.graph.csr import Graph
from repro.resilience.faults import fault_point


class MutationError(ValueError):
    """Base for typed batch-mutation failures."""


class SelfLoopError(MutationError):
    """An insertion batch contained a ``(u, u)`` self-loop."""

    def __init__(self, vertex: int) -> None:
        self.vertex = int(vertex)
        super().__init__(f"self-loop insertion ({vertex}, {vertex}) rejected")


class DuplicateEdgeError(MutationError):
    """An insertion batch would duplicate an edge (existing or in-batch)."""

    def __init__(self, pair: Tuple[int, int], where: str) -> None:
        self.pair = (int(pair[0]), int(pair[1]))
        self.where = where
        super().__init__(
            f"duplicate edge insertion {self.pair} rejected ({where})"
        )


class EdgeNotFoundError(MutationError):
    """A strict deletion batch named a pair the graph does not contain."""

    def __init__(self, pair: Tuple[int, int]) -> None:
        self.pair = (int(pair[0]), int(pair[1]))
        super().__init__(f"cannot remove missing edge {self.pair}")


def _edge_keys(g: Graph) -> np.ndarray:
    """Per-edge ``u * n + v`` keys (collision-free for in-range ids)."""
    return g.edge_sources() * np.int64(g.num_vertices) + g.dst


def add_edges(g: Graph, edges: Iterable[EdgeTuple]) -> Graph:
    """A new graph with ``edges`` appended (same vertex set).

    Weighted graphs require ``(u, v, w)`` tuples; unweighted ``(u, v)``.

    Raises :class:`SelfLoopError` for ``(u, u)`` entries and
    :class:`DuplicateEdgeError` when a pair repeats within the batch or
    already exists in ``g`` — silent parallel edges would inflate CSR
    degree and skew every degree-based heuristic downstream.
    """
    edges = list(edges)
    if not edges:
        return g
    fault_point("graph.mutate.add")
    n = g.num_vertices
    new_src = np.array([e[0] for e in edges], dtype=np.int64)
    new_dst = np.array([e[1] for e in edges], dtype=np.int64)
    if new_src.size and (
        min(new_src.min(), new_dst.min()) < 0
        or max(new_src.max(), new_dst.max()) >= n
    ):
        raise MutationError("inserted edge endpoints out of range")
    existing = set(int(k) for k in _edge_keys(g))
    seen: Set[int] = set()
    for u, v in zip(new_src, new_dst):
        if u == v:
            raise SelfLoopError(int(u))
        key = int(u) * n + int(v)
        if key in existing:
            raise DuplicateEdgeError((int(u), int(v)), "already in graph")
        if key in seen:
            raise DuplicateEdgeError((int(u), int(v)), "repeated in batch")
        seen.add(key)
    if g.is_weighted:
        if any(len(e) != 3 for e in edges):
            raise MutationError("weighted graph requires (u, v, w) insertions")
        new_w = np.array([e[2] for e in edges], dtype=np.float64)
        weights = np.concatenate([g.weights, new_w])
    else:
        if any(len(e) != 2 for e in edges):
            raise MutationError("unweighted graph requires (u, v) insertions")
        weights = None
    src = np.concatenate([g.edge_sources(), new_src])
    dst = np.concatenate([g.dst, new_dst])
    return from_arrays(n, src, dst, weights)


def remove_edges(
    g: Graph, pairs: Iterable[Tuple[int, int]], strict: bool = False
) -> Tuple[Graph, np.ndarray]:
    """A new graph without the given ``(u, v)`` pairs.

    Removes *all* parallel copies of each named pair. Returns
    ``(new_graph, removed_mask)`` where the mask is over ``g``'s edges.

    With ``strict=True``, raises :class:`EdgeNotFoundError` naming the
    first pair absent from ``g`` (default keeps the historical
    missing-pair-is-a-noop behavior for idempotent replays). A pair with an
    endpoint outside ``[0, n)`` raises :class:`MutationError` either way.
    """
    pairs = list(pairs)
    n = g.num_vertices
    removed = np.zeros(g.num_edges, dtype=bool)
    if not pairs:
        return g, removed
    fault_point("graph.mutate.remove")
    ends = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    outside = ((ends < 0) | (ends >= n)).any(axis=1)
    if outside.any():
        # Packed as u * n + v, (0, n) would name the edge (1, 0).
        u, v = ends[np.argmax(outside)]
        raise MutationError(
            f"removed edge ({u}, {v}) has an endpoint outside [0, {n})"
        )
    keys = _edge_keys(g)
    doomed = ends[:, 0] * n + ends[:, 1]
    if strict:
        present = np.isin(doomed, keys)
        if not bool(present.all()):
            missing = pairs[int(np.flatnonzero(~present)[0])]
            raise EdgeNotFoundError((int(missing[0]), int(missing[1])))
    removed = np.isin(keys, doomed)
    from repro.graph.transform import edge_subgraph

    return edge_subgraph(g, ~removed), removed


def _weights_for(
    g: Graph, rng: np.random.Generator, count: int, weight_like: bool
) -> Optional[np.ndarray]:
    if not (g.is_weighted and weight_like):
        return None
    if g.num_edges:
        return rng.choice(g.weights, count)
    return np.ones(count, dtype=np.float64)


def _filter_batch(
    g: Graph,
    count: int,
    draw,  # (k) -> (src_array, dst_array)
) -> List[Tuple[int, int]]:
    """Collect ``count`` distinct, loop-free, not-yet-present pairs.

    Draws in chunks from ``draw`` and discards invalid candidates, so the
    result is always a legal ``add_edges`` batch. Deterministic for a
    deterministic ``draw``.
    """
    n = g.num_vertices
    capacity = n * (n - 1) - g.num_edges
    if count > max(capacity, 0):
        raise MutationError(
            f"cannot draw {count} new edges: only {capacity} non-edges left"
        )
    taken = set(int(k) for k in _edge_keys(g))
    chosen: List[Tuple[int, int]] = []
    attempts = 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 64:
            raise MutationError(
                "edge batch sampling failed to converge; graph too dense"
            )
        k = max(2 * (count - len(chosen)), 16)
        src, dst = draw(k)
        for u, v in zip(src, dst):
            if u == v:
                continue
            key = int(u) * n + int(v)
            if key in taken:
                continue
            taken.add(key)
            chosen.append((int(u), int(v)))
            if len(chosen) == count:
                break
    return chosen


def preferential_edge_batch(
    g: Graph,
    count: int,
    seed: int = 0,
) -> list:
    """Preferential-attachment insertions: endpoints biased by degree.

    Realistic social-graph churn — new edges attach to hubs — so a stale
    core graph's precision decays far more slowly than under uniform
    insertions (hub-adjacent edges tend to parallel existing solution
    paths). Compare with :func:`random_edge_batch` in the evolving study.

    The batch is always valid for :func:`add_edges`: self-loops and
    duplicates are filtered out, topping up deterministically per seed.
    """
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    deg = (g.out_degree() + g.in_degree() + 1).astype(np.float64)
    p = deg / deg.sum()

    def draw(k: int) -> Tuple[np.ndarray, np.ndarray]:
        return rng.choice(n, k, p=p), rng.choice(n, k, p=p)

    pairs = _filter_batch(g, count, draw)
    w = _weights_for(g, rng, count, weight_like=True)
    if w is None:
        return pairs
    return [(u, v, float(x)) for (u, v), x in zip(pairs, w)]


def random_edge_batch(
    g: Graph,
    count: int,
    seed: int = 0,
    weight_like: bool = True,
) -> list:
    """Random plausible insertions (endpoints uniform, weights resampled
    from the existing distribution). Test/benchmark fodder for churn.

    The batch is always valid for :func:`add_edges`: self-loops and
    duplicates are filtered out, topping up deterministically per seed.
    """
    rng = np.random.default_rng(seed)
    n = g.num_vertices

    def draw(k: int) -> Tuple[np.ndarray, np.ndarray]:
        return rng.integers(0, n, k), rng.integers(0, n, k)

    pairs = _filter_batch(g, count, draw)
    w = _weights_for(g, rng, count, weight_like)
    if w is None:
        return pairs
    return [(u, v, float(x)) for (u, v), x in zip(pairs, w)]


def sample_edge_pairs(g: Graph, count: int, seed: int = 0) -> list:
    """Sample ``count`` distinct existing ``(u, v)`` pairs for deletion.

    Deterministic per seed; returns fewer than ``count`` pairs only when
    the graph has fewer distinct pairs than requested.
    """
    rng = np.random.default_rng(seed)
    keys = np.unique(_edge_keys(g))
    take = min(count, keys.size)
    picked = rng.choice(keys, take, replace=False)
    n = g.num_vertices
    return [(int(k) // n, int(k) % n) for k in picked]
