"""Compressed-sparse-row (CSR) directed weighted graph.

The CSR layout is the common denominator of the systems the paper builds on
(Subway, GridGraph after loading a block, Ligra): a vertex ``u``'s out-edges
occupy the contiguous slice ``dst[offsets[u]:offsets[u + 1]]`` with parallel
weights ``weights[...]``.

The structure is immutable after construction; transforms produce new graphs.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np


class Graph:
    """An immutable directed weighted graph in CSR form.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; out-edges of vertex
        ``u`` are ``dst[offsets[u]:offsets[u + 1]]``.
    dst:
        ``int32``/``int64`` array of destination vertex ids, length
        ``num_edges``.
    weights:
        ``float64`` array of edge weights parallel to ``dst``. May be ``None``
        for unweighted graphs, in which case every weight reads as ``1.0``.
    """

    __slots__ = ("offsets", "dst", "weights", "_reverse", "_reverse_index",
                 "_fingerprint", "__weakref__")

    def __init__(
        self,
        offsets: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if offsets.ndim != 1 or dst.ndim != 1:
            raise ValueError("offsets and dst must be one-dimensional")
        if offsets.size == 0:
            raise ValueError("offsets must have at least one entry")
        if offsets[0] != 0 or offsets[-1] != dst.size:
            raise ValueError("offsets must start at 0 and end at num_edges")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if dst.size and (dst.min() < 0 or dst.max() >= offsets.size - 1):
            raise ValueError("dst contains out-of-range vertex ids")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != dst.shape:
                raise ValueError("weights must parallel dst")
        self.offsets = offsets
        self.dst = dst
        self.weights = weights
        self._reverse: Optional["Graph"] = None
        self._reverse_index: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        return self.dst.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def out_degree(self, u: Optional[int] = None) -> Union[int, np.ndarray]:
        """Out-degree of ``u``, or the full out-degree array if ``u is None``."""
        if u is None:
            return np.diff(self.offsets)
        return int(self.offsets[u + 1] - self.offsets[u])

    def in_degree(self, u: Optional[int] = None) -> Union[int, np.ndarray]:
        """In-degree of ``u`` (computes the reverse graph on first use)."""
        return self.reverse().out_degree(u)

    def edge_weights(self) -> np.ndarray:
        """Weight array, materializing unit weights for unweighted graphs."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.num_edges, dtype=np.float64)

    # ------------------------------------------------------------------
    # Edge access
    # ------------------------------------------------------------------
    def out_edges(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbors, weights)`` of vertex ``u``."""
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return self.dst[lo:hi], self.edge_weights()[lo:hi]

    def out_neighbors(self, u: int) -> np.ndarray:
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return self.dst[lo:hi]

    def edge_sources(self) -> np.ndarray:
        """Per-edge source vertex ids (the CSR row index, expanded)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.offsets)
        )

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(u, v, w)`` for every edge. Slow; for tests and tiny graphs."""
        weights = self.edge_weights()
        for u in range(self.num_vertices):
            for i in range(self.offsets[u], self.offsets[u + 1]):
                yield u, int(self.dst[i]), float(weights[i])

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return bool(np.any(self.dst[lo:hi] == v))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "Graph":
        """The transpose graph G^T (cached; its transpose is this graph)."""
        if self._reverse is None:
            from repro.graph.transform import transpose

            rev, index = transpose(self)
            # Publish the index before the link: a thread that sees
            # self._reverse set then finds reverse_index() ready.
            self._reverse_index = index
            rev._reverse = self
            self._reverse = rev
        return self._reverse

    def reverse_index(self) -> np.ndarray:
        """For each edge of :meth:`reverse`, its index in this graph (cached).

        A graph whose transpose it built keeps the permutation that sort
        used. A transpose reads the one kept by the graph it came from
        (its own transpose) and inverts it, since its rows need not be in
        the order a fresh sort would give.
        """
        rev = self.reverse()
        if self._reverse_index is None:
            built = rev._reverse_index
            assert built is not None  # one side of every pair sorted
            inverse = np.empty_like(built)
            inverse[built] = np.arange(built.size, dtype=built.dtype)
            # Benign race, as in fingerprint(): contenders agree.
            self._reverse_index = inverse
        return self._reverse_index

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content digest of the CSR arrays (cached).

        Two graphs with identical topology and weights share a fingerprint
        regardless of how they were constructed; any edge churn changes it.
        Used to version-stamp epochs and journal events so runs on drifted
        graphs are never compared as like-for-like.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(np.ascontiguousarray(self.offsets).tobytes())
            h.update(np.ascontiguousarray(self.dst).tobytes())
            h.update(np.ascontiguousarray(self.edge_weights()).tobytes())
            # Benign write race: the arrays are immutable here, so every
            # contender derives the identical digest and last-write-wins
            # is correct — a lock on a value object would be overkill.
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Size accounting (used by the system cost models)
    # ------------------------------------------------------------------
    def size_bytes(self, weighted: Optional[bool] = None) -> int:
        """In-memory size in bytes under the paper's CSR accounting.

        Uses 4 bytes per destination id, 4 bytes per weight (when the graph
        is weighted), and 8 bytes per offset entry — the layout Subway and
        GridGraph use on device/disk.
        """
        if weighted is None:
            weighted = self.is_weighted
        per_edge = 8 if weighted else 4
        return int(self.num_edges * per_edge + self.offsets.size * 8)

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # Per-graph caches (WeakKeyDictionary) compare a graph with itself
        # on every lookup; without this that is three O(m) array compares.
        if self is other:
            return True
        if not np.array_equal(self.offsets, other.offsets):
            return False
        if not np.array_equal(self.dst, other.dst):
            return False
        return np.array_equal(self.edge_weights(), other.edge_weights())

    def __hash__(self) -> int:  # identity hash; graphs are mutable-free
        return id(self)
