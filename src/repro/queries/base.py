"""The vertex-query abstraction from §2.1 of the paper.

A query ``Q(s)`` originates at a source vertex ``s`` and computes a property
value for every other vertex. Along a path the value is accumulated with a
propagation operator ``⊕``; across paths the final value is chosen with a
selection operator (MIN or MAX). Table 6 of the paper gives the push
operations for the six query kinds; :mod:`repro.queries.specs` instantiates
them on top of this class.

All operations are vectorized over numpy arrays so the frontier engine and
the core-graph identification can process edge batches at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class Selection(enum.Enum):
    """Across-path selection operator: MIN_i or MAX_i of the path values."""

    MIN = "min"
    MAX = "max"


PropagateFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
WeightTransformFn = Callable[[np.ndarray], np.ndarray]


def _identity_weights(w: np.ndarray) -> np.ndarray:
    return w


@dataclass(frozen=True)
class QuerySpec:
    """Definition of one monotonic vertex-query kind.

    Attributes
    ----------
    name:
        Short identifier (``"SSSP"`` etc.) used in tables and caches.
    selection:
        Across-path operator; MIN-select queries improve downward (SSSP),
        MAX-select queries improve upward (SSWP).
    init_value:
        The "unreached" value every vertex starts with (the identity of the
        selection operator).
    source_value:
        The value assigned to the query source.
    propagate:
        The vectorized ``⊕``: candidate value at ``v`` given ``Val(u)`` and
        the (transformed) weight of edge ``u -> v``.
    uses_weights:
        Whether edge weights participate; REACH/WCC ignore them and share a
        single "general" core graph in the paper.
    symmetric:
        Whether the query semantically runs over the undirected view of the
        graph (WCC). Engines symmetrize before evaluating.
    multi_source:
        Whether the query starts from every vertex with per-vertex labels
        (WCC) instead of a single source.
    connectivity_pick:
        Which out-edge Algorithm 1 adds for otherwise-disconnected vertices:
        ``"min"`` weight (SSSP/SSNP/Viterbi), ``"max"`` weight (SSWP), or
        ``"any"`` (unweighted queries).
    weight_transform:
        Per-edge preprocessing applied once before evaluation. Viterbi maps
        weights to transition probabilities in ``(0, 1]`` here so that the
        Table 6 push (``Val(u)/wt`` for Ligra-style integer weights) and the
        uniform-(0,1] R-MAT weights of Table 13 share one convergent
        implementation.
    saturation_value:
        The top of the value lattice, when one exists: a vertex holding it
        is trivially precise (its value can never improve), so Algorithm 3's
        completion phase removes its incoming edges from ``Reduced(E)``.
        REACH saturates at 1.0 — this is why it is the paper's
        best-accelerated query. ``None`` when no finite top exists.
    atol / rtol:
        Tolerances for the solution-path equality test
        ``Val(u) ⊕ w == Val(v)`` on floating-point values.
    """

    name: str
    selection: Selection
    init_value: float
    source_value: float
    propagate: PropagateFn
    uses_weights: bool = True
    symmetric: bool = False
    multi_source: bool = False
    connectivity_pick: str = "min"
    weight_transform: WeightTransformFn = field(default=_identity_weights)
    #: Which identification algorithm builds this query's core graph:
    #: "algorithm1" (solution-path witnesses from hub queries) or
    #: "algorithm2" (Qid-sharing BFS trees; reachability-class queries).
    identification: str = "algorithm1"
    saturation_value: Optional[float] = None
    atol: float = 1e-12
    rtol: float = 1e-9

    # ------------------------------------------------------------------
    # Value-lattice helpers
    # ------------------------------------------------------------------
    def better(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise "``a`` is strictly better than ``b``" (the Needed test)."""
        if self.selection is Selection.MIN:
            return np.less(a, b)
        return np.greater(a, b)

    def improve(self, current: np.ndarray, candidate: np.ndarray) -> np.ndarray:
        """Elementwise best of ``current`` and ``candidate``."""
        if self.selection is Selection.MIN:
            return np.minimum(current, candidate)
        return np.maximum(current, candidate)

    def reduce_at(self, vals: np.ndarray, idx: np.ndarray, cand: np.ndarray) -> None:
        """In-place ``vals[idx] = best(vals[idx], cand)`` with duplicate idx.

        This is the vectorized analogue of Table 6's CASMIN/CASMAX loop.
        """
        if self.selection is Selection.MIN:
            np.minimum.at(vals, idx, cand)
        else:
            np.maximum.at(vals, idx, cand)

    def saturated(self, vals: np.ndarray) -> Optional[np.ndarray]:
        """Mask of vertices at the lattice top (provably precise), or None."""
        if self.saturation_value is None:
            return None
        return vals == self.saturation_value

    def reached(self, vals: np.ndarray) -> np.ndarray:
        """Mask of vertices whose value was updated away from ``init_value``."""
        init = self.init_value
        if np.isinf(init):
            # Only the matching-signed infinity is "unreached": SSNP's
            # source legitimately holds -inf while its init is +inf.
            return ~np.isposinf(vals) if init > 0 else ~np.isneginf(vals)
        return vals != init

    def values_equal(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Tolerant elementwise equality: ``np.isclose(a, b, rtol, atol)``.

        ``|a - b| <= atol + rtol * |b|`` for finite ``b``, or ``a == b``,
        which is how equal infinities match. One pass, with the
        temporaries reused in place.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            # ``out=`` keeps scalar inputs a 0-d array, which ``abs`` can
            # then overwrite in place.
            diff = np.subtract(
                a, b, out=np.empty(np.broadcast_shapes(a.shape, b.shape))
            )
            np.abs(diff, out=diff)
            tol = np.abs(b)
            tol *= self.rtol
            tol += self.atol
            close = np.less_equal(diff, tol)
        close &= np.isfinite(b)
        close |= np.equal(a, b)
        return close[()]

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initial_values(self, num_vertices: int, source: Optional[int]) -> np.ndarray:
        """The value array before iteration begins."""
        if self.multi_source:
            return np.arange(num_vertices, dtype=np.float64)
        vals = np.full(num_vertices, self.init_value, dtype=np.float64)
        if source is None:
            raise ValueError(f"{self.name} requires a source vertex")
        if not 0 <= source < num_vertices:
            raise ValueError(f"source {source} out of range")
        vals[source] = self.source_value
        return vals

    def initial_frontier(self, num_vertices: int, source: Optional[int]) -> np.ndarray:
        if self.multi_source:
            return np.arange(num_vertices, dtype=np.int64)
        return np.asarray([source], dtype=np.int64)

    # ------------------------------------------------------------------
    # Solution-path test (non-zero centrality witness, §2.1)
    # ------------------------------------------------------------------
    def on_solution_path(
        self, val_u: np.ndarray, w: np.ndarray, val_v: np.ndarray
    ) -> np.ndarray:
        """Mask of edges ``u -> v`` lying on some solution path.

        The paper's test: ``u`` was reached and ``Val(u) ⊕ w(u, v) == Val(v)``.
        ``w`` must already be transformed via :attr:`weight_transform`.
        """
        cand = self.propagate(val_u, w)
        return self.reached(val_u) & self.values_equal(cand, val_v)

    def __repr__(self) -> str:
        return f"QuerySpec({self.name})"
