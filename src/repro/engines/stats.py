"""Run statistics shared by all engines and system simulators.

The counters mirror the quantities the paper measures: iterations, edges
processed (Ligra's EDGES metric, Table 11), and successful value updates
(Subway's ATOMIC metric, Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


@dataclass
class IterationInfo:
    """What one synchronous push round did.

    Attributes
    ----------
    index:
        0-based iteration number within the run.
    frontier_size:
        Number of active vertices pushed from this round.
    edges_scanned:
        Out-edges of the frontier examined (work + transfer proxy).
    updates:
        Candidates that strictly improved a destination value — the
        vectorized stand-in for successful CASMIN/CASMAX atomics.
    activated:
        Vertices entering the next frontier.
    edges_skipped:
        Edges dropped before evaluation because their destination held a
        Theorem 1 precision certificate (``blocked_dst`` in the push
        engine) — the work the triangle optimization provably saves.
    redundant:
        Improving relaxations whose written value was superseded by a
        better candidate for the same destination within the round (the
        lost-CAS stand-in). Only populated while telemetry is enabled;
        the count costs an O(n) flag scatter per round that the hot path
        otherwise skips.
    """

    index: int
    frontier_size: int
    edges_scanned: int
    updates: int
    activated: int
    frontier: Optional[np.ndarray] = None
    edges_skipped: int = 0
    redundant: int = 0


@dataclass
class RunStats:
    """Accumulated counters for one query evaluation."""

    iterations: int = 0
    edges_processed: int = 0
    updates: int = 0
    vertices_activated: int = 0
    edges_skipped: int = 0
    redundant_relaxations: int = 0
    wall_time: float = 0.0
    per_iteration: List[IterationInfo] = field(default_factory=list)

    def record(self, info: IterationInfo, keep_frontier: bool = False) -> None:
        self.iterations += 1
        self.edges_processed += info.edges_scanned
        self.updates += info.updates
        self.vertices_activated += info.activated
        self.edges_skipped += info.edges_skipped
        self.redundant_relaxations += info.redundant
        if not keep_frontier:
            info.frontier = None
        elif info.frontier is not None:
            # Own the array: engines may hand out a buffer they go on to
            # rebind or reuse, and stats must stay valid after the run.
            info.frontier = np.array(info.frontier, dtype=np.int64, copy=True)
        self.per_iteration.append(info)

    def to_dict(self, include_iterations: bool = True) -> Dict[str, Any]:
        """JSON-ready view used by the telemetry journal and exports.

        Frontier arrays are summarized by their size, never serialized.
        """
        out: Dict[str, Any] = {
            "iterations": self.iterations,
            "edges_processed": self.edges_processed,
            "updates": self.updates,
            "vertices_activated": self.vertices_activated,
            "edges_skipped": self.edges_skipped,
            "redundant_relaxations": self.redundant_relaxations,
            "wall_time": self.wall_time,
        }
        if include_iterations:
            out["per_iteration"] = [
                {
                    "index": info.index,
                    "frontier_size": info.frontier_size,
                    "edges_scanned": info.edges_scanned,
                    "updates": info.updates,
                    "activated": info.activated,
                }
                for info in self.per_iteration
            ]
        return out

    def merged_with(self, other: "RunStats") -> "RunStats":
        """Combined counters of two runs (phase 1 + phase 2)."""
        merged = RunStats(
            iterations=self.iterations + other.iterations,
            edges_processed=self.edges_processed + other.edges_processed,
            updates=self.updates + other.updates,
            vertices_activated=self.vertices_activated + other.vertices_activated,
            edges_skipped=self.edges_skipped + other.edges_skipped,
            redundant_relaxations=(
                self.redundant_relaxations + other.redundant_relaxations
            ),
            wall_time=self.wall_time + other.wall_time,
        )
        merged.per_iteration = list(self.per_iteration) + list(other.per_iteration)
        return merged
