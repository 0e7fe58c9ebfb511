"""Iterative evaluation engines over CSR graphs."""

from repro.engines.stats import RunStats, IterationInfo
from repro.engines.frontier import (
    evaluate_query,
    push_iterations,
    run_push,
    ragged_gather,
    is_fixed_point,
    evaluate_batch,
)
from repro.engines.scalar import scalar_evaluate

__all__ = [
    "is_fixed_point",
    "RunStats",
    "IterationInfo",
    "evaluate_query",
    "push_iterations",
    "run_push",
    "ragged_gather",
    "scalar_evaluate",
    "evaluate_batch",
]
