"""Execution budgets: bounded wall-clock and iterations.

A :class:`Budget` is handed to an engine (or to :func:`repro.core.twophase.
two_phase`, which threads it through both phases) and checked at iteration
boundaries via :meth:`Budget.tick`. Exceeding either limit raises a structured
:class:`BudgetExceeded` instead of letting the run hang —
callers can catch it to degrade gracefully (see :mod:`repro.resilience.
anytime`) or let it propagate as a loud, attributable failure.

Limits are cumulative across every engine run that shares the budget
object: the deadline clock starts at the first ``tick`` (or an explicit
:meth:`Budget.start`), and ``max_iterations`` counts all ticks, so a
two-phase evaluation budgeted at 100 iterations spends them across both
phases.

Sharing across phases of *one* run is the feature; sharing across *two*
runs is a bug — the second run would inherit the first run's elapsed
clock and iteration count silently. Top-level entry points
(:func:`repro.core.twophase.two_phase`, the serve worker) therefore
claim the budget with :meth:`Budget.begin_run`, which raises
:class:`BudgetReuseError` on a second claim; build a fresh
:class:`Budget` for each run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class BudgetReuseError(ValueError):
    """A started :class:`Budget` was claimed for a second run.

    Deliberately *not* a :class:`RuntimeError` subclass: reuse is a
    caller bug, and handlers watching for :class:`BudgetExceeded` must
    never absorb it.
    """


class BudgetExceeded(RuntimeError):
    """A budget limit was hit at an iteration boundary.

    Attributes
    ----------
    limit:
        Which limit fired: ``"deadline_s"`` or ``"max_iterations"``.
    site:
        The checking site (``"engine.frontier"``, ``"twophase.completion"``,
        ...), so logs attribute the abort to the right loop.
    observed / threshold:
        The measured value and the configured limit it crossed.
    iteration:
        Cumulative iteration count at the abort.
    elapsed_s:
        Seconds since the budget clock started.
    """

    def __init__(
        self,
        limit: str,
        site: str,
        observed: float,
        threshold: float,
        iteration: int,
        elapsed_s: float,
    ) -> None:
        super().__init__(
            f"budget exceeded at {site}: {limit}={threshold:g} "
            f"(observed {observed:g} after {iteration} iterations, "
            f"{elapsed_s:.3f}s)"
        )
        self.limit = limit
        self.site = site
        self.observed = observed
        self.threshold = threshold
        self.iteration = iteration
        self.elapsed_s = elapsed_s

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view for journals and CLI output."""
        return {
            "limit": self.limit,
            "site": self.site,
            "observed": self.observed,
            "threshold": self.threshold,
            "iteration": self.iteration,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class Budget:
    """Per-run execution limits; ``None`` disables a dimension.

    Attributes
    ----------
    deadline_s:
        Wall-clock limit in seconds, measured from the first check.
    max_iterations:
        Cumulative iteration-boundary count across all engine runs
        sharing this budget (worklist engines count pops).
    """

    deadline_s: Optional[float] = None
    max_iterations: Optional[int] = None
    _t0: Optional[float] = field(default=None, init=False, repr=False)
    iterations: int = field(default=0, init=False, repr=False)
    _claimed: bool = field(default=False, init=False, repr=False)

    def start(self) -> "Budget":
        """Start the deadline clock (idempotent); returns self."""
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return self

    def begin_run(self, site: str = "") -> "Budget":
        """Claim this budget for one top-level run and start its clock.

        A budget that has already been claimed (or merely started — its
        clock is running, so a second run would inherit the elapsed time)
        raises :class:`BudgetReuseError`. Engines themselves only
        ``tick``; the claim lives at run entry points so one budget still
        spans both 2Phase phases.
        """
        if self._claimed or self._t0 is not None:
            raise BudgetReuseError(
                f"budget already used ({self.iterations} iterations, "
                f"{self.elapsed_s:.3f}s elapsed)"
                + (f" at {site}" if site else "")
                + "; build a fresh Budget for each run"
            )
        self._claimed = True
        return self.start()

    @property
    def elapsed_s(self) -> float:
        return 0.0 if self._t0 is None else time.perf_counter() - self._t0

    def _raise(self, limit: str, site: str, observed: float,
               threshold: float) -> None:
        exc = BudgetExceeded(
            limit, site, observed, threshold, self.iterations, self.elapsed_s
        )
        _record_exceeded(exc)
        raise exc

    def tick(self, site: str) -> None:
        """Account one completed iteration boundary and enforce both limits."""
        self.start()
        self.iterations += 1
        if (
            self.max_iterations is not None
            and self.iterations > self.max_iterations
        ):
            self._raise(
                "max_iterations", site, self.iterations, self.max_iterations
            )
        if self.deadline_s is not None:
            elapsed = self.elapsed_s
            if elapsed > self.deadline_s:
                self._raise("deadline_s", site, elapsed, self.deadline_s)


def _record_exceeded(exc: BudgetExceeded) -> None:
    """Journal + metrics trail for an abort (only while telemetry is on)."""
    from repro.obs import journal as obs_journal
    from repro.obs import metrics as obs_metrics
    from repro.obs import runtime as obs_runtime

    if not obs_runtime._enabled:
        return
    obs_metrics.counter(
        "resilience.budget.exceeded", limit=exc.limit, site=exc.site
    ).inc()
    obs_journal.emit(
        {"type": "event", "name": "budget.exceeded", **exc.as_dict()}
    )
