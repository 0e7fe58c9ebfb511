"""Resilient execution: budgets, anytime results, faults, atomic writes.

The layer that turns the reproduction's all-or-nothing runner into a
production-shaped one:

* :mod:`~repro.resilience.budget` — per-run :class:`Budget` (wall-clock
  deadline, cumulative iteration cap, frontier-memory cap) enforced at
  iteration boundaries in every engine; violations raise a structured
  :class:`BudgetExceeded`;
* :mod:`~repro.resilience.anytime` — per-vertex precision certificates
  (Theorem-1 exact / CG-approximate / unreached) that make a
  budget-aborted ``two_phase`` return a usable partial result;
* :mod:`~repro.resilience.faults` — deterministic fault injection at named
  sites (env-var or programmatic) used to prove every guard fires;
* :mod:`~repro.resilience.atomic` — temp-file + ``os.replace`` writes for
  every persisted artifact.
"""

from repro.resilience.anytime import (
    CERT_APPROX,
    CERT_EXACT,
    CERT_NAMES,
    CERT_UNREACHED,
    certificate_counts,
    precision_certificate,
    summarize_certificate,
)
from repro.resilience.atomic import (
    atomic_open,
    atomic_path,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.resilience.budget import Budget, BudgetExceeded, BudgetReuseError
from repro.resilience.faults import (
    InjectedCrash,
    InjectedFault,
    InjectedIOError,
    fault_point,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetReuseError",
    "CERT_APPROX",
    "CERT_EXACT",
    "CERT_NAMES",
    "CERT_UNREACHED",
    "certificate_counts",
    "precision_certificate",
    "summarize_certificate",
    "InjectedCrash",
    "InjectedFault",
    "InjectedIOError",
    "fault_point",
    "atomic_open",
    "atomic_path",
    "atomic_write_bytes",
    "atomic_write_text",
]
