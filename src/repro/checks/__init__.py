"""Correctness tooling: static analysis and a runtime invariant sanitizer.

The reproduction's correctness hangs on a handful of paper invariants —
monotone ``⊕`` propagation under MIN/MAX selection (§2.1, Table 6), the
``FirstPhase2Visit`` guarantee of Algorithm 3, Theorem 1's certification
bound — plus repo conventions (budget polling, atomic persistence,
registered telemetry names) that nothing used to enforce mechanically.
This package enforces both, with two heads:

* :mod:`repro.checks.lint` — an AST lint engine with repo-specific rules
  (RC001–RC010) encoding the conventions as code. Run it via
  ``repro-coregraph check --static`` or :func:`repro.checks.cli.run_static`.
* :mod:`repro.checks.sanitize` — dev-mode runtime probes, enabled by
  ``REPRO_SANITIZE=1`` (or :func:`repro.checks.sanitize.enable`), compiled
  down to one module-attribute read when off. Probes validate CSR
  structure, frontier hygiene, update monotonicity, settled reductions,
  core-graph containment, and Theorem 1 certificates.

The engines import only :mod:`repro.checks.sanitize`; the lint machinery
loads on demand (CLI / tests), keeping the hot-path import graph flat.
"""
