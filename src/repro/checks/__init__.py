"""Correctness tooling: static analysis and a runtime invariant sanitizer.

The reproduction's correctness hangs on a handful of paper invariants —
monotone ``⊕`` propagation under MIN/MAX selection (§2.1, Table 6), the
``FirstPhase2Visit`` guarantee of Algorithm 3, Theorem 1's certification
bound. The test suite's oracles and the sanitizer guard those. The
static rules guard repo conventions the tests cannot see (atomic
persistence, handlers that must not swallow budget aborts, registered
telemetry names, lock discipline); each one is kept only because a
seeded bug of its kind passes the test suite. Three heads:

* :mod:`repro.checks.lint` — an AST lint engine with the per-file RC
  rules. Run it via ``repro-coregraph check --static`` or
  :func:`repro.checks.cli.run_static`.
* :mod:`repro.checks.race` — the whole-program concurrency analyzer
  (``check --races``); :mod:`repro.checks.noqa` audits the suppressions
  both use (``check --strict-noqa``).
* :mod:`repro.checks.sanitize` — dev-mode runtime probes, enabled by
  ``REPRO_SANITIZE=1`` (or :func:`repro.checks.sanitize.enable`), compiled
  down to one module-attribute read when off. Probes validate CSR
  structure, frontier hygiene, update monotonicity, settled reductions,
  core-graph containment, and Theorem 1 certificates.

The engines import only :mod:`repro.checks.sanitize`; the analysis
machinery loads on demand (CLI / tests), keeping the hot-path import
graph flat.
"""
