"""The AST lint engine: pluggable rules encoding repo conventions as code.

Usage::

    from repro.checks.lint import run_lint
    violations = run_lint(["src/repro"])
    for v in violations:
        print(v.render())

Rules live in :mod:`repro.checks.lint.rules`; the visitor
framework, file discovery, and ``# repro: noqa RCxxx`` suppression live in
:mod:`repro.checks.lint.framework`. The catalog each rule enforces is
documented in ``docs/static-analysis.md``.
"""

from repro.checks.lint.framework import (  # noqa: F401
    FileContext,
    Rule,
    Violation,
    discover_files,
    lint_file,
    render_report,
    run_lint,
)
from repro.checks.lint.rules import ALL_RULES, rule_by_id  # noqa: F401
