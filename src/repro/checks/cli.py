"""``repro-coregraph check``: static analysis, races, noqa audit, smoke.

The options are declared once, by :func:`add_arguments`, and executed
by :func:`run`; ``repro-coregraph check`` and ``python -m
repro.checks.cli`` both go through them. The modes, usable
programmatically too:

* :func:`run_static` — lint the given paths with the RC rule catalog
  (:mod:`repro.checks.lint`). Exit code 1 when any violation survives
  suppression.
* :func:`run_races` — the whole-program concurrency analyzer
  (:mod:`repro.checks.race`).
* :func:`run_strict_noqa` — the stale/unjustified suppression audit
  (RC100, :mod:`repro.checks.noqa`).
* :func:`run_sanitize_smoke` — enable the runtime sanitizer and drive a
  full two-phase evaluation of every query kind over the example
  dataset, plus one round trip through each alternative engine. Exit
  code 1 on the first :class:`SanitizerViolation`.

Findings print one per line as ``path:line: RCxxx message``, the form
``.github/problem-matcher.json`` turns into PR annotations.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.checks.lint.framework import Violation

DEFAULT_PATHS = ("src/repro",)


def collect_static(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Surviving lint violations for ``paths`` (default ``src/repro``)."""
    from repro.checks.lint import ALL_RULES, rule_by_id, run_lint

    selected = ALL_RULES if not rules else [rule_by_id(r) for r in rules]
    return run_lint(paths or DEFAULT_PATHS, rules=selected)


def collect_races(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Surviving concurrency-analyzer violations for ``paths``."""
    from repro.checks.race import analyze

    return analyze(paths or DEFAULT_PATHS, rules=rules)


def collect_noqa(
    paths: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Stale/unjustified suppressions (RC100) under ``paths``."""
    from repro.checks.noqa import audit

    return audit(paths or DEFAULT_PATHS)


def _report(violations: Sequence[Violation], clean: str) -> int:
    """Print the report; 0 = clean, 1 = violations."""
    if not violations:
        print(clean)
    else:
        from repro.checks.lint import render_report

        print(render_report(violations))
    return 1 if violations else 0


def run_static(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> int:
    """Lint ``paths`` (default ``src/repro``); 0 = clean, 1 = violations."""
    return _report(collect_static(paths, rules),
                   clean="static analysis: clean")


def run_races(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> int:
    """Concurrency analysis of ``paths``; 0 = clean, 1 = violations."""
    return _report(collect_races(paths, rules), clean="race analysis: clean")


def run_strict_noqa(paths: Optional[Sequence[str]] = None) -> int:
    """Suppression audit of ``paths``; 0 = clean, 1 = findings."""
    return _report(
        collect_noqa(paths),
        clean="noqa audit: every suppression is live and justified",
    )


def run_sanitize_smoke(sources: Sequence[int] = (0,)) -> int:
    """Sanitized end-to-end run over the example dataset; 0 = no violations.

    Covers every query kind through ``two_phase`` (Theorem 1 triangle
    certificates on for the weighted MIN/MAX kinds) and the scalar engine
    once, so every probe site executes at least once.
    """
    import numpy as np

    from repro.checks.sanitize import SanitizerViolation, enabled
    from repro.core.identify import build_core_graph
    from repro.core.twophase import two_phase
    from repro.core.unweighted import build_unweighted_core_graph
    from repro.datasets.example import example_graph
    from repro.engines.frontier import evaluate_query
    from repro.engines.scalar import scalar_evaluate
    from repro.queries.registry import ALL_SPECS

    g = example_graph()
    checks = 0
    try:
        with enabled():
            for spec in ALL_SPECS:
                if spec.identification == "algorithm2":
                    cg = build_unweighted_core_graph(g, num_hubs=2, spec=spec)
                else:
                    cg = build_core_graph(g, spec, num_hubs=2)
                triangle = (
                    spec.uses_weights and not spec.multi_source
                )
                for source in sources:
                    src = None if spec.multi_source else int(source)
                    result = two_phase(
                        g, cg, spec, source=src, triangle=triangle
                    )
                    baseline = evaluate_query(g, spec, source=src)
                    if not np.allclose(
                        result.values, baseline, equal_nan=True
                    ):
                        print(f"check: {spec.name} two_phase result "
                              "diverges from direct evaluation")
                        return 1
                    checks += 1
            for source in sources:
                src = int(source)
                scalar_evaluate(g, ALL_SPECS[0], source=src)
                checks += 1
    except SanitizerViolation as exc:
        print(f"check: sanitizer violation: {exc}")
        return 1
    print(f"check: sanitized smoke clean ({checks} sanitized runs)")
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``check`` options on ``parser``."""
    parser.add_argument("--static", action="store_true",
                        help="run the RC lint rules (default when no mode "
                             "flag is given)")
    parser.add_argument("--races", action="store_true",
                        help="run the whole-program concurrency analyzer")
    parser.add_argument("--strict-noqa", action="store_true",
                        help="fail on stale or unjustified '# repro: noqa' "
                             "suppressions (RC100)")
    parser.add_argument("--sanitize-run", action="store_true",
                        help="sanitized two_phase of every query kind on "
                             "the example dataset")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to check (default "
                             "src/repro)")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="RC",
                        help="restrict to specific rule ids (repeatable)")


def run(args: argparse.Namespace) -> int:
    """Run the modes ``args`` selects; 0 = all clean."""
    paths = args.paths or None
    static = args.static or not (
        args.races or args.strict_noqa or args.sanitize_run
    )
    rc = 0
    if static:
        rc = run_static(paths, rules=args.rules)
    if args.races:
        rc = run_races(paths, rules=args.rules) or rc
    if args.strict_noqa:
        rc = run_strict_noqa(paths) or rc
    if args.sanitize_run:
        rc = run_sanitize_smoke() or rc
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point, the same as ``repro-coregraph check``."""
    parser = argparse.ArgumentParser(prog="repro-checks")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
