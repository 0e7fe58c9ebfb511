"""``repro-coregraph check``: static analysis, races, noqa audit, smoke.

Entry points, usable programmatically or via the harness CLI:

* :func:`run_static` — lint the given paths with the RC001–RC010 rule
  catalog. Exit code 1 when any violation survives suppression.
  Optionally also runs ``ruff`` and ``mypy`` when they are installed
  (``--ruff`` / ``--mypy``; both skip gracefully with a note when the
  tool is absent, so the subcommand works in the minimal container and
  is strict in CI).
* :func:`run_races` — the whole-program concurrency analyzer
  (RC101–RC105, :mod:`repro.checks.race`).
* :func:`run_strict_noqa` — the stale/unjustified suppression audit
  (RC100, :mod:`repro.checks.noqa`).
* :func:`run_sanitize_smoke` — enable the runtime sanitizer and drive a
  full two-phase evaluation of every query kind over the example
  dataset, plus one round trip through each alternative engine. Exit
  code 1 on the first :class:`SanitizerViolation`.

Every analysis mode takes ``as_json``: instead of the human report it
prints one JSON object, ``{"violations": [{"path", "line", "rule",
"message"}, ...], "count": N}`` — stable fields CI consumes for PR
annotations (see ``.github/problem-matcher.json`` for the text form).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

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


def violations_payload(violations: Sequence[Violation]) -> Dict:
    """The machine-readable form of a violation list."""
    return {
        "violations": [
            {
                "path": str(v.path),
                "line": v.line,
                "rule": v.rule,
                "message": v.message,
            }
            for v in violations
        ],
        "count": len(violations),
    }


def _report(
    violations: Sequence[Violation], as_json: bool, clean: str
) -> int:
    """Print the report (text or JSON); 0 = clean, 1 = violations."""
    if as_json:
        print(json.dumps(violations_payload(violations), indent=2))
    elif not violations:
        print(clean)
    else:
        from repro.checks.lint import render_report

        print(render_report(violations))
    return 1 if violations else 0


def run_static(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    with_ruff: bool = False,
    with_mypy: bool = False,
    as_json: bool = False,
) -> int:
    """Lint ``paths`` (default ``src/repro``); 0 = clean, 1 = violations."""
    violations = collect_static(paths, rules)
    rc = _report(violations, as_json, clean="static analysis: clean")
    for tool, wanted, argv in (
        ("ruff", with_ruff, ["ruff", "check", *(paths or DEFAULT_PATHS)]),
        ("mypy", with_mypy, ["mypy"]),
    ):
        if not wanted:
            continue
        if shutil.which(tool) is None:
            print(f"{tool}: not installed, skipping (CI runs it)")
            continue
        proc = subprocess.run(argv)
        rc = rc or proc.returncode
    return rc


def run_races(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    as_json: bool = False,
) -> int:
    """Concurrency analysis of ``paths``; 0 = clean, 1 = violations."""
    violations = collect_races(paths, rules)
    return _report(violations, as_json, clean="race analysis: clean")


def run_strict_noqa(
    paths: Optional[Sequence[str]] = None,
    as_json: bool = False,
) -> int:
    """Suppression audit of ``paths``; 0 = clean, 1 = findings."""
    violations = collect_noqa(paths)
    return _report(
        violations, as_json,
        clean="noqa audit: every suppression is live and justified",
    )


def run_sanitize_smoke(sources: Sequence[int] = (0,)) -> int:
    """Sanitized end-to-end run over the example dataset; 0 = no violations.

    Covers every query kind through ``two_phase`` (Theorem 1 triangle
    certificates on for the weighted MIN/MAX kinds) and the scalar and
    batch engines once, so every probe site executes at least once.
    """
    import numpy as np

    from repro.checks.sanitize import SanitizerViolation, enabled
    from repro.core.identify import build_core_graph
    from repro.core.twophase import two_phase
    from repro.core.unweighted import build_unweighted_core_graph
    from repro.datasets.example import example_graph
    from repro.engines.batch import evaluate_batch
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
                evaluate_batch(g, ALL_SPECS[0], [src])
                checks += 2
    except SanitizerViolation as exc:
        print(f"check: sanitizer violation: {exc}")
        return 1
    print(f"check: sanitized smoke clean ({checks} sanitized runs)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point mirroring ``repro-coregraph check``."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro-checks")
    parser.add_argument("--static", action="store_true",
                        help="run the RC static-analysis rules")
    parser.add_argument("--races", action="store_true",
                        help="run the whole-program concurrency analyzer "
                             "(RC101-RC105)")
    parser.add_argument("--strict-noqa", action="store_true",
                        help="fail on stale or unjustified '# repro: noqa' "
                             "suppressions (RC100)")
    parser.add_argument("--sanitize-run", action="store_true",
                        help="run the sanitized end-to-end smoke")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit violations as one JSON object instead "
                             "of the text report")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default src/repro)")
    parser.add_argument("--rule", action="append", dest="rules",
                        help="restrict to specific rule ids (repeatable)")
    parser.add_argument("--ruff", action="store_true",
                        help="also run ruff when installed")
    parser.add_argument("--mypy", action="store_true",
                        help="also run mypy when installed")
    args = parser.parse_args(argv)
    if not any((args.static, args.races, args.strict_noqa,
                args.sanitize_run)):
        args.static = True
    rc = 0
    if args.static:
        rc = run_static(args.paths or None, rules=args.rules,
                        with_ruff=args.ruff, with_mypy=args.mypy,
                        as_json=args.as_json)
    if args.races:
        rc = run_races(args.paths or None, rules=args.rules,
                       as_json=args.as_json) or rc
    if args.strict_noqa:
        rc = run_strict_noqa(args.paths or None,
                             as_json=args.as_json) or rc
    if args.sanitize_run:
        rc = run_sanitize_smoke() or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
