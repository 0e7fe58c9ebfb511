"""``repro.checks.race`` — whole-program concurrency analyzer.

Where the RC lint rules are per-file pattern checks, this package
reasons about the program: which methods run on which threads, which
fields those threads share, which lock each shared field is guarded by,
which locks may be held around a blocking call, and whether paired
resources (epoch pins, bare lock acquires, resilience budgets, journal
file handles) balance on every path. Findings surface through the same
:class:`~repro.checks.lint.framework.Violation` / ``# repro: noqa``
machinery as the lint rules:

========  ==============================================================
RC101     unguarded write to a shared field (no lock on any write path)
RC102     inconsistent guards across writes, or a torn multi-word read
RC104     blocking call (fault point, I/O, sleep, join, wait) under a
          lock that may be held
RC105     unbalanced resource pairing: leaked ``pin()``, bare
          ``acquire()`` without finally-``release()``, double-claimed
          budget, file opened in ``__init__`` and never closed
========  ==============================================================

Use :func:`analyze` (or ``repro-coregraph check --races``). The analyzer
is sound only over class methods — module-level functions execute on the
caller's thread under the caller's locks, so their bodies are out of
scope by design (see :mod:`repro.checks.race.model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.checks.lint.framework import (
    ALL_RULES_SENTINEL,
    Violation,
    _parse_suppressions,
    discover_files,
)
from repro.checks.race.analysis import RaceAnalysis
from repro.checks.race.model import ProgramModel
from repro.checks.race.pairing import check_pairing

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RaceRule:
    """Catalog metadata for one analyzer rule (docs-sync uses this)."""

    id: str
    title: str


RACE_RULES: Tuple[RaceRule, ...] = (
    RaceRule("RC101", "unguarded write to a shared field"),
    RaceRule("RC102", "inconsistent lock guards / torn multi-word read"),
    RaceRule("RC104", "blocking call under a held lock"),
    RaceRule("RC105", "unbalanced resource pairing (pin/acquire/budget/file)"),
)


def race_rule_by_id(rule_id: str) -> RaceRule:
    for rule in RACE_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


def build_model(paths: Iterable[PathLike]) -> ProgramModel:
    """Parse every ``.py`` under ``paths`` into one program model."""
    return ProgramModel.build(discover_files(paths))


def analyze(
    paths: Iterable[PathLike],
    rules: Optional[Iterable[str]] = None,
    respect_suppressions: bool = True,
) -> List[Violation]:
    """Run the concurrency analyzer over ``paths``.

    Returns violations sorted like the lint driver's; ``# repro: noqa``
    comments are honored unless ``respect_suppressions`` is off (the
    stale-suppression audit needs the raw findings).
    """
    model = build_model(paths)
    analysis = RaceAnalysis(model)
    found = analysis.violations()
    found.extend(check_pairing(model))
    if rules is not None:
        wanted = set(rules)
        found = [v for v in found if v.rule in wanted]
    if respect_suppressions:
        suppressions = {
            path: _parse_suppressions(source)
            for path, source in model.sources.items()
        }
        found = [
            v for v in found
            if not _suppressed(suppressions.get(v.path), v.rule, v.line)
        ]
    unique: Dict[Tuple[str, int, str, str], Violation] = {}
    for v in found:
        unique.setdefault((str(v.path), v.line, v.rule, v.message), v)
    return sorted(
        unique.values(), key=lambda v: (str(v.path), v.line, v.rule)
    )


def _suppressed(
    parsed: Optional[Tuple[Dict[int, Set[str]], Set[str]]],
    rule_id: str,
    line: int,
) -> bool:
    if parsed is None:
        return False
    line_sup, file_sup = parsed
    if rule_id in file_sup:
        return True
    ids = line_sup.get(line)
    if ids is None:
        return False
    return ALL_RULES_SENTINEL in ids or rule_id in ids
