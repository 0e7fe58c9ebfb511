"""Visitor framework for the RC lint rules.

A :class:`Rule` declares which modules it applies to and yields
:class:`Violation` objects from a parsed file. The driver parses each file
once into a :class:`FileContext` (AST, source lines, suppression map) and
runs every applicable rule over it.

Suppression mirrors flake8's, namespaced to this tool so the two never
collide:

* ``# repro: noqa RC004`` on a line suppresses RC004 violations reported
  for that line (several ids may be comma-separated);
* ``# repro: noqa`` on a line suppresses every rule for that line;
* ``# repro: noqa-file RC002`` anywhere in a file suppresses RC002 for
  the whole file (reserve this for files that implement the convention a
  rule enforces, e.g. the journal's own stream-then-rename protocol).

Module names are inferred from the path: the segment after a ``src``
component (or the scan root) onward, ``/`` -> ``.``. Rules scope
themselves by module prefix (``repro.engines.``), so fixture trees that
mirror the package layout are linted under the same scoping as the real
tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

PathLike = Union[str, Path]

_NOQA_LINE = re.compile(
    r"#\s*repro:\s*noqa(?!-file)(?:\s+(?P<ids>RC\d{3}(?:\s*,\s*RC\d{3})*))?"
)
_NOQA_FILE = re.compile(
    r"#\s*repro:\s*noqa-file\s+(?P<ids>RC\d{3}(?:\s*,\s*RC\d{3})*)"
)

#: Sentinel stored in the suppression map meaning "every rule".
ALL_RULES_SENTINEL = "*"


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored to a file and line."""

    rule: str
    path: Path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: Path
    module: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    #: line -> suppressed rule ids (or the ALL sentinel) from ``noqa``.
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the entire file via ``noqa-file``.
    file_suppressions: Set[str] = field(default_factory=set)

    def suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_suppressions:
            return True
        ids = self.line_suppressions.get(line)
        if ids is None:
            return False
        return ALL_RULES_SENTINEL in ids or rule_id in ids


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement check()."""

    id: str = "RC000"
    title: str = ""
    #: Module-name prefixes the rule applies to; empty means every module.
    scopes: Sequence[str] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scopes:
            return True
        return any(
            ctx.module == s.rstrip(".") or ctx.module.startswith(s)
            for s in self.scopes
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            message=message,
        )


def _parse_suppressions(source: str) -> "tuple[Dict[int, Set[str]], Set[str]]":
    line_sup: Dict[int, Set[str]] = {}
    file_sup: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro:" not in line:
            continue
        m = _NOQA_FILE.search(line)
        if m:
            file_sup.update(x.strip() for x in m.group("ids").split(","))
            continue
        m = _NOQA_LINE.search(line)
        if m:
            ids = m.group("ids")
            entry = line_sup.setdefault(lineno, set())
            if ids is None:
                entry.add(ALL_RULES_SENTINEL)
            else:
                entry.update(x.strip() for x in ids.split(","))
    return line_sup, file_sup


def infer_module(path: Path, root: Optional[Path] = None) -> str:
    """Dotted module name for ``path``, anchored at ``src`` or ``root``."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif root is not None:
        try:
            parts = list(path.relative_to(root).with_suffix("").parts)
        except ValueError:
            pass
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def make_context(path: PathLike, root: Optional[PathLike] = None) -> FileContext:
    path = Path(path)
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    line_sup, file_sup = _parse_suppressions(source)
    return FileContext(
        path=path,
        module=infer_module(path, None if root is None else Path(root)),
        tree=tree,
        source=source,
        lines=source.splitlines(),
        line_suppressions=line_sup,
        file_suppressions=file_sup,
    )


def lint_file(
    path: PathLike,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[PathLike] = None,
) -> List[Violation]:
    """Run ``rules`` (default: the full RC catalog) over one file."""
    if rules is None:
        from repro.checks.lint.rules import ALL_RULES

        rules = ALL_RULES
    ctx = make_context(path, root=root)
    out: List[Violation] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for violation in rule.check(ctx):
            if not ctx.suppressed(violation.rule, violation.line):
                out.append(violation)
    out.sort(key=lambda v: (str(v.path), v.line, v.rule))
    return out


def discover_files(paths: Iterable[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: Set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            found.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            found.add(p)
    return sorted(found)


def run_lint(
    paths: Iterable[PathLike],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[PathLike] = None,
) -> List[Violation]:
    """Lint every ``.py`` under ``paths``; returns sorted violations."""
    out: List[Violation] = []
    for path in discover_files(paths):
        out.extend(lint_file(path, rules=rules, root=root))
    return out


def render_report(violations: Sequence[Violation]) -> str:
    """Human-readable report: one line per violation plus a summary."""
    if not violations:
        return "static analysis: clean"
    lines = [v.render() for v in violations]
    by_rule: Dict[str, int] = {}
    for v in violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    summary = ", ".join(f"{rid}×{n}" for rid, n in sorted(by_rule.items()))
    lines.append(f"{len(violations)} violation(s): {summary}")
    return "\n".join(lines)
