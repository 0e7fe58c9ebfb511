"""The RC rule catalog: repo conventions and paper invariants as lint rules.

Each rule documents its rationale inline; the user-facing catalog (with
suppression guidance) is ``docs/static-analysis.md``. Rules are scoped by
module prefix so fixture trees mirroring the package layout (see
``tests/checks/fixtures/``) are linted exactly like the shipped tree.

Each rule catches a bug that the test suite lets through; its docstring
names that bug (see the seeded-bug census in ``docs/static-analysis.md``).

Rule index
----------
RC002  persistence writes must go through repro.resilience.atomic
RC004  no bare/overbroad except that swallows exceptions
RC005  metric/span/event names must be registered in repro.obs.namespaces
RC007  no mutable default arguments
RC009  never catch RuntimeError (it swallows BudgetExceeded)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.checks.lint.framework import FileContext, Rule, Violation
from repro.obs import namespaces

# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The base identifier of a Name/Attribute/Subscript/Call chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _is_write_mode(mode: str) -> bool:
    return any(c in mode for c in "wax") or "+" in mode


def _call_named(call: ast.Call, *names: str) -> bool:
    """Whether the call target is a bare name or attribute in ``names``."""
    if isinstance(call.func, ast.Name):
        return call.func.id in names
    if isinstance(call.func, ast.Attribute):
        return call.func.attr in names
    return False


# ---------------------------------------------------------------------------
# RC002 — persistence writes must go through repro.resilience.atomic
# ---------------------------------------------------------------------------

_WRITE_ATTRS = ("save", "savez", "savez_compressed")


class RC002AtomicWrites(Rule):
    """Raw writes in persistence layers can leave torn files after a crash.

    Results, journals, baselines, and WAL snapshots funnel through
    ``atomic_path``/``atomic_open`` (temp file + ``os.replace``), so a
    reader never observes a truncated artifact.
    Within the persistence modules this rule flags write-mode ``open``,
    ``Path.write_text/bytes``, and ``np.save*`` calls whose target is not
    a name bound by an atomic context manager. ``summarize`` writing
    ``SUMMARY.md`` with a raw ``write_text`` passes the test suite; only
    this rule sees it.
    """

    id = "RC002"
    title = "persistence writes must use resilience.atomic"
    scopes = (
        "repro.graph.",
        "repro.obs.",
        "repro.io.",
        "repro.resilience.",
        "repro.harness.",
        "repro.analysis.traces",
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module == "repro.resilience.atomic":
            return False  # the implementation itself
        return super().applies_to(ctx)

    @staticmethod
    def _atomic_bound_names(tree: ast.AST) -> set:
        names = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                target = _dotted(call.func) or ""
                if target.split(".")[-1] in ("atomic_path", "atomic_open"):
                    if isinstance(item.optional_vars, ast.Name):
                        names.add(item.optional_vars.id)
        return names

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        atomic_names = self._atomic_bound_names(ctx.tree)

        def exempt(target: Optional[ast.AST]) -> bool:
            return target is not None and _root_name(target) in atomic_names

        for call in _calls(ctx.tree):
            func = call.func
            # open(path, "w") builtin
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._mode_of(call, arg_index=1)
                if mode is not None and _is_write_mode(mode):
                    if not exempt(call.args[0] if call.args else None):
                        yield self.violation(
                            ctx, call,
                            "write-mode open() outside resilience.atomic",
                        )
            elif isinstance(func, ast.Attribute):
                if func.attr == "open":
                    mode = self._mode_of(call, arg_index=0)
                    if mode is not None and _is_write_mode(mode):
                        if not exempt(func.value):
                            yield self.violation(
                                ctx, call,
                                "write-mode .open() outside "
                                "resilience.atomic",
                            )
                elif func.attr in ("write_text", "write_bytes"):
                    if not exempt(func.value):
                        yield self.violation(
                            ctx, call,
                            f".{func.attr}() outside resilience.atomic "
                            "(use atomic_write_text/bytes)",
                        )
                elif func.attr in _WRITE_ATTRS and (
                    _root_name(func.value) in ("np", "numpy")
                ):
                    if not exempt(call.args[0] if call.args else None):
                        yield self.violation(
                            ctx, call,
                            f"np.{func.attr}() outside resilience.atomic "
                            "(wrap in atomic_path)",
                        )

    @staticmethod
    def _mode_of(call: ast.Call, arg_index: int) -> Optional[str]:
        if len(call.args) > arg_index:
            return _str_const(call.args[arg_index])
        for kw in call.keywords:
            if kw.arg == "mode":
                return _str_const(kw.value)
        return None


# ---------------------------------------------------------------------------
# RC004 — no bare/overbroad except that swallows exceptions
# ---------------------------------------------------------------------------


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(handler)
    )


def _exception_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return []
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for t in types:
        dotted = _dotted(t)
        if dotted is not None:
            names.append(dotted.split(".")[-1])
    return names


class RC004OverbroadExcept(Rule):
    """Bare/overbroad handlers swallow BudgetExceeded and injected faults.

    ``except:`` and ``except Exception`` (or ``BaseException``) absorb the
    structured control-flow exceptions the resilience layer depends on —
    a budget abort caught by a cleanup handler silently becomes a hang.
    A handler that re-raises (bare ``raise``) is fine: it observes, it
    does not swallow. Widening ``SnapshotStore.latest``'s fallback to
    ``except Exception`` (a bug in ``load`` then silently recovers from an
    older snapshot) passes the test suite; only this rule sees it.
    """

    id = "RC004"
    title = "bare or overbroad exception handler"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not _handler_reraises(node):
                    yield self.violation(
                        ctx, node, "bare except: swallows every exception "
                        "(including BudgetExceeded and injected faults)",
                    )
                continue
            broad = {"Exception", "BaseException"} & set(
                _exception_names(node)
            )
            if broad and not _handler_reraises(node):
                yield self.violation(
                    ctx, node,
                    f"except {sorted(broad)[0]} without re-raise swallows "
                    "BudgetExceeded/injected faults; catch the specific "
                    "exception instead",
                )


# ---------------------------------------------------------------------------
# RC005 — telemetry names must be registered in repro.obs.namespaces
# ---------------------------------------------------------------------------


class RC005RegisteredNames(Rule):
    """A typo'd metric/span/event name silently forks a time series.

    Reports and the tests that pin work counts key on exact names; an
    unregistered name would quietly stop feeding them. Every
    string-literal name handed to
    ``counter/gauge/histogram``, ``span``, or an ``emit({"type": "event",
    "name": ...})`` journal line must appear in
    :mod:`repro.obs.namespaces`. A typo in the breaker's
    ``serve.breaker.trips`` counter passes the test suite; only this rule
    sees it.
    """

    id = "RC005"
    title = "unregistered metric/span/event name"
    scopes = ("repro.",)

    def applies_to(self, ctx: FileContext) -> bool:
        # The catalog itself and the registry internals are exempt.
        return super().applies_to(ctx) and ctx.module not in (
            "repro.obs.namespaces", "repro.obs.metrics",
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for call in _calls(ctx.tree):
            if _call_named(call, "counter", "gauge", "histogram",
                           "stream_hist"):
                # Only metric-registry receivers; `time.perf_counter()`
                # has no string first argument so it falls through.
                name = _str_const(call.args[0]) if call.args else None
                if name is not None and not namespaces.known_metric(name):
                    yield self.violation(
                        ctx, call,
                        f"metric name {name!r} is not registered in "
                        "repro.obs.namespaces.METRIC_NAMES",
                    )
            elif _call_named(call, "span"):
                name = _str_const(call.args[0]) if call.args else None
                if name is not None and not namespaces.known_span(name):
                    yield self.violation(
                        ctx, call,
                        f"span name {name!r} is not registered in "
                        "repro.obs.namespaces.SPAN_NAMES",
                    )
            elif _call_named(call, "emit") and call.args:
                kind, event = self._journal_name(call.args[0])
                if kind == "event" and event is not None \
                        and not namespaces.known_event(event):
                    yield self.violation(
                        ctx, call,
                        f"journal event name {event!r} is not registered "
                        "in repro.obs.namespaces.EVENT_NAMES",
                    )
                elif kind == "span" and event is not None \
                        and not namespaces.known_span(event):
                    # Synthetic span events (journaled directly, not via
                    # `with span(...)`) use the same span vocabulary.
                    yield self.violation(
                        ctx, call,
                        f"synthetic span name {event!r} is not registered "
                        "in repro.obs.namespaces.SPAN_NAMES",
                    )
        # Exporter row literals — ("counter", "serve.submitted", ...) —
        # bypass the registry call sites above but land in the scraped
        # vocabulary all the same, so their names face the same gate.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Tuple) or len(node.elts) < 2:
                continue
            kind = _str_const(node.elts[0])
            if kind not in ("counter", "gauge", "histogram", "stream_hist"):
                continue
            name = _str_const(node.elts[1])
            # Dotted names only: a dotless second element is some other
            # tuple (argument lists, table headers) that merely starts
            # with a kind-like word.
            if name is None or "." not in name:
                continue
            if not namespaces.known_metric(name):
                yield self.violation(
                    ctx, node,
                    f"exporter row metric name {name!r} is not registered "
                    "in repro.obs.namespaces.METRIC_NAMES",
                )

    @staticmethod
    def _journal_name(node: ast.AST) -> "Tuple[Optional[str], Optional[str]]":
        if not isinstance(node, ast.Dict):
            return None, None
        entries: Dict[str, Optional[str]] = {}
        for key, value in zip(node.keys, node.values):
            k = _str_const(key) if key is not None else None
            if k in ("type", "name"):
                entries[k] = _str_const(value)
        if entries.get("type") not in ("event", "span"):
            return None, None
        return entries.get("type"), entries.get("name")


# ---------------------------------------------------------------------------
# RC007 — no mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray"})


class RC007MutableDefaults(Rule):
    """A mutable default is shared across calls — state leaks between runs.

    ``MetricsServer(collectors=[])`` stored as ``self._collectors`` makes
    ``add_collector`` on one exporter leak into every later one; the test
    suite does not notice.
    """

    id = "RC007"
    title = "mutable default argument"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CTORS
                )
                if mutable:
                    yield self.violation(
                        ctx, default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and create inside the body",
                    )


# ---------------------------------------------------------------------------
# RC009 — never catch RuntimeError (it swallows BudgetExceeded)
# ---------------------------------------------------------------------------


class RC009RuntimeErrorCatch(Rule):
    """``BudgetExceeded`` subclasses RuntimeError; catching the base hides it.

    Code that wants to survive a budget abort must catch
    ``BudgetExceeded`` by name (and decide about ``anytime`` semantics);
    code that wants cleanup must re-raise. ``serve --mutate-stream``
    catching ``RuntimeError`` where it means ``InjectedFault`` counts any
    failed batch as a rollback and keeps going; the test suite does not
    notice.
    """

    id = "RC009"
    title = "except RuntimeError swallows BudgetExceeded"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if "RuntimeError" in _exception_names(node):
                if not _handler_reraises(node):
                    yield self.violation(
                        ctx, node,
                        "except RuntimeError also catches BudgetExceeded "
                        "(and InjectedFault); catch the specific type",
                    )


#: The shipped rule set, in id order.
ALL_RULES: Sequence[Rule] = (
    RC002AtomicWrites(),
    RC004OverbroadExcept(),
    RC005RegisteredNames(),
    RC007MutableDefaults(),
    RC009RuntimeErrorCatch(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown rule {rule_id!r}")
