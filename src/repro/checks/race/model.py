"""Whole-program AST model for the concurrency analyzer.

:class:`ProgramModel` parses every file under the scan roots once and
builds the facts the analysis passes consume:

* a **class index** — per class: lock/condition/event fields (constructor
  assignments and dataclass annotations), constructor-typed fields
  (``self.x = ClassName(...)`` or a ``ClassName``-annotated ``__init__``
  parameter stored on ``self``), thread entry points
  (``threading.Thread(target=self.m)``), and resource-protocol facts
  (``pin`` methods, file handles opened in ``__init__``);
* a **method summary** per ``(class, method)`` — field accesses with the
  lock set held locally at each one, call edges with the held set at the
  call site, blocking calls, and resource-pairing events (``pin()`` uses,
  bare ``acquire``/``release``, budget claims).

The walker is flow-sensitive for ``with`` blocks (the held set is exact
per statement) and tracks local aliases (``store = self.store``) through
the constructor-derived field types, so chains like
``self._service._queue.pop()`` resolve to real call edges. Module-level
functions are deliberately *not* modeled: they run on whichever thread
called them with whatever locking that caller chose, and attributing
their accesses context-insensitively would drown the report in false
positives (the analysis passes document the resulting blind spot).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: A lock identity: (owning class name, lock attribute name).
LockId = Tuple[str, str]
#: A method identity: (class name, method name).
MethodKey = Tuple[str, str]

_LOCK_CTORS = {"threading.Lock", "Lock", "threading.RLock", "RLock"}
_COND_CTORS = {"threading.Condition", "Condition"}
_SYNC_CTORS = {
    "threading.Event", "Event",
    "threading.Semaphore", "Semaphore",
    "threading.BoundedSemaphore", "BoundedSemaphore",
    "threading.Barrier", "Barrier",
}
_THREAD_CTORS = {"threading.Thread", "Thread"}

#: Method names that mutate their receiver container in place.
_MUTATORS = {
    "append", "extend", "insert", "pop", "popleft", "appendleft",
    "clear", "update", "add", "remove", "discard", "setdefault",
}

#: Calls that can block (or crash, for fault points) — dangerous under a
#: lock. Dotted-name forms; attribute forms are handled in the walker.
_BLOCKING_NAMES = {
    "open", "fault_point", "atomic_open", "atomic_write_text",
    "time.sleep", "os.fsync", "input",
}
_BLOCKING_PREFIXES = ("subprocess.", "np.save", "numpy.save", "shutil.")
_BLOCKING_ATTRS = {"write_text", "write_bytes", "handle_request"}


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


@dataclass(frozen=True)
class Access:
    """One read or write of ``cls.field`` with the locally held locks."""

    cls: str
    field: str
    write: bool
    held: FrozenSet[LockId]
    line: int
    stmt: int
    in_init: bool


@dataclass(frozen=True)
class CallEdge:
    callee: MethodKey
    held: FrozenSet[LockId]
    line: int


@dataclass(frozen=True)
class Acquire:
    """A bare ``lock.acquire()`` call (``with`` blocks pair themselves)."""

    lock: LockId
    line: int


@dataclass(frozen=True)
class Release:
    lock: LockId
    line: int
    in_finally: bool


@dataclass(frozen=True)
class Blocking:
    what: str
    held: FrozenSet[LockId]
    line: int


@dataclass(frozen=True)
class PinUse:
    owner: str
    line: int
    in_with: bool


@dataclass(frozen=True)
class ClaimEvent:
    """A ``begin_run`` call for the budget typestate check."""

    recv: str
    depth: int
    bind_depth: int
    line: int


@dataclass
class MethodSummary:
    key: MethodKey
    path: Path
    line: int
    is_init: bool = False
    is_thread_root: bool = False
    accesses: List[Access] = field(default_factory=list)
    calls: List[CallEdge] = field(default_factory=list)
    acquires: List[Acquire] = field(default_factory=list)
    releases: List[Release] = field(default_factory=list)
    blocking: List[Blocking] = field(default_factory=list)
    pins: List[PinUse] = field(default_factory=list)
    claims: List[ClaimEvent] = field(default_factory=list)
    #: Lines calling ``os.replace``/``os.rename`` — paired by RC105 with
    #: an ``os.fsync`` earlier in the method (or in a callee before it).
    renames: List[int] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    path: Path
    line: int
    lock_fields: Set[str] = field(default_factory=set)
    cond_fields: Set[str] = field(default_factory=set)
    sync_fields: Set[str] = field(default_factory=set)
    typed_fields: Dict[str, str] = field(default_factory=dict)
    thread_targets: Set[str] = field(default_factory=set)
    methods: Dict[str, ast.AST] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    no_self: Set[str] = field(default_factory=set)  # static/classmethods
    owned: bool = False  # constructed as a field of another modeled class
    has_pin: bool = False
    opens_in_init: Dict[str, int] = field(default_factory=dict)
    #: ``self.x = <...>.open(...)`` outside ``__init__`` (WAL segment
    #: rotation, journal reopen): the handle still needs a class close.
    opens_elsewhere: Dict[str, int] = field(default_factory=dict)
    closes: Set[str] = field(default_factory=set)

    def lockish(self, name: str) -> bool:
        return name in self.lock_fields or name in self.cond_fields



class ProgramModel:
    """Class index + per-method summaries for a set of source roots."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.methods: Dict[MethodKey, MethodSummary] = {}
        self.sources: Dict[Path, str] = {}
        self._duplicates: Set[str] = set()

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: List[Path]) -> "ProgramModel":
        model = cls()
        parsed: List[Tuple[Path, ast.Module]] = []
        for path in files:
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError):
                continue
            model.sources[path] = source
            parsed.append((path, tree))
        # Pass 1: register class names so pass 2 can resolve types.
        for path, tree in parsed:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    if node.name in model.classes:
                        model._duplicates.add(node.name)
                        continue
                    model.classes[node.name] = ClassInfo(
                        name=node.name, path=path, line=node.lineno
                    )
        # Pass 2: fields, thread targets, resource facts.
        for path, tree in parsed:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    ci = model.classes.get(node.name)
                    if ci is not None and ci.path == path:
                        model._scan_class(ci, node)
        # Pass 3: per-method walks (needs the completed class index).
        for path, tree in parsed:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    ci = model.classes.get(node.name)
                    if ci is not None and ci.path == path:
                        model._walk_class(ci, node)
        return model

    def resolve(self, name: Optional[str]) -> Optional[ClassInfo]:
        if name is None or name in self._duplicates:
            return None
        return self.classes.get(name)

    # ------------------------------------------------------------------
    # Pass 2: class facts
    # ------------------------------------------------------------------
    def _scan_class(self, ci: ClassInfo, node: ast.ClassDef) -> None:
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ci.methods[item.name] = item
                for deco in item.decorator_list:
                    d = _dotted(deco)
                    if d == "property":
                        ci.properties.add(item.name)
                    if d in ("staticmethod", "classmethod"):
                        ci.no_self.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                self._classify_sync_field(ci, item.target.id,
                                          _dotted(item.annotation))
        ci.has_pin = "pin" in ci.methods
        init = ci.methods.get("__init__")
        if isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef)):
            param_types = self._init_param_types(init)
            for sub in ast.walk(init):
                if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                self._classify_init_field(ci, target.attr, sub.value,
                                          param_types)
        # Thread targets, close() calls, and handle-opening assignments
        # anywhere in the class body.
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Attribute)
                and isinstance(sub.targets[0].value, ast.Name)
                and sub.targets[0].value.id == "self"
                and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Attribute)
                and sub.value.func.attr == "open"
            ):
                fld = sub.targets[0].attr
                if fld not in ci.opens_in_init:
                    ci.opens_elsewhere.setdefault(fld, sub.value.lineno)
            if not isinstance(sub, ast.Call):
                continue
            func = _dotted(sub.func)
            if func in _THREAD_CTORS:
                for kw in sub.keywords:
                    if kw.arg != "target":
                        continue
                    if (
                        isinstance(kw.value, ast.Attribute)
                        and isinstance(kw.value.value, ast.Name)
                        and kw.value.value.id == "self"
                    ):
                        ci.thread_targets.add(kw.value.attr)
            if (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "close"
                and isinstance(sub.func.value, ast.Attribute)
                and isinstance(sub.func.value.value, ast.Name)
                and sub.func.value.value.id == "self"
            ):
                ci.closes.add(sub.func.value.attr)

    def _classify_sync_field(
        self, ci: ClassInfo, name: str, ctor: Optional[str]
    ) -> None:
        if ctor in _LOCK_CTORS:
            ci.lock_fields.add(name)
        elif ctor in _COND_CTORS:
            ci.cond_fields.add(name)
        elif ctor in _SYNC_CTORS:
            ci.sync_fields.add(name)

    def _classify_init_field(
        self,
        ci: ClassInfo,
        name: str,
        value: ast.AST,
        param_types: Dict[str, str],
    ) -> None:
        if isinstance(value, ast.Call):
            ctor = _dotted(value.func)
            if ctor is not None:
                self._classify_sync_field(ci, name, ctor)
                if ctor in _THREAD_CTORS:
                    ci.typed_fields[name] = "@Thread"
                elif ctor in self.classes and ctor not in self._duplicates:
                    ci.typed_fields[name] = ctor
                    self.classes[ctor].owned = True
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "open"
            ):
                ci.opens_in_init[name] = value.lineno
        elif isinstance(value, ast.Name) and value.id in param_types:
            ci.typed_fields[name] = param_types[value.id]

    def _init_param_types(self, init: ast.AST) -> Dict[str, str]:
        """``__init__`` params whose annotation names a modeled class.

        Unwraps ``Optional[X]``/``"X"`` string annotations. Only the
        constructor's params are trusted: a transfer object passed into a
        regular method is not evidence the callee retains or shares it.
        """
        out: Dict[str, str] = {}
        assert isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in init.args.args + init.args.kwonlyargs:
            name = self._annotation_class(arg.annotation)
            if name is not None:
                out[arg.arg] = name
        return out

    def _annotation_class(self, ann: Optional[ast.AST]) -> Optional[str]:
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            candidate = ann.value.strip().strip("'\"")
        elif isinstance(ann, ast.Subscript):
            return self._annotation_class(ann.slice)
        else:
            candidate = _dotted(ann) or ""
        candidate = candidate.split("[", 1)[0].split(".")[-1]
        if candidate in self.classes and candidate not in self._duplicates:
            return candidate
        return None

    # ------------------------------------------------------------------
    # Pass 3: method walks
    # ------------------------------------------------------------------
    def _walk_class(self, ci: ClassInfo, node: ast.ClassDef) -> None:
        for name, func in ci.methods.items():
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            summary = MethodSummary(
                key=(ci.name, name),
                path=ci.path,
                line=func.lineno,
                is_init=(name == "__init__"),
                is_thread_root=(name in ci.thread_targets),
            )
            walker = _MethodWalker(
                self, ci, summary,
                self_type=None if name in ci.no_self else ci.name,
            )
            walker.walk(func)
            self.methods[summary.key] = summary
            # Classes defined inside a method (the HTTP handler pattern)
            # run their methods on foreign threads: each becomes an extra
            # thread root walked with the enclosing method's aliases, so
            # ``server = self`` closures resolve back to the outer class.
            for nested_cls, aliases in walker.nested_classes:
                for sub in nested_cls.body:
                    if not isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    key = (ci.name, f"{name}::{nested_cls.name}.{sub.name}")
                    nested = MethodSummary(
                        key=key, path=ci.path, line=sub.lineno,
                        is_thread_root=True,
                    )
                    nw = _MethodWalker(self, ci, nested, self_type=None)
                    nw.aliases.update(aliases)
                    nw.walk(sub)
                    self.methods[key] = nested


class _MethodWalker:
    """Flow-sensitive walk of one method body."""

    def __init__(
        self,
        model: ProgramModel,
        ci: ClassInfo,
        summary: MethodSummary,
        self_type: Optional[str],
    ) -> None:
        self.model = model
        self.ci = ci
        self.out = summary
        self.self_type = self_type
        self.held: Tuple[LockId, ...] = ()
        self.aliases: Dict[str, str] = {}
        self.bind_depth: Dict[str, int] = {}
        self.loop_depth = 0
        self.finally_depth = 0
        self._stmt = 0
        self._with_pins: Set[int] = set()
        self.nested_classes: List[Tuple[ast.ClassDef, Dict[str, str]]] = []

    # -- type resolution ------------------------------------------------
    def _type_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.self_type
            return self.aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.model.resolve(self._type_of(expr.value))
            if base is not None:
                return base.typed_fields.get(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            ctor = _dotted(expr.func)
            if ctor in _THREAD_CTORS:
                return "@Thread"
            if isinstance(expr.func, ast.Name) and self.model.resolve(
                expr.func.id
            ):
                return expr.func.id
        return None

    def _lock_id(self, expr: ast.AST) -> Optional[LockId]:
        """Resolve ``<recv>.<attr>`` to a lock field of a modeled class."""
        if not isinstance(expr, ast.Attribute):
            return None
        owner = self.model.resolve(self._type_of(expr.value))
        if owner is not None and owner.lockish(expr.attr):
            return (owner.name, expr.attr)
        return None

    # -- recording ------------------------------------------------------
    def _heldset(self) -> FrozenSet[LockId]:
        return frozenset(self.held)

    def _record_field(
        self, node: ast.Attribute, write: bool, mutator: bool = False
    ) -> None:
        owner = self.model.resolve(self._type_of(node.value))
        if owner is None:
            return
        name = node.attr
        if name in owner.properties:
            self.out.calls.append(
                CallEdge((owner.name, name), self._heldset(), node.lineno)
            )
            return
        if name in owner.methods:
            return
        if owner.lockish(name) or name in owner.sync_fields:
            # Synchronization objects are not data: only *rebinding* one
            # counts as a write (Event.clear()/set() are sync ops).
            if not write or mutator:
                return
        self.out.accesses.append(Access(
            cls=owner.name, field=name, write=write,
            held=self._heldset(), line=node.lineno, stmt=self._stmt,
            in_init=self.out.is_init,
        ))

    # -- entry ----------------------------------------------------------
    def walk(self, func: ast.AST) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in func.body:
            self.stmt(stmt)

    # -- statements -----------------------------------------------------
    def stmt(self, node: ast.stmt) -> None:
        self._stmt += 1
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested callables (retry bodies, progress callbacks) usually
            # run in place; walking them with the current held set keeps
            # e.g. a retried read inside a critical section visible.
            for stmt in node.body:
                self.stmt(stmt)
        elif isinstance(node, ast.ClassDef):
            self.nested_classes.append((node, dict(self.aliases)))
        elif isinstance(node, ast.Assign):
            self.expr(node.value)
            for target in node.targets:
                self._assign_target(target, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.expr(node.value)
                self._assign_target(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            self.expr(node.value)
            if isinstance(node.target, ast.Attribute):
                self._record_field(node.target, write=True)
                self.expr(node.target.value)
            else:
                self.expr(node.target)
        elif isinstance(node, ast.Expr):
            self.expr(node.value)
        elif isinstance(node, (ast.Return, ast.Raise, ast.Assert,
                               ast.Delete, ast.Await)):
            for child in ast.iter_child_nodes(node):
                self.expr(child)
        elif isinstance(node, ast.If):
            self.expr(node.test)
            for stmt in node.body:
                self.stmt(stmt)
            for stmt in node.orelse:
                self.stmt(stmt)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.expr(node.iter)
            if isinstance(node.target, ast.Name):
                self.bind_depth[node.target.id] = self.loop_depth + 1
            self.loop_depth += 1
            for stmt in node.body:
                self.stmt(stmt)
            self.loop_depth -= 1
            for stmt in node.orelse:
                self.stmt(stmt)
        elif isinstance(node, ast.While):
            self.expr(node.test)
            self.loop_depth += 1
            for stmt in node.body:
                self.stmt(stmt)
            self.loop_depth -= 1
            for stmt in node.orelse:
                self.stmt(stmt)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            for stmt in node.body:
                self.stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self.stmt(stmt)
            for stmt in node.orelse:
                self.stmt(stmt)
            self.finally_depth += 1
            for stmt in node.finalbody:
                self.stmt(stmt)
            self.finally_depth -= 1
        # Pass/Break/Continue/Import/Global: nothing to record.

    def _assign_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            t = self._type_of(value)
            if t is not None:
                self.aliases[target.id] = t
            else:
                self.aliases.pop(target.id, None)
            self.bind_depth[target.id] = self.loop_depth
        elif isinstance(target, ast.Attribute):
            self._record_field(target, write=True)
            self.expr(target.value)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self._record_field(target.value, write=True)
            self.expr(target.value)
            self.expr(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, ast.Constant(value=None))
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, ast.Constant(value=None))

    def _with(self, node: ast.stmt) -> None:
        assert isinstance(node, (ast.With, ast.AsyncWith))
        acquired: List[LockId] = []
        for item in node.items:
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                acquired.append(lock)
            elif (
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func, ast.Attribute)
                and item.context_expr.func.attr == "pin"
            ):
                self._with_pins.add(id(item.context_expr))
            self.expr(item.context_expr)
            if item.optional_vars is not None:
                self._assign_target(
                    item.optional_vars, ast.Constant(value=None)
                )
        self.held = self.held + tuple(acquired)
        for stmt in node.body:
            self.stmt(stmt)
        self.held = self.held[: len(self.held) - len(acquired)]

    # -- expressions ----------------------------------------------------
    def expr(self, node: Optional[ast.AST]) -> None:
        if node is None or not isinstance(node, ast.AST):
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            self._record_field(
                node, write=isinstance(node.ctx, (ast.Store, ast.Del))
            )
            self.expr(node.value)
            return
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if isinstance(node.value, ast.Attribute):
                self._record_field(node.value, write=True)
            self.expr(node.value)
            self.expr(node.slice)
            return
        if isinstance(node, ast.Lambda):
            self.expr(node.body)
            return
        for child in ast.iter_child_nodes(node):
            self.expr(child)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)
        if dotted is not None and (
            dotted in _BLOCKING_NAMES
            or any(dotted.startswith(p) for p in _BLOCKING_PREFIXES)
        ):
            self.out.blocking.append(
                Blocking(dotted, self._heldset(), node.lineno)
            )
        if dotted in ("os.replace", "os.rename"):
            self.out.renames.append(node.lineno)
        if isinstance(func, ast.Attribute):
            self._attr_call(node, func)
        elif isinstance(func, ast.Name):
            target = self.model.resolve(func.id)
            if target is not None and "__init__" in target.methods:
                self.out.calls.append(CallEdge(
                    (func.id, "__init__"), self._heldset(), node.lineno
                ))
        for arg in node.args:
            self.expr(arg)
        for kw in node.keywords:
            self.expr(kw.value)
        if isinstance(func, ast.Attribute):
            self.expr(func.value)

    def _attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        dotted = _dotted(func)
        recv_type = self.model.resolve(self._type_of(func.value))
        # Container mutation counts as a write to the holding field —
        # unless the receiver is a modeled class that defines ``attr``
        # as a method (that is a call edge, not a list/dict mutation).
        if (
            attr in _MUTATORS
            and isinstance(func.value, ast.Attribute)
            and (recv_type is None or attr not in recv_type.methods)
        ):
            self._record_field(func.value, write=True, mutator=True)
        if (
            dotted in ("heapq.heappush", "heapq.heappop", "heapq.heapify")
            and node.args
            and isinstance(node.args[0], ast.Attribute)
        ):
            self._record_field(node.args[0], write=True)
        # Bare lock acquire/release (the with-statement is the safe form).
        lock = self._lock_id(func.value)
        if lock is not None and attr == "acquire":
            self.out.acquires.append(
                Acquire(lock, node.lineno)
            )
        if lock is not None and attr == "release":
            self.out.releases.append(
                Release(lock, node.lineno, self.finally_depth > 0)
            )
        # Blocking attribute calls.
        if attr in _BLOCKING_ATTRS or attr == "open":
            self.out.blocking.append(
                Blocking(dotted or f".{attr}", self._heldset(), node.lineno)
            )
        if attr == "wait":
            self._wait_call(node, func)
        if attr == "join" and self._type_of(func.value) == "@Thread":
            self.out.blocking.append(
                Blocking("Thread.join", self._heldset(), node.lineno)
            )
        # Resource pairing.
        owner = recv_type
        if attr == "pin" and owner is not None and owner.has_pin:
            self.out.pins.append(PinUse(
                owner.name, node.lineno, id(node) in self._with_pins
            ))
        if attr == "begin_run":
            recv = _dotted(func.value) or "?"
            root = recv.split(".", 1)[0]
            self.out.claims.append(ClaimEvent(
                recv=recv,
                depth=self.loop_depth,
                bind_depth=self.bind_depth.get(root, 0),
                line=node.lineno,
            ))
        # Call edges through resolved receivers.
        if owner is not None and attr in owner.methods:
            self.out.calls.append(
                CallEdge((owner.name, attr), self._heldset(), node.lineno)
            )

    def _wait_call(self, node: ast.Call, func: ast.Attribute) -> None:
        owner = self.model.resolve(self._type_of(func.value))
        if owner is None or not isinstance(func.value, ast.Attribute):
            return
        name = func.value.attr
        if name in owner.sync_fields:
            self.out.blocking.append(
                Blocking("Event.wait", self._heldset(), node.lineno)
            )
        elif name in owner.cond_fields:
            # cond.wait releases the condition's lock while blocked —
            # waiting with it held is the intended pattern, waiting
            # without it is a bug that raises at runtime anyway.
            if (owner.name, name) not in self.held:
                self.out.blocking.append(
                    Blocking("Condition.wait", self._heldset(), node.lineno)
                )
