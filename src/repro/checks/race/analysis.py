"""Lock-discipline and blocking-under-lock analysis over a :class:`ProgramModel`.

Pipeline (all interprocedural, over the class-method call graph):

1. **Roots.** Every ``threading.Thread(target=self.m)`` method is a
   thread root; methods of classes defined inside a method (HTTP handler
   pattern) are roots too, since stdlib servers invoke them from their
   own threads. One synthetic *main* root covers the public methods of
   every class that is not constructor-owned by another modeled class —
   external code can call those on the main thread at any time. A thread
   root counts as concurrent with itself (pools start many copies), the
   main root as a single caller.

2. **Sharedness.** A field is *shared* when the roots that reach it (BFS
   over call edges, constructor accesses excluded) could run
   concurrently — i.e. at least one thread root reaches it.

3. **Lock discipline.** A must-held fixpoint propagates the locks
   guaranteed at method entry (intersection over call sites; roots start
   empty). Shared fields whose writes never hold any lock are RC101;
   writes that miss a lock other writes hold are RC102 (inconsistent
   guard); a statement reading several fields guarded by the same lock
   without holding it is RC102 too (torn multi-word read).

4. **Blocking.** A may-held fixpoint (union over call sites) gives the
   locks possibly held at each method entry; blocking calls (fault
   points, file I/O, sleeps, joins, event waits) under any may-held lock
   are RC104.

Methods never reached from any root are skipped by the discipline passes
(their lock context is unknowable), but still checked for RC104 with
their local held sets — a sleep inside ``with self._lock`` is wrong no
matter who calls it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.checks.lint.framework import Violation
from repro.checks.race.model import (
    Access,
    LockId,
    MethodKey,
    ProgramModel,
)

#: Dunders external code invokes directly; other ``_``-prefixed methods
#: are internal and only analyzed as reached through real call edges.
_PUBLIC_DUNDERS = {"__init__", "__call__", "__enter__", "__exit__"}

Field = Tuple[str, str]  # (class name, field name)


def _lock_name(lock: LockId) -> str:
    return f"{lock[0]}.{lock[1]}"


def _locks_name(locks: Iterable[LockId]) -> str:
    return ", ".join(sorted(_lock_name(lk) for lk in locks))


def _is_public(name: str) -> bool:
    if name in _PUBLIC_DUNDERS:
        return True
    return not name.startswith("_")


class RaceAnalysis:
    """Runs the discipline/blocking passes; ``violations()`` is the result."""

    def __init__(self, model: ProgramModel) -> None:
        self.model = model
        self.thread_roots: List[MethodKey] = sorted(
            key for key, s in model.methods.items() if s.is_thread_root
        )
        self.main_frontier: List[MethodKey] = sorted(
            (ci.name, m)
            for ci in model.classes.values()
            if not ci.owned
            for m in ci.methods
            if _is_public(m) and (ci.name, m) in model.methods
        )
        self.entry_must = self._fixpoint_must()
        self.entry_may = self._fixpoint_may()
        self.root_touch = self._root_touches()
        self.shared = self._shared_fields()
        self.owner_locks = self._owner_locks()

    # ------------------------------------------------------------------
    # Fixpoints
    # ------------------------------------------------------------------
    def _roots(self) -> Set[MethodKey]:
        return set(self.thread_roots) | set(self.main_frontier)

    def _fixpoint_must(self) -> Dict[MethodKey, Optional[FrozenSet[LockId]]]:
        # None = unreached (top); roots start at the empty set and the
        # value at each method only ever shrinks, so this terminates.
        must: Dict[MethodKey, Optional[FrozenSet[LockId]]] = {
            key: None for key in self.model.methods
        }
        for key in self._roots():
            must[key] = frozenset()
        changed = True
        while changed:
            changed = False
            for caller, summary in self.model.methods.items():
                base = must[caller]
                if base is None:
                    continue
                for call in summary.calls:
                    if call.callee not in must:
                        continue
                    contrib = base | call.held
                    cur = must[call.callee]
                    new = contrib if cur is None else cur & contrib
                    if new != cur:
                        must[call.callee] = new
                        changed = True
        return must

    def _fixpoint_may(self) -> Dict[MethodKey, FrozenSet[LockId]]:
        may: Dict[MethodKey, FrozenSet[LockId]] = {
            key: frozenset() for key in self.model.methods
        }
        changed = True
        while changed:
            changed = False
            for caller, summary in self.model.methods.items():
                if self.entry_must[caller] is None:
                    continue  # unreached callers contribute nothing
                base = may[caller]
                for call in summary.calls:
                    if call.callee not in may:
                        continue
                    contrib = base | call.held
                    if not contrib <= may[call.callee]:
                        may[call.callee] = may[call.callee] | contrib
                        changed = True
        return may

    # ------------------------------------------------------------------
    # Sharedness
    # ------------------------------------------------------------------
    def _reach(self, frontier: Iterable[MethodKey]) -> Set[MethodKey]:
        seen: Set[MethodKey] = set()
        stack = [key for key in frontier if key in self.model.methods]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            for call in self.model.methods[key].calls:
                if call.callee in self.model.methods:
                    stack.append(call.callee)
        return seen

    def _root_touches(self) -> Dict[Field, Set[str]]:
        """field -> ids of the roots whose reach accesses it."""
        touch: Dict[Field, Set[str]] = defaultdict(set)
        for root in self.thread_roots:
            rid = f"thread:{root[0]}.{root[1]}"
            for key in self._reach([root]):
                for a in self.model.methods[key].accesses:
                    if not a.in_init:
                        touch[(a.cls, a.field)].add(rid)
        for key in self._reach(self.main_frontier):
            for a in self.model.methods[key].accesses:
                if not a.in_init:
                    touch[(a.cls, a.field)].add("main")
        return touch

    def _shared_fields(self) -> Set[Field]:
        shared: Set[Field] = set()
        for fld, roots in self.root_touch.items():
            # A thread root is concurrent with itself (pools spawn many
            # copies of the same entry point), main is a single caller.
            weight = sum(1 if r == "main" else 2 for r in roots)
            if weight >= 2:
                shared.add(fld)
        return shared

    # ------------------------------------------------------------------
    # Discipline
    # ------------------------------------------------------------------
    def _held_at(self, key: MethodKey, local: FrozenSet[LockId]
                 ) -> FrozenSet[LockId]:
        entry = self.entry_must[key]
        return local if entry is None else entry | local

    def _analyzed_accesses(self) -> List[Tuple[MethodKey, Access]]:
        out = []
        for key, summary in self.model.methods.items():
            if self.entry_must[key] is None or summary.is_init:
                continue
            for a in summary.accesses:
                if not a.in_init:
                    out.append((key, a))
        return out

    def _owner_locks(self) -> Dict[Field, FrozenSet[LockId]]:
        """Locks held at *every* write of a field (its inferred guards)."""
        inter: Dict[Field, Optional[FrozenSet[LockId]]] = {}
        for key, a in self._analyzed_accesses():
            if not a.write:
                continue
            fld = (a.cls, a.field)
            held = self._held_at(key, a.held)
            cur = inter.get(fld)
            inter[fld] = held if cur is None else cur & held
        return {
            fld: locks for fld, locks in inter.items()
            if locks  # only fields with a consistent non-empty guard
        }

    def check_discipline(self) -> List[Violation]:
        out: List[Violation] = []
        writes: Dict[Field, List[Tuple[MethodKey, Access]]] = defaultdict(list)
        for key, a in self._analyzed_accesses():
            if a.write:
                writes[(a.cls, a.field)].append((key, a))
        for fld in sorted(self.shared):
            wlist = writes.get(fld)
            if not wlist or fld in self.owner_locks:
                continue
            helds = [self._held_at(key, a.held) for key, a in wlist]
            count = Counter(lock for held in helds for lock in held)
            roots = ", ".join(sorted(self.root_touch[fld]))
            if count:
                guard, _ = count.most_common(1)[0]
                for (key, a), held in zip(wlist, helds):
                    if guard not in held:
                        out.append(Violation(
                            rule="RC102",
                            path=self.model.methods[key].path,
                            line=a.line,
                            message=(
                                f"write to shared field {fld[0]}.{fld[1]} "
                                f"without {_lock_name(guard)}, which other "
                                f"writes hold (inconsistent guard; reached "
                                f"from: {roots})"
                            ),
                        ))
            else:
                for key, a in wlist:
                    out.append(Violation(
                        rule="RC101",
                        path=self.model.methods[key].path,
                        line=a.line,
                        message=(
                            f"unguarded write to shared field "
                            f"{fld[0]}.{fld[1]} (no lock is held on any "
                            f"write path; reached from: {roots})"
                        ),
                    ))
        out.extend(self._check_torn_reads())
        return out

    def _check_torn_reads(self) -> List[Violation]:
        """RC102: one statement reads >=2 fields of a guard, unlocked."""
        out: List[Violation] = []
        for key, summary in sorted(self.model.methods.items()):
            if self.entry_must[key] is None or summary.is_init:
                continue
            by_stmt: Dict[int, List[Access]] = defaultdict(list)
            for a in summary.accesses:
                if not a.write and not a.in_init:
                    by_stmt[a.stmt].append(a)
            for stmt, reads in sorted(by_stmt.items()):
                unlocked: Dict[LockId, Set[Field]] = defaultdict(set)
                lines: Dict[LockId, int] = {}
                for a in reads:
                    fld = (a.cls, a.field)
                    held = self._held_at(key, a.held)
                    for lock in self.owner_locks.get(fld, ()):
                        if lock not in held:
                            unlocked[lock].add(fld)
                            lines[lock] = min(
                                lines.get(lock, a.line), a.line
                            )
                for lock, flds in sorted(unlocked.items()):
                    if len(flds) < 2 or not flds & self.shared:
                        continue
                    names = ", ".join(
                        f"{c}.{f}" for c, f in sorted(flds)
                    )
                    out.append(Violation(
                        rule="RC102",
                        path=summary.path,
                        line=lines[lock],
                        message=(
                            f"statement reads {len(flds)} fields guarded "
                            f"by {_lock_name(lock)} without holding it "
                            f"({names}) — torn multi-word read"
                        ),
                    ))
        return out

    # ------------------------------------------------------------------
    # Blocking under a lock
    # ------------------------------------------------------------------
    def check_blocking(self) -> List[Violation]:
        out: List[Violation] = []
        for key, summary in sorted(self.model.methods.items()):
            entry = self.entry_may.get(key, frozenset())
            for b in summary.blocking:
                context = entry | b.held
                if not context:
                    continue
                via = "" if b.held else " (held by callers)"
                out.append(Violation(
                    rule="RC104",
                    path=summary.path,
                    line=b.line,
                    message=(
                        f"blocking call {b.what} while "
                        f"{_locks_name(context)} may be held{via} — "
                        f"stalls every contender (and a crash here dies "
                        f"inside the critical section)"
                    ),
                ))
        return out

    # ------------------------------------------------------------------
    def violations(self) -> List[Violation]:
        out = self.check_discipline()
        out.extend(self.check_blocking())
        return out
