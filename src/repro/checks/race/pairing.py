"""Resource-pairing (typestate) checks: pins, bare locks, budgets, files.

These are intraprocedural protocol checks over the walker's event
streams — the shapes that leak resources on exception edges:

* ``pin()`` on an epoch-store-like object (any modeled class with a
  ``pin`` method) must be consumed by a ``with`` statement. Calling it
  bare — or driving ``__enter__`` by hand — skips the ``finally`` that
  unpins, so one exception strands the epoch refcount and the store can
  never retire that epoch.
* ``lock.acquire()`` outside a ``with`` must have a ``release()`` in a
  ``finally`` block of the same method; anything else leaks the lock the
  first time the critical section raises.
* A :class:`~repro.resilience.budget.Budget` is single-claim:
  ``begin_run`` inside a loop on a budget bound outside it raises
  ``BudgetReuseError`` on the second lap, as does a straight-line double
  claim.
* A file handle opened in ``__init__`` — or anywhere else a method
  stores one on ``self`` (WAL segment rotation, journal reopen) — pairs
  with a ``close()`` somewhere on the class; a class that opens and
  never closes leaks the descriptor (and, for journal-style streams,
  the crash-visible ``.partial`` file never gets renamed into place).
* ``os.replace``/``os.rename`` must be preceded by an ``os.fsync`` in
  the same method (or in a callee invoked before it): rename atomicity
  orders the *names* only, so a renamed-but-unsynced file can legally
  read back empty after a power loss — the WAL/snapshot durability
  contract dies silently. Route writes through
  :func:`repro.resilience.atomic.atomic_path` instead.
"""

from __future__ import annotations

from typing import List

from repro.checks.lint.framework import Violation
from repro.checks.race.model import ProgramModel

RULE = "RC105"


def check_pairing(model: ProgramModel) -> List[Violation]:
    out: List[Violation] = []
    for key, summary in sorted(model.methods.items()):
        for pin in summary.pins:
            if pin.in_with:
                continue
            out.append(Violation(
                rule=RULE,
                path=summary.path,
                line=pin.line,
                message=(
                    f"{pin.owner}.pin() outside a with-statement — an "
                    f"exception before unpin strands the epoch refcount"
                ),
            ))
        released_in_finally = {
            r.lock for r in summary.releases if r.in_finally
        }
        for acq in summary.acquires:
            if acq.lock in released_in_finally:
                continue
            out.append(Violation(
                rule=RULE,
                path=summary.path,
                line=acq.line,
                message=(
                    f"{acq.lock[0]}.{acq.lock[1]}.acquire() without a "
                    f"release() in a finally — the lock leaks on "
                    f"exception paths (use a with-statement)"
                ),
            ))
        out.extend(_check_claims(summary))
        out.extend(_check_renames(model, key, summary))
    for ci in sorted(model.classes.values(), key=lambda c: c.name):
        opens = dict(ci.opens_in_init)
        opens.update(ci.opens_elsewhere)
        for fld, line in sorted(opens.items()):
            if fld in ci.closes:
                continue
            where = (
                "__init__" if fld in ci.opens_in_init else "a method"
            )
            out.append(Violation(
                rule=RULE,
                path=ci.path,
                line=line,
                message=(
                    f"{ci.name}: {where} opens self.{fld} but no method "
                    f"of the class closes it — the handle (and any "
                    f"rename-on-close protocol) leaks"
                ),
            ))
    return out


def _method_fsyncs(summary) -> List[int]:
    return [b.line for b in summary.blocking if b.what == "os.fsync"]


def _check_renames(model: ProgramModel, key, summary) -> List[Violation]:
    """fsync-before-rename: every ``os.replace``/``os.rename`` needs an
    ``os.fsync`` earlier in the method, or a pre-rename call into a
    method that fsyncs (the helper-mediated form)."""
    out: List[Violation] = []
    for rline in summary.renames:
        direct = any(line < rline for line in _method_fsyncs(summary))
        helper = any(
            edge.line < rline
            and edge.callee in model.methods
            and _method_fsyncs(model.methods[edge.callee])
            for edge in summary.calls
        )
        if direct or helper:
            continue
        out.append(Violation(
            rule=RULE,
            path=summary.path,
            line=rline,
            message=(
                f"{key[0]}.{key[1]} renames a file with no fsync before "
                f"it — after a crash the new name can surface over empty "
                f"data (fsync the temp file first, or use atomic_path)"
            ),
        ))
    return out


def _check_claims(summary) -> List[Violation]:
    out: List[Violation] = []
    by_recv: dict = {}
    for ev in summary.claims:
        by_recv.setdefault(ev.recv, []).append(ev)
    for recv, events in sorted(by_recv.items()):
        events.sort(key=lambda e: e.line)
        last_begin = None
        for ev in events:
            # begin_run inside a loop on a budget bound outside it.
            if ev.depth > ev.bind_depth:
                out.append(Violation(
                    rule=RULE,
                    path=summary.path,
                    line=ev.line,
                    message=(
                        f"{recv}.begin_run() inside a loop on a budget "
                        f"created outside it — the second iteration "
                        f"raises BudgetReuseError (budgets are "
                        f"single-claim; build one per lap)"
                    ),
                ))
                continue
            if last_begin is not None and ev.depth == last_begin.depth:
                out.append(Violation(
                    rule=RULE,
                    path=summary.path,
                    line=ev.line,
                    message=(
                        f"{recv}.begin_run() re-claims a budget already "
                        f"claimed at line {last_begin.line}"
                    ),
                ))
            last_begin = ev
    return out
