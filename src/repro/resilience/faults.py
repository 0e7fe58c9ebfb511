"""Deterministic fault injection at named sites.

Hot paths call :func:`fault_point` with a stable site name; when a fault is
installed for that site the Nth hit fires it — a crash (raises
:class:`InjectedCrash`), an IO error (raises :class:`InjectedIOError`,
which is also an :class:`OSError` so IO error handling treats it like a
real one), or a fixed delay. With nothing installed a fault point is one
empty-dict check, so the hooks stay in production code permanently.

Faults come from two places:

* programmatically — :func:`install` / the :func:`injected` context
  manager (what the failure-mode test suite uses);
* the ``REPRO_FAULTS`` environment variable, parsed at import and on
  :func:`configure_from_env` — what lets CI kill a CLI run mid-flight.
  Syntax: semicolon-separated ``site:kind:hit[:param]`` entries, e.g.
  ``engine.frontier.iteration:crash:40`` (crash at the 40th hit) or
  ``wal.fsync:delay:1:0.25`` (sleep 250 ms at the first WAL fsync). A hit spec with a ``+`` suffix (``serve.worker.request:crash:2+``)
  makes the fault *repeat*: it fires on every hit from that number on —
  what poisoned-request tests use to fail the same request twice.

Known sites (grep for ``fault_point`` for ground truth):
``engine.frontier.iteration``, ``engine.scalar.pop``,
``twophase.core.begin``, ``twophase.completion.begin``, ``io.load``,
``journal.close``, ``serve.worker.request``,
``obs.live.exporter.serve``, ``graph.mutate.add``,
``graph.mutate.remove``, ``evolve.apply``, ``evolve.rebuild``,
``evolve.swap``, ``evolve.supervisor.tick``, ``wal.append``,
``wal.fsync``, ``wal.rotate``, ``snapshot.write``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from contextlib import contextmanager

ENV_VAR = "REPRO_FAULTS"
KINDS = ("crash", "ioerror", "delay")

#: Serializes hit counting so concurrent serve workers sharing a site see
#: an exact hit sequence (held only while a fault is armed).
_HITS_LOCK = threading.Lock()


class InjectedFault(RuntimeError):
    """Base class for injected failures (never raised by real code paths)."""


class InjectedCrash(InjectedFault):
    """Simulates a process being killed at the fault point."""


class InjectedIOError(InjectedFault, OSError):
    """Simulates a transient IO failure (it is an OSError)."""


@dataclass
class Fault:
    """One installed fault: fire ``kind`` on hit number ``at_hit``.

    With ``repeat=True`` the fault fires on *every* hit from ``at_hit``
    on, instead of exactly once.
    """

    site: str
    kind: str
    at_hit: int = 1
    param: Optional[float] = None
    repeat: bool = False
    hits: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {KINDS}")
        if self.at_hit < 1:
            raise ValueError("at_hit is 1-based and must be >= 1")


_FAULTS: Dict[str, Fault] = {}


def install(
    site: str, kind: str, at_hit: int = 1, param: Optional[float] = None,
    repeat: bool = False,
) -> Fault:
    """Arm ``site``; replaces any fault already installed there."""
    fault = Fault(site, kind, at_hit, param, repeat)
    _FAULTS[site] = fault
    return fault


def clear() -> None:
    """Disarm every installed fault."""
    _FAULTS.clear()


def installed() -> Dict[str, Fault]:
    """The live site -> fault map (primarily for diagnostics/tests)."""
    return dict(_FAULTS)


@contextmanager
def injected(
    site: str, kind: str, at_hit: int = 1, param: Optional[float] = None,
    repeat: bool = False,
) -> Iterator[Fault]:
    """Scoped :func:`install`; restores the previous arming on exit."""
    prior = _FAULTS.get(site)
    fault = install(site, kind, at_hit, param, repeat)
    try:
        yield fault
    finally:
        if _FAULTS.get(site) is fault:
            if prior is None:
                _FAULTS.pop(site, None)
            else:
                _FAULTS[site] = prior


def parse_spec(spec: str) -> Dict[str, Fault]:
    """Parse a ``REPRO_FAULTS`` string into site -> :class:`Fault`."""
    faults: Dict[str, Fault] = {}
    for entry in spec.replace(",", ";").split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"bad fault entry {entry!r}; expected site:kind[:hit[:param]]"
            )
        site, kind = parts[0], parts[1]
        hit_spec = parts[2] if len(parts) > 2 and parts[2] else "1"
        repeat = hit_spec.endswith("+")
        at_hit = int(hit_spec.rstrip("+") or "1")
        param = float(parts[3]) if len(parts) > 3 and parts[3] else None
        faults[site] = Fault(site, kind, at_hit, param, repeat)
    return faults


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> int:
    """(Re)install faults from ``REPRO_FAULTS``; returns how many."""
    spec = (environ if environ is not None else os.environ).get(ENV_VAR, "")
    if not spec:
        return 0
    parsed = parse_spec(spec)
    _FAULTS.update(parsed)
    return len(parsed)


def _record(fault: Fault) -> None:
    from repro.obs import journal as obs_journal
    from repro.obs import metrics as obs_metrics
    from repro.obs import runtime as obs_runtime
    from repro.obs import trace as obs_trace

    if not obs_runtime._enabled:
        return
    obs_metrics.counter(
        "resilience.faults.injected", site=fault.site, kind=fault.kind
    ).inc()
    event = {
        "type": "event", "name": "fault.injected", "site": fault.site,
        "kind": fault.kind, "hit": fault.hits,
    }
    # Chaos runs are attributable per-request: a fault that fires while a
    # worker executes a traced request carries that request's trace id.
    trace_id = obs_trace.current_trace_id()
    if trace_id is not None:
        event["trace"] = trace_id
    obs_journal.emit(event)


def fault_point(site: str) -> None:
    """Fire the installed fault for ``site`` when its hit count is reached."""
    if not _FAULTS:
        return
    fault = _FAULTS.get(site)
    if fault is None:
        return
    with _HITS_LOCK:
        fault.hits += 1
        fire = (
            fault.hits >= fault.at_hit if fault.repeat
            else fault.hits == fault.at_hit
        )
    if not fire:
        return
    _record(fault)
    if fault.kind == "crash":
        raise InjectedCrash(f"injected crash at {site} (hit {fault.hits})")
    if fault.kind == "ioerror":
        raise InjectedIOError(
            f"injected IO error at {site} (hit {fault.hits})"
        )
    time.sleep(fault.param if fault.param is not None else 0.01)


configure_from_env()
