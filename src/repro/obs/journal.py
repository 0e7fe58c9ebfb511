"""Append-only JSONL run journals.

A journal is one file per run: the first line is a ``manifest`` event
capturing everything needed to reproduce or compare the run (config, graph
shape, seed, git SHA, Python/numpy versions), and every subsequent line is
one telemetry event (``span``, ``rounds``, ``event``, ``metrics``).
Events carry a monotonically increasing ``seq`` and an elapsed-seconds
``t`` so the stream is totally ordered even across threads.

Exactly one journal may be active per process; :func:`emit` from anywhere
in the stack appends to it (or silently drops the event when none is
active, which is the disabled path). Every event also records the emitting
``thread`` (its :func:`threading.get_ident`), which is what lets journal
consumers re-attribute events to the right span when concurrent engines
interleave their streams.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs import trace

#: The per-round columns of a ``rounds`` event, which the frontier engine
#: emits once per run: list ``k`` of each column belongs to round ``k``.
ROUND_COLUMNS = (
    "frontier", "edges_scanned", "updates", "activated", "edges_skipped",
    "redundant",
)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and not hasattr(value, "ndim"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


_KEY_TYPES = frozenset({str, int})
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


def _plain_keys(value: Any) -> bool:
    """Whether every dict key nested in ``value`` is a plain str or int."""
    if isinstance(value, dict):
        if not _KEY_TYPES.issuperset(map(type, value)):
            return False
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return True
    if _LEAF_TYPES.issuperset(map(type, value)):
        return True
    return all(_plain_keys(v) for v in value)


def _encode(payload: Dict[str, Any]) -> str:
    """One journal line: ``payload`` with each value passed through
    :func:`_jsonable`, as JSON.

    ``json.dumps`` calls :func:`_jsonable` only on what it cannot encode
    itself (numpy values, dataclasses, paths, sets), so the common values
    are not walked. The two differ only on nested dict keys, which the
    walk writes as ``str(key)`` and ``json`` as ``true``/``null``/``NaN``
    (or refuses), so a payload with a nested key that is not a plain str
    or int is walked first.
    """
    if _plain_keys(payload):
        return json.dumps(payload, default=_jsonable)
    return json.dumps({k: _jsonable(v) for k, v in payload.items()})


def git_sha() -> Optional[str]:
    """HEAD commit of the working tree, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def build_manifest(
    config: Any = None,
    graph: Any = None,
    seed: Optional[int] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """The run manifest: environment fingerprint + run parameters.

    ``config`` may be a dataclass (e.g. :class:`HarnessConfig`) or dict;
    ``graph`` may be a :class:`~repro.graph.csr.Graph` (its shape is
    recorded) or an explicit ``{"num_vertices": ..., "num_edges": ...}``.
    """
    import numpy as np

    if graph is not None and hasattr(graph, "num_vertices"):
        graph = {
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
        }
    return {
        "type": "manifest",
        "created": datetime.now(timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "config": _jsonable(config),
        "graph": _jsonable(graph),
        "seed": seed,
        **{k: _jsonable(v) for k, v in extra.items()},
    }


class Journal:
    """One open JSONL sink; thread-safe appends.

    The stream is written to ``<path>.partial`` and atomically renamed to
    ``path`` on :meth:`close`, so a crashed run can never leave a
    truncated file *at the journal path* — consumers either see a
    complete journal or the clearly-in-progress ``.partial`` file (which
    :func:`read_events` falls back to, tolerating a torn final line).
    """

    def __init__(self, path: Union[str, Path], manifest: Optional[Dict] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._partial = self.path.with_name(self.path.name + ".partial")
        # Streaming journal: events append to the visible .partial file,
        # which close() renames into place — the atomic protocol itself,
        # open-coded because the stream outlives any `with` block.
        self._fh = self._partial.open("w")  # repro: noqa RC002 — see above
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        self.emit(manifest if manifest is not None else {"type": "manifest"})

    def emit(self, event: Dict[str, Any]) -> None:
        payload = dict(event)
        payload.setdefault("thread", threading.get_ident())
        if "trace" not in payload:
            trace_id = trace.current_trace_id()
            if trace_id is not None:
                payload["trace"] = trace_id
        with self._lock:
            if self._fh.closed:
                return
            payload.setdefault("seq", self._seq)
            payload.setdefault(
                "t", round(time.perf_counter() - self._t0, 9)
            )
            self._seq += 1
            self._fh.write(_encode(payload) + "\n")

    def rel_time(self, perf_t: float) -> float:
        """A ``perf_counter`` reading as this journal's elapsed seconds."""
        return max(0.0, perf_t - self._t0)

    def close(self) -> None:
        from repro.resilience.faults import fault_point

        with self._lock:
            if not self._fh.closed:
                # The flush/fsync/rename must hold the emit lock: a
                # writer racing past close would hit a closed stream and
                # drop its event instead of landing in .partial.
                fault_point("journal.close")  # repro: noqa RC104 — final flush
                self._fh.flush()
                os.fsync(self._fh.fileno())  # repro: noqa RC104 — final flush
                self._fh.close()
                os.replace(self._partial, self.path)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


_active: Optional[Journal] = None

# ----------------------------------------------------------------------
# Event context: ambient fields stamped onto every type=="event" payload.
#
# The process-global layer carries run-wide identity (graph_epoch,
# graph_fingerprint — set by the CLI at load time and advanced by the
# epoch maintainer on every swap); the thread-local layer lets a request
# pin the epoch it actually executed on, so events emitted mid-query are
# stamped with the *pinned* epoch even while the store has moved on.
# Explicit fields in an event always win over ambient context.
# ----------------------------------------------------------------------
_context_lock = threading.Lock()
_global_context: Dict[str, Any] = {}
_context_local = threading.local()


def set_global_context(**fields: Any) -> None:
    """Merge ``fields`` into the process-global event context.

    A value of ``None`` removes the key.
    """
    with _context_lock:
        for key, value in fields.items():
            if value is None:
                _global_context.pop(key, None)
            else:
                _global_context[key] = value


def clear_global_context() -> None:
    with _context_lock:
        _global_context.clear()


class _ContextFrame:
    def __init__(self, fields: Dict[str, Any]) -> None:
        self._fields = fields

    def __enter__(self) -> "_ContextFrame":
        stack = getattr(_context_local, "stack", None)
        if stack is None:
            stack = _context_local.stack = []
        stack.append(self._fields)
        return self

    def __exit__(self, *exc: object) -> bool:
        _context_local.stack.pop()
        return False


def context(**fields: Any) -> _ContextFrame:
    """Thread-local context frame: ``with context(graph_epoch=3): ...``."""
    return _ContextFrame({k: v for k, v in fields.items() if v is not None})


def current_context() -> Dict[str, Any]:
    """The merged ambient context (global layer, then thread-local frames)."""
    with _context_lock:
        merged = dict(_global_context)
    for frame in getattr(_context_local, "stack", ()):
        merged.update(frame)
    return merged


def _stamp_context(event: Dict[str, Any]) -> Dict[str, Any]:
    if event.get("type") != "event":
        return event
    ambient = current_context()
    if not ambient:
        return event
    stamped = dict(event)
    for key, value in ambient.items():
        stamped.setdefault(key, value)
    return stamped


def activate(journal: Journal) -> None:
    global _active
    if _active is not None:
        raise RuntimeError(f"a journal is already active: {_active.path}")
    _active = journal


def deactivate() -> None:
    global _active
    _active = None


def active_journal() -> Optional[Journal]:
    return _active


def emit(event: Dict[str, Any]) -> None:
    """Append ``event`` to the active journal (a no-op when none is active).

    ``type == "event"`` payloads are stamped with the ambient event
    context (see :func:`set_global_context` / :func:`context`) — how
    result events gain ``graph_epoch``/``graph_fingerprint`` without
    threading those through every emitter's signature — and every event
    with the active trace id.
    """
    journal = _active
    if journal is None:
        return
    event = _stamp_context(event)
    if "trace" not in event:
        trace_id = trace.current_trace_id()
        if trace_id is not None:
            event = {**event, "trace": trace_id}
    journal.emit(event)


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL journal back into its event dicts.

    When ``path`` does not exist but ``<path>.partial`` does (the run was
    killed before the closing rename), the partial stream is read instead.
    A ``.partial`` stream, whether named directly or found that way, has
    its torn final line — the one write a crash can truncate — dropped
    rather than raised. A bad line with events after it is corruption, not
    a torn tail, and raises ``ValueError`` in a ``.partial`` stream too.
    """
    target = Path(path)
    if not target.exists():
        partial = target.with_name(target.name + ".partial")
        if partial.exists():
            target = partial
    tolerant = target.suffix == ".partial"
    with target.open() as fh:
        lines = [line for line in map(str.strip, fh) if line]
    events = []
    for number, line in enumerate(lines, 1):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if not tolerant:
                raise
            if number < len(lines):
                raise ValueError(
                    f"corrupt journal line in {target}: "
                    f"{len(lines) - number} line(s) follow it"
                ) from exc
    return events


EventsOrPath = Union[str, Path, List[Dict[str, Any]]]


def iter_events(events_or_path: EventsOrPath) -> Iterator[Dict[str, Any]]:
    """Iterate events given either a parsed list or a journal path."""
    if isinstance(events_or_path, (str, Path)):
        yield from read_events(events_or_path)
    else:
        yield from events_or_path
