"""Atomic epoch snapshots anchoring WAL recovery and compaction.

One snapshot is one npz archive holding an :class:`Epoch`: the graph and
the core graph packed by the :mod:`repro.io.binary` codec (under the
``g_`` and ``cg_`` key prefixes) plus the epoch's scalar fields as a
JSON entry. :meth:`SnapshotStore.save` takes an epoch and
:meth:`SnapshotStore.load` returns an equal one. Writes go through
``atomic_path`` so a crash mid-snapshot leaves the previous snapshot
intact, never a torn file.

Recovery loads the *latest valid* snapshot — a corrupt,
older-format or fingerprint-mismatched file is skipped (older snapshots
stay usable precisely because compaction never deletes the one a live
segment still depends on) — and replays the WAL tail on top of it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.evolve.epoch import Epoch
from repro.io.binary import (
    core_graph_from,
    core_graph_payload,
    graph_from,
    graph_payload,
    open_npz,
)
from repro.io.errors import CorruptGraphError
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.resilience.atomic import atomic_path
from repro.resilience.faults import fault_point

PathLike = Union[str, Path]

# Format 1 kept the core-graph arrays under their own key names.
_SNAPSHOT_FORMAT = 2
SNAPSHOT_PREFIX = "snap-"
SNAPSHOT_SUFFIX = ".npz"
_META_FIELDS = (
    "number", "fingerprint", "triangle_safe", "inserted_edges",
    "deleted_edges", "probe_precision", "rebuilt_from",
)


class SnapshotError(OSError):
    """A snapshot could not be written or no usable one exists."""


def snapshot_file(directory: PathLike, epoch: int) -> Path:
    return Path(directory) / f"{SNAPSHOT_PREFIX}{epoch:08d}{SNAPSHOT_SUFFIX}"


def snapshot_epoch(path: PathLike) -> int:
    name = Path(path).name
    if not (name.startswith(SNAPSHOT_PREFIX)
            and name.endswith(SNAPSHOT_SUFFIX)):
        raise ValueError(f"not a snapshot name: {name!r}")
    return int(name[len(SNAPSHOT_PREFIX):-len(SNAPSHOT_SUFFIX)])


class SnapshotStore:
    """Directory of epoch-stamped snapshots with latest-valid lookup."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)

    def paths(self) -> List[Path]:
        """Snapshot files, oldest epoch first."""
        if not self.directory.is_dir():
            return []
        snaps = [
            p for p in self.directory.iterdir()
            if p.name.startswith(SNAPSHOT_PREFIX)
            and p.name.endswith(SNAPSHOT_SUFFIX)
        ]
        return sorted(snaps, key=snapshot_epoch)

    def save(self, epoch: Epoch) -> Path:
        """Atomically persist ``epoch``; returns the snapshot path.

        The ``snapshot.write`` fault point fires before the temp file is
        written, so an injected crash models a kill mid-snapshot: the
        atomic protocol guarantees no partial file survives it.
        """
        meta = {name: getattr(epoch, name) for name in _META_FIELDS}
        payload = {
            "format": np.int64(_SNAPSHOT_FORMAT),
            "meta_json": np.array(json.dumps(meta)),
            **graph_payload(epoch.graph, "g_"),
            **core_graph_payload(epoch.proxy, "cg_"),
        }
        final = snapshot_file(self.directory, epoch.number)
        fault_point("snapshot.write")
        with atomic_path(final, suffix=SNAPSHOT_SUFFIX) as tmp:
            np.savez_compressed(tmp, **payload)
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.snapshot.saves").inc()
            obs_journal.emit({
                "type": "event",
                "name": "evolve.snapshot",
                "epoch": epoch.number,
                "graph_fingerprint": epoch.fingerprint,
                "path": str(final),
            })
        return final

    def load(self, path: PathLike) -> Epoch:
        """Decode one snapshot; corrupt archives raise CorruptGraphError."""
        path = Path(path)
        with open_npz(
            path, "snapshot", _SNAPSHOT_FORMAT, ("meta_json",)
        ) as data:
            try:
                meta = json.loads(str(data["meta_json"]))
                fields = {name: meta[name] for name in _META_FIELDS}
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorruptGraphError(
                    f"snapshot meta is unreadable: {exc!r}", path=path
                ) from exc
            graph = graph_from(data, path, "snapshot", "g_")
            proxy = core_graph_from(data, path, "snapshot", "cg_")
        if graph.fingerprint() != fields["fingerprint"]:
            raise CorruptGraphError(
                f"snapshot fingerprint mismatch: meta says "
                f"{fields['fingerprint']}, arrays hash to "
                f"{graph.fingerprint()}", path=path
            )
        return Epoch(graph=graph, proxy=proxy, **fields)

    def latest(self, before: Optional[int] = None) -> Optional[Epoch]:
        """The newest loadable snapshot (``number <= before`` if given).

        Corrupt snapshots are skipped — recovery falls back to the next
        older one and replays a longer WAL tail instead of failing.
        """
        for path in reversed(self.paths()):
            if before is not None and snapshot_epoch(path) > before:
                continue
            try:
                return self.load(path)
            except (CorruptGraphError, OSError):
                continue
        return None
