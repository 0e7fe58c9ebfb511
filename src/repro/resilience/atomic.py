"""Crash-safe file writes: temp file in the target directory + atomic rename.

POSIX ``os.replace`` within one filesystem is atomic, so readers (and the
next process after a crash) only ever observe either the previous complete
file or the new complete file — never a truncated artifact. Every persisted
product in the repo (results JSON, journals, artifact npz, baselines,
WAL snapshots) funnels through these helpers.

The rename is preceded by an fsync of the temp file: rename-atomicity
alone only orders the *names*, not the *data* — after a power loss a
renamed-but-unsynced file can legally read back empty. The concurrency
analyzer's RC105 rule enforces this fsync-before-rename discipline on
any code that calls ``os.replace``/``os.rename`` directly.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional, Union

PathLike = Union[str, Path]


@contextmanager
def atomic_path(path: PathLike, suffix: str = "") -> Iterator[Path]:
    """Yield a temp path next to ``path``; atomically rename on success.

    The temp file lives in the destination directory (same filesystem, so
    the final ``os.replace`` is atomic) and is removed if the body raises.
    ``suffix`` is appended to the temp name — writers like
    ``numpy.savez`` that append their own extension when one is missing
    need the temp path to already end in ``.npz``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=suffix or ".tmp", dir=path.parent
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        yield tmp
        _fsync_file(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def _fsync_file(path: Path) -> None:
    """Flush ``path``'s data to stable storage before it is renamed into
    place — otherwise a crash can surface the new name over empty data."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_open(
    path: PathLike, mode: str = "w", newline: Optional[str] = None
) -> Iterator[IO]:
    """Open-for-write that only materializes ``path`` on a clean close.

    ``newline`` is forwarded to :meth:`Path.open` (text modes only) so csv
    writers can request ``newline=""`` per the :mod:`csv` docs.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_open is write-only, got mode {mode!r}")
    with atomic_path(path) as tmp:
        fh = tmp.open(mode) if "b" in mode else tmp.open(mode, newline=newline)
        try:
            yield fh
        finally:
            fh.close()


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomically replace ``path`` with ``text``; returns the path."""
    path = Path(path)
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``; returns the path."""
    path = Path(path)
    with atomic_open(path, "wb") as fh:
        fh.write(data)
    return path
