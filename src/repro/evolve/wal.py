"""Segmented, CRC-checksummed write-ahead log of mutation batches.

The WAL is the durable source of truth for the live-graph plane: every
mutation batch the :class:`~repro.evolve.maintainer.EpochMaintainer`
acknowledges is appended here *before* the epoch swap makes it visible,
so a crashed process can replay its way back to the exact pre-crash
epoch (see :mod:`repro.evolve.recovery`).

On-disk format
--------------
A log is a directory of segments ``wal-00000001.log``, ``wal-00000002.log``,
... Each segment is a sequence of framed records::

    +------+----------+----------+------------------+
    | RWAL | len (u32)| crc (u32)| payload (JSON)   |
    +------+----------+----------+------------------+

``crc`` is ``zlib.crc32`` of the payload bytes; ``len`` is the payload
length. The payload is one JSON object carrying at least ``kind`` (one
of ``batch`` / ``install`` / ``probe`` / ``abort``) and ``epoch``.

Failure discrimination is the point of the framing:

* a **torn tail** — the one partial write a crash can leave — is a short
  or CRC-failing frame at the *end* of the *last* segment with nothing
  valid after it. Readers truncate it and never lose a valid record.
* **mid-log corruption** — a bad frame *followed by* a parseable record,
  or any bad frame in a non-final segment — is not a crash artifact and
  raises the typed :class:`CorruptWalError` naming path/segment/offset.

Durability policy
-----------------
``fsync="always"`` syncs every append (strict: acknowledged batches
survive even an OS crash); ``"group"`` / ``"group:N"`` amortizes the
fsync to at most one per N milliseconds (acknowledged batches survive
process crashes always, OS crashes up to N ms behind); ``"never"``
only flushes to the OS. All three survive *process* kills — the chaos
harness's crash model — because the stream is flushed before the ack.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.resilience.faults import fault_point

PathLike = Union[str, Path]

MAGIC = b"RWAL"
_HEADER = struct.Struct(">4sII")  # magic, payload length, payload crc32
HEADER_BYTES = _HEADER.size

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: Record kinds a maintainer writes (recovery rejects anything else).
RECORD_KINDS = ("batch", "install", "probe", "abort")

#: An append that would grow a non-empty tail segment past this size
#: seals it and starts the next one (read per append, so tests can lower it).
SEGMENT_MAX_BYTES = 1 << 20
DEFAULT_GROUP_INTERVAL_MS = 5.0

FSYNC_POLICIES = ("always", "group", "never")


class WalError(OSError):
    """Base class for WAL failures."""


class CorruptWalError(WalError):
    """Mid-log corruption: a bad record that is *not* a torn tail.

    Carries the forensic triple (``path``, ``segment``, ``offset``) plus
    a human reason, so operators can decide whether to restore the
    segment from a replica or accept data loss explicitly — the library
    never silently drops records that valid data follows.
    """

    def __init__(
        self, path: PathLike, segment: int, offset: int, reason: str
    ) -> None:
        self.path = Path(path)
        self.segment = segment
        self.offset = offset
        self.reason = reason
        super().__init__(
            f"corrupt WAL record in {self.path} "
            f"(segment {segment}, offset {offset}): {reason}"
        )


@dataclass(frozen=True)
class WalRecord:
    """One decoded record with its physical position."""

    kind: str
    epoch: int
    payload: Dict[str, Any]
    segment: int
    offset: int


@dataclass(frozen=True)
class TornTail:
    """A truncated trailing write found (and safe to cut) during a scan."""

    path: Path
    segment: int
    valid_bytes: int
    reason: str


def encode_record(payload: Dict[str, Any]) -> bytes:
    """Frame ``payload`` as one on-disk record."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(MAGIC, len(body), zlib.crc32(body)) + body


def segment_path(directory: PathLike, seq: int) -> Path:
    return Path(directory) / f"{SEGMENT_PREFIX}{seq:08d}{SEGMENT_SUFFIX}"


def segment_seq(path: PathLike) -> int:
    """The sequence number encoded in a segment filename."""
    name = Path(path).name
    if not (name.startswith(SEGMENT_PREFIX)
            and name.endswith(SEGMENT_SUFFIX)):
        raise ValueError(f"not a WAL segment name: {name!r}")
    return int(name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


def list_segments(directory: PathLike) -> List[Path]:
    """The log's segments in append order (empty if the dir is missing)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    segs = [
        p for p in directory.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
        and p.name.endswith(SEGMENT_SUFFIX)
    ]
    return sorted(segs, key=segment_seq)


@dataclass
class SegmentScan:
    """Decoded records of one segment plus its tail diagnosis."""

    records: List[WalRecord]
    valid_bytes: int
    torn: Optional[str] = None  # reason, when a torn tail was cut


def _frame_at(
    data: bytes, offset: int
) -> Tuple[Optional[Dict[str, Any]], int, Optional[str]]:
    """Try to decode one frame; returns (payload, next_offset, error)."""
    if offset + HEADER_BYTES > len(data):
        return None, offset, "short header"
    magic, length, crc = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        return None, offset, f"bad magic {magic!r}"
    body_start = offset + HEADER_BYTES
    body_end = body_start + length
    if body_end > len(data):
        return None, offset, (
            f"short record ({body_end - len(data)} bytes missing)"
        )
    body = data[body_start:body_end]
    if zlib.crc32(body) != crc:
        return None, offset, "crc mismatch"
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, offset, f"undecodable payload: {exc}"
    if not isinstance(payload, dict) or "kind" not in payload:
        return None, offset, "payload is not a record object"
    return payload, body_end, None


def _valid_frame_after(data: bytes, start: int) -> bool:
    """Whether any complete, CRC-valid frame begins at/after ``start``.

    Distinguishes a torn tail (garbage to EOF — safe to truncate) from
    mid-log corruption (valid data follows the bad frame — truncating
    would destroy committed records, so the reader must raise instead).
    """
    pos = data.find(MAGIC, start)
    while pos != -1:
        payload, _, err = _frame_at(data, pos)
        if err is None and payload is not None:
            return True
        pos = data.find(MAGIC, pos + 1)
    return False


def scan_segment(
    path: PathLike, segment: Optional[int] = None, tolerate_torn: bool = True
) -> SegmentScan:
    """Decode a segment; diagnose (or raise on) its first bad frame.

    With ``tolerate_torn`` (the right setting for the *last* segment) a
    trailing bad frame with nothing valid after it is reported as a torn
    tail — ``valid_bytes`` marks where to truncate — while a bad frame
    that valid records follow raises :class:`CorruptWalError`. With
    ``tolerate_torn=False`` (non-final segments) any bad frame raises.
    """
    path = Path(path)
    seq = segment if segment is not None else segment_seq(path)
    data = path.read_bytes()
    records: List[WalRecord] = []
    offset = 0
    while offset < len(data):
        payload, next_offset, err = _frame_at(data, offset)
        if err is not None:
            if not tolerate_torn or _valid_frame_after(
                data, offset + 1
            ):
                raise CorruptWalError(path, seq, offset, err)
            return SegmentScan(records, valid_bytes=offset, torn=err)
        assert payload is not None
        kind = str(payload.get("kind"))
        if kind not in RECORD_KINDS:
            raise CorruptWalError(
                path, seq, offset, f"unknown record kind {kind!r}"
            )
        records.append(WalRecord(
            kind=kind,
            epoch=int(payload.get("epoch", -1)),
            payload=payload,
            segment=seq,
            offset=offset,
        ))
        offset = next_offset
    return SegmentScan(records, valid_bytes=offset)


def read_wal(
    directory: PathLike,
) -> Tuple[List[WalRecord], Optional[TornTail]]:
    """Decode every record in the log, oldest first.

    Only the *last* segment may carry a torn tail (returned, not
    raised); corruption anywhere else raises :class:`CorruptWalError`.
    """
    segments = list_segments(directory)
    records: List[WalRecord] = []
    torn: Optional[TornTail] = None
    for i, seg in enumerate(segments):
        last = i == len(segments) - 1
        scan = scan_segment(seg, tolerate_torn=last)
        records.extend(scan.records)
        if scan.torn is not None:
            torn = TornTail(
                path=seg,
                segment=segment_seq(seg),
                valid_bytes=scan.valid_bytes,
                reason=scan.torn,
            )
    return records, torn


def truncate_torn_tail(torn: TornTail) -> int:
    """Physically cut a diagnosed torn tail; returns bytes removed.

    Only ever shortens to the scan's ``valid_bytes`` watermark — a valid
    record can never be truncated through this path.
    """
    size = torn.path.stat().st_size
    removed = size - torn.valid_bytes
    if removed <= 0:
        return 0
    with torn.path.open("rb+") as fh:
        fh.truncate(torn.valid_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    return removed


def parse_fsync_policy(policy: str) -> Tuple[str, float]:
    """``always`` / ``never`` / ``group[:N]`` -> (mode, interval_ms)."""
    policy = policy.strip().lower()
    if policy in ("always", "never"):
        return policy, 0.0
    if policy == "group":
        return "group", DEFAULT_GROUP_INTERVAL_MS
    if policy.startswith("group:"):
        interval = float(policy.split(":", 1)[1])
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError("group-commit interval must be finite and > 0 ms")
        return "group", interval
    raise ValueError(
        f"unknown fsync policy {policy!r}; use always, never, or group[:N]"
    )


class WalWriter:
    """Single-writer append handle over a segment directory.

    Resumes an existing log (appending to its last segment) or starts
    ``wal-00000001.log`` in an empty directory. Appends are serialized
    by an internal lock; the maintainer's writer lock already serializes
    its callers, but recovery tooling and tests share writers too.
    """

    def __init__(self, directory: PathLike, fsync: str = "always") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_mode, self.group_interval_ms = parse_fsync_policy(fsync)
        self._lock = threading.Lock()
        self._appends = 0
        self._fsyncs = 0
        self._rotations = 0
        self._compacted = 0
        self._bytes = 0
        self._last_fsync = time.monotonic()
        existing = list_segments(self.directory)
        if existing:
            self._segment = existing[-1]
            self._seq = segment_seq(self._segment)
        else:
            self._seq = 1
            self._segment = segment_path(self.directory, self._seq)
            self._segment.touch()
        # Appends go straight to the visible segment file — the WAL *is*
        # the durable stream; rename-on-close would defeat its purpose.
        self._fh = self._segment.open("ab")
        self._size = self._segment.stat().st_size

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tail_path(self) -> Path:
        return self._segment

    def segment_count(self) -> int:
        return len(list_segments(self.directory))

    def durability(self) -> Dict[str, Any]:
        """The explain-facing summary of this log's guarantees."""
        mode = self.fsync_mode
        if mode == "group":
            mode = f"group:{self.group_interval_ms:g}ms"
        return {
            "mode": "wal",
            "dir": str(self.directory),
            "fsync": mode,
            "segment_max_bytes": SEGMENT_MAX_BYTES,
        }

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "appends": self._appends,
                "fsyncs": self._fsyncs,
                "rotations": self._rotations,
                "compacted_segments": self._compacted,
                "bytes": self._bytes,
                "segments": self.segment_count(),
            }

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append(self, kind: str, epoch: int, **fields: Any) -> WalRecord:
        """Durably append one record (per the fsync policy); ack only
        after this returns.

        The ``wal.append`` fault point fires *before* any byte is
        written (the record is simply absent after a crash there); the
        ``wal.fsync`` point fires before the sync syscall.
        """
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        payload: Dict[str, Any] = {"kind": kind, "epoch": int(epoch)}
        payload.update(fields)
        frame = encode_record(payload)
        t0 = time.perf_counter()
        with self._lock:
            if self._fh.closed:
                raise WalError(f"WAL writer for {self.directory} is closed")
            if (
                self._size > 0
                and self._size + len(frame) > SEGMENT_MAX_BYTES
            ):
                self._rotate_locked()
            offset = self._size
            fault_point("wal.append")  # repro: noqa RC104 — chaos site
            self._fh.write(frame)
            # Flush to the OS before acknowledging: a process kill after
            # the ack can then never lose the record (fsync policy only
            # governs survival of *machine* crashes).
            self._fh.flush()
            self._appends += 1
            self._bytes += len(frame)
            self._size += len(frame)
            synced = False
            if self.fsync_mode == "always":
                self._fsync_locked()
                synced = True
            elif self.fsync_mode == "group":
                now = time.monotonic()
                if (now - self._last_fsync) * 1000.0 >= self.group_interval_ms:
                    self._fsync_locked()
                    synced = True
            record = WalRecord(
                kind=kind, epoch=int(epoch), payload=payload,
                segment=self._seq, offset=offset,
            )
        self._record_append(time.perf_counter() - t0, synced)
        return record

    def _fsync_locked(self) -> None:
        fault_point("wal.fsync")  # repro: noqa RC104 — durable append
        os.fsync(self._fh.fileno())  # repro: noqa RC104 — durable append
        self._fsyncs += 1
        self._last_fsync = time.monotonic()

    # ------------------------------------------------------------------
    # Rotation and compaction
    # ------------------------------------------------------------------
    def _rotate_locked(self) -> None:
        fault_point("wal.rotate")  # repro: noqa RC104 — chaos site
        self._fh.flush()
        os.fsync(self._fh.fileno())  # repro: noqa RC104 — seal segment
        self._fh.close()
        self._seq += 1
        self._segment = segment_path(self.directory, self._seq)
        self._fh = self._segment.open("ab")  # repro: noqa RC104 — rotation
        self._size = self._segment.stat().st_size
        self._rotations += 1

    def compact(self, upto_epoch: int) -> int:
        """Drop sealed segments wholly covered by a snapshot.

        A segment is deletable when every record it holds has
        ``epoch <= upto_epoch`` — the snapshot at ``upto_epoch`` already
        embodies them. The tail segment always survives (it is open).
        Returns the number of segments removed.
        """
        removed = 0
        with self._lock:
            for seg in list_segments(self.directory):
                if segment_seq(seg) >= self._seq:
                    continue
                scan = scan_segment(seg, tolerate_torn=False)
                if any(r.epoch > upto_epoch for r in scan.records):
                    # Segments are epoch-ordered: the first survivor
                    # means everything after it survives too.
                    break
                seg.unlink()
                removed += 1
            self._compacted += removed
        if removed:
            self._record_compaction(removed)
        return removed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                os.fsync(self._fh.fileno())  # repro: noqa RC104 — seal log
                self._fh.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_append(self, elapsed_s: float, synced: bool) -> None:
        from repro.obs import metrics as obs_metrics
        from repro.obs import runtime as obs_runtime

        if not obs_runtime._enabled:
            return
        obs_metrics.counter("evolve.wal.appends").inc()
        obs_metrics.stream_hist("evolve.wal.append_ms").observe(
            elapsed_s * 1000.0
        )
        if synced:
            obs_metrics.counter("evolve.wal.fsyncs").inc()
        obs_metrics.gauge("evolve.wal.segments").set(self._seq)

    def _record_compaction(self, removed: int) -> None:
        from repro.obs import metrics as obs_metrics
        from repro.obs import runtime as obs_runtime

        if not obs_runtime._enabled:
            return
        obs_metrics.counter("evolve.wal.compacted_segments").inc(removed)
        obs_metrics.gauge("evolve.wal.segments").set(
            self.segment_count()
        )
