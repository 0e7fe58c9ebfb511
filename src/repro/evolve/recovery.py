"""Recovery-on-start: latest valid snapshot + WAL tail replay.

The inverse of the durability pipeline: where the maintainer turns
acknowledged batches into (WAL record, epoch swap) pairs, :func:`recover`
turns the surviving records back into the exact pre-crash epoch:

1. load the newest loadable snapshot (corrupt ones are skipped — an
   older snapshot plus a longer replay is always equivalent);
2. decode the WAL, truncating a torn tail (the one partial write a
   crash can leave) and raising the typed
   :class:`~repro.evolve.wal.CorruptWalError` on mid-log corruption;
3. cancel rolled-back batches (explicit ``abort`` markers, plus the
   positional rule that a committed epoch number supersedes any earlier
   record claiming an epoch at or above it — committed epochs are
   strictly sequential);
4. replay the remaining tail on a maintainer resumed at the snapshot's
   epoch — through the maintainer's own ``apply`` / ``install_rebuild``
   / ``probe``, the methods that wrote the records — checking each
   record's fingerprint stamp against the replayed graph;
5. re-attach a :class:`~repro.evolve.wal.WalWriter` positioned after
   the valid tail, so serving (and journaling) resumes where it left off.

Every acknowledged batch survives this path; every unacknowledged batch
is absent or rolled back; the recovered ``Graph.fingerprint()`` equals
the pre-crash epoch's — the chaos harness in
``tests/evolve/test_recovery_chaos.py`` kills the maintainer at every
durability fault site and asserts exactly that triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize.runtime import SanitizerViolation
from repro.core.dispatch import build_cg
from repro.evolve.maintainer import EpochMaintainer
from repro.evolve.snapshot import SnapshotStore, snapshot_file
from repro.evolve.wal import (
    CorruptWalError,
    WalRecord,
    WalWriter,
    list_segments,
    read_wal,
    segment_path,
    truncate_torn_tail,
)
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.queries.base import QuerySpec

PathLike = Union[str, Path]


class RecoveryError(OSError):
    """Recovery cannot proceed (no snapshot, unresolvable log)."""


class RecoveryVerifyError(RecoveryError):
    """``verify=True`` found a replayed epoch that contradicts its record."""


@dataclass
class RecoveryReport:
    """What a recovery did — the replay stats the tentpole journals."""

    wal_dir: str
    snapshot_path: str
    snapshot_epoch: int
    final_epoch: int
    fingerprint: str
    replayed_batches: int = 0
    replayed_installs: int = 0
    replayed_probes: int = 0
    skipped_rolled_back: int = 0
    truncated_bytes: int = 0
    torn_reason: Optional[str] = None
    segments: int = 0
    verified: bool = False
    mismatches: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def replayed(self) -> int:
        return (
            self.replayed_batches
            + self.replayed_installs
            + self.replayed_probes
        )

    def render(self) -> str:
        lines = [
            f"recovered {self.wal_dir}: epoch {self.final_epoch} "
            f"(fp {self.fingerprint[:12]})",
            f"  snapshot        epoch {self.snapshot_epoch} "
            f"({Path(self.snapshot_path).name})",
            f"  replayed        {self.replayed_batches} batches, "
            f"{self.replayed_installs} installs, "
            f"{self.replayed_probes} probes "
            f"({self.skipped_rolled_back} rolled back)",
            f"  segments        {self.segments}",
        ]
        if self.truncated_bytes:
            lines.append(
                f"  torn tail       {self.truncated_bytes} bytes cut "
                f"({self.torn_reason})"
            )
        if self.mismatches:
            lines.append(
                f"  MISMATCHES      {len(self.mismatches)} replayed "
                f"epoch(s) contradict their WAL fingerprint stamps"
            )
        lines.append(
            f"  verified        {self.verified}"
        )
        return "\n".join(lines)


def _cancel_rolled_back(
    records: List[WalRecord],
) -> Tuple[List[WalRecord], int]:
    """Drop records recovery must not replay.

    An ``abort`` marker cancels the nearest preceding record with its
    epoch. Independently, committed epochs are strictly sequential, so a
    record claiming epoch ``E`` proves every *earlier* record with epoch
    ``>= E`` was rolled back (its abort marker may itself have been lost
    in the crash) — the later record supersedes them.
    """
    kept: List[WalRecord] = []
    dropped = 0
    for rec in records:
        if rec.kind == "abort":
            for i in range(len(kept) - 1, -1, -1):
                if kept[i].epoch == rec.epoch:
                    del kept[i]
                    dropped += 1
                    break
            continue
        cut = len(kept)
        while cut and kept[cut - 1].epoch >= rec.epoch:
            cut -= 1
        dropped += len(kept) - cut
        del kept[cut:]
        kept.append(rec)
    return kept, dropped


def _check_fingerprint(
    report: RecoveryReport, rec: WalRecord, actual: str, verify: bool
) -> None:
    stamped = rec.payload.get("fingerprint")
    if stamped is None or stamped == actual:
        return
    mismatch = {
        "epoch": rec.epoch,
        "kind": rec.kind,
        "segment": rec.segment,
        "offset": rec.offset,
        "stamped": stamped,
        "replayed": actual,
    }
    report.mismatches.append(mismatch)
    if verify:
        raise RecoveryVerifyError(
            f"replayed epoch {rec.epoch} fingerprints as {actual[:12]} "
            f"but its WAL record (segment {rec.segment}, offset "
            f"{rec.offset}) is stamped {str(stamped)[:12]}"
        )


def recover(
    wal_dir: PathLike,
    spec: Optional[QuerySpec] = None,
    *,
    verify: bool = False,
    to_epoch: Optional[int] = None,
    num_hubs: int = 20,
    fsync: str = "always",
    snapshot_every: int = 8,
    attach: bool = True,
) -> Tuple[EpochMaintainer, RecoveryReport]:
    """Reconstruct the pre-crash maintainer from ``wal_dir``.

    ``spec`` defaults to the query spec named in the snapshot; a spec
    whose core graph kind differs from the snapshot's raises
    :class:`RecoveryError` before the log is touched.
    ``to_epoch`` stops the replay at that epoch (point-in-time recovery).
    ``verify`` makes any fingerprint disagreement (or internal epoch
    inconsistency) raise :class:`RecoveryVerifyError` instead of being
    reported; ``attach`` re-opens the log for writing so the returned
    maintainer can keep acknowledging batches.
    """
    wal_dir = Path(wal_dir)
    snapshots = SnapshotStore(wal_dir / "snapshots")
    snap = snapshots.latest(before=to_epoch)
    if snap is None:
        raise RecoveryError(
            f"no usable snapshot under {wal_dir / 'snapshots'} "
            f"{'(epoch <= %d) ' % to_epoch if to_epoch is not None else ''}"
            f"— nothing to replay onto"
        )
    from repro.queries.registry import cg_spec_for, get_spec

    if spec is None:
        spec = get_spec(snap.proxy.spec_name)
    elif cg_spec_for(spec).name != snap.proxy.spec_name:
        raise RecoveryError(
            f"{spec.name} needs a {cg_spec_for(spec).name} core graph, but "
            f"the snapshot of epoch {snap.number} holds a "
            f"{snap.proxy.spec_name} one"
        )
    records, torn = read_wal(wal_dir)
    report = RecoveryReport(
        wal_dir=str(wal_dir),
        snapshot_path=str(snapshot_file(snapshots.directory, snap.number)),
        snapshot_epoch=snap.number,
        final_epoch=snap.number,
        fingerprint=snap.fingerprint,
    )
    if torn is not None:
        # Physically cut the tail so no unrecoverable bytes survive the
        # recovery — the next writer appends after the last valid record.
        report.truncated_bytes = truncate_torn_tail(torn)
        report.torn_reason = torn.reason
    kept, dropped = _cancel_rolled_back(records)
    report.skipped_rolled_back = dropped
    maintainer = EpochMaintainer(
        snap.graph, spec, num_hubs=num_hubs, _resume=snap
    )
    for rec in kept:
        if rec.epoch <= snap.number:
            continue
        if to_epoch is not None and rec.epoch > to_epoch:
            break
        try:
            if rec.kind == "batch":
                maintainer.apply(
                    rec.payload.get("inserts", ()),
                    rec.payload.get("deletes", ()),
                    logged=rec.payload,
                )
                report.replayed_batches += 1
            elif rec.kind == "install":
                # The original proxy died with the process: identify it
                # again on the replayed graph — same graph, equivalent CG.
                base = maintainer.store.current()
                maintainer.install_rebuild(
                    base,
                    build_cg(base.graph, spec, num_hubs=num_hubs),
                    logged=rec.payload,
                )
                report.replayed_installs += 1
            else:  # probe
                maintainer.probe(logged=rec.payload)
                report.replayed_probes += 1
        except (ValueError, KeyError) as exc:
            raise CorruptWalError(
                segment_path(wal_dir, rec.segment), rec.segment,
                rec.offset, str(exc),
            ) from exc
        _check_fingerprint(
            report, rec, maintainer.store.current().fingerprint, verify
        )
    final = maintainer.store.current()
    report.final_epoch = final.number
    report.fingerprint = final.fingerprint
    if verify:
        _verify_epoch(final)
        report.verified = True
    if attach:
        maintainer.attach_wal(
            WalWriter(wal_dir, fsync=fsync),
            snapshots=snapshots, snapshot_every=snapshot_every,
        )
    report.segments = len(list_segments(wal_dir))
    _record_recovery(report)
    return maintainer, report


def _verify_epoch(epoch) -> None:
    """Internal-consistency gate for ``--verify``: never hand back a
    torn epoch as a successful recovery."""
    try:
        san_probes.check_epoch_integrity(epoch, "evolve.recover")
    except SanitizerViolation as exc:
        raise RecoveryVerifyError(
            f"recovered epoch {epoch.number} is inconsistent: {exc}"
        ) from exc


def _record_recovery(report: RecoveryReport) -> None:
    if not obs_runtime._enabled:
        return
    obs_metrics.counter("evolve.recovery.replayed").inc(report.replayed)
    obs_metrics.counter("evolve.recovery.skipped").inc(
        report.skipped_rolled_back
    )
    obs_metrics.counter("evolve.recovery.truncated_bytes").inc(
        report.truncated_bytes
    )
    obs_journal.emit({
        "type": "event",
        "name": "evolve.recovery",
        "epoch": report.final_epoch,
        "graph_fingerprint": report.fingerprint,
        "snapshot_epoch": report.snapshot_epoch,
        "replayed_batches": report.replayed_batches,
        "replayed_installs": report.replayed_installs,
        "replayed_probes": report.replayed_probes,
        "skipped_rolled_back": report.skipped_rolled_back,
        "truncated_bytes": report.truncated_bytes,
        "segments": report.segments,
        "verified": report.verified,
    })
