"""Live-graph epoch maintenance: serve exact answers while the graph churns.

The paper builds the core graph once; the ROADMAP's serving target means
constant edge churn. This package keeps a :class:`~repro.serve.service.
QueryService` answering — correctly and without blocking admission — while
insert/delete batches land and Algorithm 1/2 rebuilds run in the
background:

* :mod:`repro.evolve.epoch` — immutable, version-stamped ``(Graph, CG)``
  pairs with an atomic swap and request-lifetime pinning, so a query can
  never observe a torn pair;
* :mod:`repro.evolve.maintainer` — computes each next epoch from the
  current one with :func:`~repro.core.evolving.advance` and publishes it
  (all-or-nothing: nothing is mutated before the swap, so a crash
  mid-apply leaves the old epoch current);
* :mod:`repro.evolve.certificate` — the staleness certificate attached to
  answers computed on a no-longer-latest epoch;
* :mod:`repro.evolve.rebuild` — a supervised background rebuilder running
  Algorithm 1/2 under a budget with crash retry;
* :mod:`repro.evolve.stream` — deterministic mutation-batch streams for
  tests, chaos runs, and benchmarks;
* :mod:`repro.evolve.wal` — segmented CRC-checksummed write-ahead log of
  mutation batches (durable append before every ack);
* :mod:`repro.evolve.snapshot` — atomic snapshots (an ``Epoch`` in, an
  ``Epoch`` out) anchoring WAL compaction;
* :mod:`repro.evolve.recovery` — recovery-on-start: latest valid
  snapshot plus the WAL tail replayed through the maintainer's own
  transitions, back to the exact pre-crash epoch.
"""

from repro.evolve.certificate import StalenessCertificate
from repro.evolve.epoch import Epoch, EpochStore
from repro.evolve.maintainer import EpochMaintainer
from repro.evolve.rebuild import RebuildStats, RebuildSupervisor
from repro.evolve.recovery import (
    RecoveryError,
    RecoveryReport,
    RecoveryVerifyError,
    recover,
)
from repro.evolve.snapshot import SnapshotError, SnapshotStore
from repro.evolve.stream import MutationBatch, next_batch
from repro.evolve.wal import (
    CorruptWalError,
    TornTail,
    WalError,
    WalRecord,
    WalWriter,
    read_wal,
    truncate_torn_tail,
)

__all__ = [
    "CorruptWalError",
    "Epoch",
    "EpochStore",
    "EpochMaintainer",
    "MutationBatch",
    "RebuildStats",
    "RebuildSupervisor",
    "RecoveryError",
    "RecoveryReport",
    "RecoveryVerifyError",
    "SnapshotError",
    "SnapshotStore",
    "StalenessCertificate",
    "TornTail",
    "WalError",
    "WalRecord",
    "WalWriter",
    "next_batch",
    "read_wal",
    "recover",
    "truncate_torn_tail",
]
