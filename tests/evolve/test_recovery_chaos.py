"""Kill-storm chaos harness: crash a live WAL writer, recover, compare.

Each trial runs a real subprocess that applies a batch stream against a
durable :class:`EpochMaintainer`, fsyncing an *ack oracle* line
(``epoch fingerprint``) after every acknowledged batch — then dies at a
randomized injected crash point (``REPRO_FAULTS=<site>:crash:<hit>``).
The parent recovers the WAL directory the corpse left behind and holds
the durability contract against the oracle:

* every acknowledged batch survives: point-in-time recovery to the last
  acked epoch reproduces its exact fingerprint;
* no unacknowledged batch is resurrected: the fully recovered epoch is
  at most one past the last ack (the one in-flight batch whose append
  landed but whose ack did not);
* the recovered maintainer resumes: one more batch applies cleanly.

A handful of trials run in tier-1; CI raises ``REPRO_CHAOS_TRIALS`` to
storm ≥ 50 crash points (see the crash-recovery job in ci.yml).
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.evolve import next_batch, recover
from repro.queries import SSSP

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

# Crash sites on the ack path, in journal/mutate/snapshot order. Weights
# lean toward the WAL itself — that is the machinery under test.
SITES = [
    "wal.append", "wal.append", "wal.fsync", "wal.rotate",
    "snapshot.write", "evolve.apply", "evolve.swap", "graph.mutate.add",
]

TRIALS = int(os.environ.get("REPRO_CHAOS_TRIALS", "5"))
BATCHES = 14

DRIVER = textwrap.dedent("""\
    import os
    import sys

    from repro.evolve import EpochMaintainer, WalWriter, next_batch
    from repro.evolve import wal
    from repro.generators.random_graphs import random_weighted_graph
    from repro.queries import SSSP

    wal.SEGMENT_MAX_BYTES = 1500  # rotate often, so wal.rotate is reached

    wal_dir, oracle_path, batches = (
        sys.argv[1], sys.argv[2], int(sys.argv[3])
    )
    g = random_weighted_graph(90, 520, seed=17)
    m = EpochMaintainer(
        g, SSSP, num_hubs=5,
        wal=WalWriter(wal_dir, fsync="always"),
        snapshot_every=4,
    )
    oracle = open(oracle_path, "a")
    for step in range(batches):
        b = next_batch(m.graph, step, batch_size=6, seed=3)
        epoch = m.apply(b.inserts, b.deletes)
        # The ack oracle: this line exists iff apply() returned — i.e.
        # iff the batch was durably acknowledged.
        oracle.write(f"{epoch.number} {epoch.fingerprint}\\n")
        oracle.flush()
        os.fsync(oracle.fileno())
    m.wal.close()
    oracle.close()
""")


def _run_trial(tmp_path, fault_spec):
    wal_dir = tmp_path / "wal"
    oracle = tmp_path / "acks.txt"
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    if fault_spec:
        env["REPRO_FAULTS"] = fault_spec
    else:
        env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, str(driver), str(wal_dir), str(oracle),
         str(BATCHES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    acks = []
    if oracle.exists():
        for line in oracle.read_text().splitlines():
            number, fingerprint = line.split()
            acks.append((int(number), fingerprint))
    return proc, wal_dir, acks


def _assert_contract(wal_dir, acks, trial_desc):
    # Full recovery: at most one epoch past the last ack (the in-flight
    # batch whose durable append beat the crash), never behind it.
    m, report = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                        attach=False)
    final = m.store.current().number
    last_acked = acks[-1][0] if acks else 0
    assert last_acked <= final <= last_acked + 1, (
        f"{trial_desc}: recovered epoch {final}, last ack {last_acked}"
    )
    # Every acknowledged batch survives, bit-for-bit: point-in-time
    # recovery to the last ack reproduces its exact fingerprint.
    if acks:
        m2, _ = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                        to_epoch=last_acked, attach=False)
        cur = m2.store.current()
        assert cur.number == last_acked, trial_desc
        assert cur.fingerprint == acks[-1][1], (
            f"{trial_desc}: acked epoch {last_acked} recovered with "
            f"fingerprint {cur.fingerprint}, acked {acks[-1][1]}"
        )
    return report


def test_clean_run_has_nothing_to_lose(tmp_path):
    proc, wal_dir, acks = _run_trial(tmp_path, fault_spec=None)
    assert proc.returncode == 0, proc.stderr
    assert len(acks) == BATCHES
    _assert_contract(wal_dir, acks, "clean run")


@pytest.mark.parametrize("trial", range(TRIALS))
def test_kill_storm_trial(tmp_path, trial):
    rng = random.Random(0xC4A05 + trial)
    site = rng.choice(SITES)
    hit = rng.randint(1, 12)
    spec = f"{site}:crash:{hit}"
    proc, wal_dir, acks = _run_trial(tmp_path, spec)
    desc = f"trial {trial} ({spec})"
    if proc.returncode == 0:
        # The storm missed (site saw fewer hits than the trigger): the
        # run completed, which is itself a valid recovery case.
        assert len(acks) == BATCHES, desc
    else:
        assert "InjectedCrash" in proc.stderr, (
            f"{desc}: died for the wrong reason:\n{proc.stderr}"
        )
        assert len(acks) < BATCHES, desc
    # A third of the corpses additionally get a torn trailing write, as
    # if the kernel lost the tail of a page on the way down.
    if trial % 3 == 0:
        from repro.evolve.wal import list_segments

        seg = list_segments(wal_dir)[-1]
        with seg.open("ab") as fh:
            fh.write(rng.randbytes(rng.randint(1, 40)))
    report = _assert_contract(wal_dir, acks, desc)
    assert report.verified


def test_recovered_corpse_resumes_and_stays_durable(tmp_path):
    # Crash mid-stream, recover attached, apply one more batch, then
    # recover *again* — the post-crash batch must itself be durable.
    proc, wal_dir, acks = _run_trial(tmp_path, "wal.fsync:crash:4")
    assert proc.returncode != 0 and acks
    m, _ = recover(wal_dir, SSSP, verify=True, num_hubs=5)
    b = next_batch(m.graph, 99, batch_size=6, seed=3)
    epoch = m.apply(b.inserts, b.deletes)
    m.wal.close()
    again, _ = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                       attach=False)
    assert again.store.current().number == epoch.number
    assert again.store.current().fingerprint == epoch.fingerprint
