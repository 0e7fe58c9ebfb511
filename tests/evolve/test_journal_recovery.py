"""Journal/WAL separation: the journal narrates, the WAL is the truth.

A crash leaves two artifacts behind: the WAL (the durability contract)
and the telemetry journal's ``.partial`` stream (diagnostics). These
tests pin the division of labor — ``read_events`` tolerates the torn
journal a kill can leave, and recovery reconstructs state purely from
snapshot + WAL, indifferent to whether the journal is torn, missing, or
lying.
"""

import pytest

from repro import obs
from repro.evolve import EpochMaintainer, WalWriter, next_batch, recover
from repro.generators.random_graphs import random_weighted_graph
from repro.obs.journal import Journal, read_events
from repro.queries import SSSP


@pytest.fixture()
def wal_dir(tmp_path):
    return tmp_path / "wal"


def _crashy_run(wal_dir, trace_path, n=4):
    """A journaled durable run that 'dies' before closing the journal:
    the stream stays at ``<trace>.partial`` with its last line torn."""
    g = random_weighted_graph(100, 600, seed=29)
    last = None
    with obs.telemetry(trace_path=trace_path):
        m = EpochMaintainer(
            g, SSSP, num_hubs=5,
            wal=WalWriter(wal_dir, fsync="always"), snapshot_every=0,
        )
        for step in range(n):
            b = next_batch(m.graph, step, batch_size=6, seed=3)
            last = m.apply(b.inserts, b.deletes)
        m.wal.close()
        partial = trace_path.with_name(trace_path.name + ".partial")
        snapshot = partial.read_bytes()
    # telemetry exit renamed the journal into place; undo that to model
    # the kill: only a torn .partial exists.
    trace_path.unlink()
    partial.write_bytes(snapshot[:-9])  # tear the final line
    return last


class TestTornPartialJournal:
    def test_read_events_falls_back_to_partial(self, tmp_path):
        path = tmp_path / "run.jsonl"
        j = Journal(path)
        j.emit({"type": "event", "name": "a"})
        j.emit({"type": "event", "name": "b"})
        j._fh.flush()  # crash: no close(), no rename
        assert not path.exists()
        events = read_events(path)
        assert [e.get("name") for e in events[1:]] == ["a", "b"]

    # A crashed run leaves only the .partial file; reading it by either
    # name must drop the torn line.
    @pytest.mark.parametrize("name", ["run.jsonl", "run.jsonl.partial"])
    def test_torn_final_line_is_dropped_not_raised(self, tmp_path, name):
        partial = tmp_path / "run.jsonl.partial"
        j = Journal(tmp_path / "run.jsonl")
        j.emit({"type": "event", "name": "kept"})
        j.emit({"type": "event", "name": "torn"})
        j._fh.flush()
        partial.write_bytes(partial.read_bytes()[:-7])
        events = read_events(tmp_path / name)
        assert events[-1]["name"] == "kept"
        assert all(e.get("name") != "torn" for e in events)

    def test_bad_line_before_valid_events_raises(self, tmp_path):
        # Only the final line can be torn by a crash. A bad line with
        # events after it is corruption: dropping it and everything after
        # would lose valid events without a word.
        partial = tmp_path / "run.jsonl.partial"
        j = Journal(tmp_path / "run.jsonl")
        j._fh.flush()
        with partial.open("a") as fh:
            fh.write('{"type": "event", "na\n')
            fh.write('{"type": "event", "name": "a"}\n')
            fh.write('{"type": "event", "name": "b"}\n')
        with pytest.raises(ValueError, match="2 line"):
            read_events(partial)

    def test_completed_journal_is_strict(self, tmp_path):
        # Tolerance is for .partial only: a *renamed* journal claims to
        # be complete, so a bad line there is real corruption.
        path = tmp_path / "run.jsonl"
        with Journal(path) as j:
            j.emit({"type": "event", "name": "a"})
        with path.open("a") as fh:
            fh.write('{"type": "event", "na')
        with pytest.raises(Exception):
            read_events(path)


class TestRecoveryIgnoresJournal:
    def test_recovery_exact_despite_torn_journal(self, tmp_path, wal_dir):
        trace = tmp_path / "run.jsonl"
        last = _crashy_run(wal_dir, trace)
        # The torn .partial still yields its surviving events…
        events = read_events(trace)
        assert events and events[0]["type"] == "manifest"
        # …and recovery lands on the exact pre-crash epoch regardless.
        m, report = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                            attach=False)
        assert m.store.current().number == last.number
        assert m.store.current().fingerprint == last.fingerprint
        assert report.verified

    def test_recovery_identical_with_and_without_journal(
        self, tmp_path, wal_dir
    ):
        # Same WAL, journal deleted outright: byte-identical outcome —
        # the journal is never an input to recovery.
        trace = tmp_path / "run.jsonl"
        _crashy_run(wal_dir, trace)
        m1, _ = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                        attach=False)
        trace.with_name(trace.name + ".partial").unlink()
        m2, _ = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                        attach=False)
        e1, e2 = m1.store.current(), m2.store.current()
        assert (e1.number, e1.fingerprint) == (e2.number, e2.fingerprint)

    def test_recovery_does_not_touch_the_journal(self, tmp_path, wal_dir):
        trace = tmp_path / "run.jsonl"
        _crashy_run(wal_dir, trace)
        partial = trace.with_name(trace.name + ".partial")
        before = partial.read_bytes()
        recover(wal_dir, SSSP, verify=True, num_hubs=5, attach=False)
        assert partial.read_bytes() == before
        assert not trace.exists()

    def test_lying_journal_cannot_mislead_recovery(self, tmp_path, wal_dir):
        # Even a journal claiming a later epoch changes nothing: the
        # recovered number comes from the WAL records alone.
        trace = tmp_path / "run.jsonl"
        last = _crashy_run(wal_dir, trace)
        partial = trace.with_name(trace.name + ".partial")
        with partial.open("a") as fh:
            fh.write(
                '{"type": "event", "name": "evolve.epoch", '
                '"graph_epoch": 9999}\n'
            )
        m, _ = recover(wal_dir, SSSP, verify=True, num_hubs=5,
                       attach=False)
        assert m.store.current().number == last.number
