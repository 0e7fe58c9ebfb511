"""Recovery: snapshot + WAL tail replay reaches the exact pre-crash state.

These are the deterministic (non-chaos) recovery tests: rollback
cancellation, point-in-time replay, torn-tail handling, verify-mode
failures, and resumability of the recovered maintainer. Randomized
crash storms live in ``test_recovery_chaos.py``.
"""

import dataclasses
import zipfile

import numpy as np
import pytest

from repro.core.identify import build_core_graph
from repro.evolve import (
    Epoch,
    EpochMaintainer,
    RecoveryError,
    RecoveryVerifyError,
    SnapshotStore,
    WalWriter,
    next_batch,
    read_wal,
    recover,
)
from repro.evolve.recovery import _cancel_rolled_back
from repro.evolve.wal import WalRecord, list_segments
from repro.generators.random_graphs import random_weighted_graph
from repro.graph.mutate import MutationError
from repro.io.errors import CorruptGraphError
from repro.queries import REACH, SSSP, SSWP, WCC


def _rec(kind, epoch):
    return WalRecord(kind=kind, epoch=epoch, payload={"kind": kind},
                     segment=1, offset=0)


@pytest.fixture()
def wal_dir(tmp_path):
    return tmp_path / "wal"


def _durable_maintainer(wal_dir, **kw):
    g = random_weighted_graph(120, 700, seed=21)
    kw.setdefault("snapshot_every", 4)
    return EpochMaintainer(
        g, SSSP, num_hubs=6,
        wal=WalWriter(wal_dir, fsync="always"), **kw,
    )


def _apply_batches(m, n, start=0, batch_size=8):
    epochs = []
    for step in range(start, start + n):
        b = next_batch(m.graph, step, batch_size=batch_size, seed=3)
        epochs.append(m.apply(b.inserts, b.deletes))
    return epochs


class TestCancelRolledBack:
    def test_abort_cancels_nearest_preceding_epoch(self):
        kept, dropped = _cancel_rolled_back(
            [_rec("batch", 1), _rec("batch", 2), _rec("abort", 2)]
        )
        assert [r.epoch for r in kept] == [1]
        assert dropped == 1

    def test_abort_without_match_is_inert(self):
        kept, dropped = _cancel_rolled_back(
            [_rec("batch", 1), _rec("abort", 5)]
        )
        assert [r.epoch for r in kept] == [1] and dropped == 0

    def test_later_record_supersedes_lost_abort(self):
        # Epoch 2's abort never made it to disk; the re-applied epoch 2
        # proves the first attempt rolled back.
        kept, dropped = _cancel_rolled_back(
            [_rec("batch", 1), _rec("batch", 2), _rec("batch", 2),
             _rec("batch", 3)]
        )
        assert [r.epoch for r in kept] == [1, 2, 3]
        assert dropped == 1

    def test_supersession_pops_whole_rolled_back_run(self):
        kept, dropped = _cancel_rolled_back(
            [_rec("batch", 1), _rec("batch", 2), _rec("batch", 3),
             _rec("batch", 2)]
        )
        assert [r.epoch for r in kept] == [1, 2]
        assert dropped == 2

    def test_clean_sequence_passes_through(self):
        recs = [_rec("batch", i) for i in range(1, 6)]
        kept, dropped = _cancel_rolled_back(recs)
        assert kept == recs and dropped == 0


class TestRecover:
    def test_recovers_exact_pre_crash_state(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        epochs = _apply_batches(m, 6)
        last = epochs[-1]
        m.wal.close()  # simulate process death (no snapshot on close)

        recovered, report = recover(wal_dir, SSSP, verify=True,
                                    num_hubs=6, attach=False)
        cur = recovered.store.current()
        assert cur.number == last.number
        assert cur.fingerprint == last.fingerprint
        assert report.verified
        assert report.final_epoch == last.number
        assert report.mismatches == []

    def test_point_in_time_recovery(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        epochs = _apply_batches(m, 6)
        m.wal.close()
        target = epochs[2]  # epoch 3

        recovered, report = recover(
            wal_dir, SSSP, verify=True, to_epoch=target.number,
            num_hubs=6, attach=False,
        )
        cur = recovered.store.current()
        assert cur.number == target.number
        assert cur.fingerprint == target.fingerprint

    def test_no_snapshot_raises_recovery_error(self, wal_dir):
        with WalWriter(wal_dir) as w:
            w.append("batch", 1)
        with pytest.raises(RecoveryError):
            recover(wal_dir, SSSP, attach=False)

    def test_spec_defaults_to_snapshot_stamp(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        _apply_batches(m, 2)
        m.wal.close()
        recovered, _ = recover(wal_dir, num_hubs=6, attach=False)
        assert recovered.spec.name == SSSP.name

    def test_spec_of_another_cg_kind_is_refused(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        _apply_batches(m, 2)
        m.wal.close()
        seg = list_segments(wal_dir)[-1]
        with seg.open("ab") as fh:
            fh.write(b"torn-partial-frame")
        size = seg.stat().st_size
        with pytest.raises(RecoveryError, match="SSWP needs a SSWP core"):
            recover(wal_dir, SSWP, verify=True, num_hubs=6, attach=False)
        # Refused before the log is touched: the torn tail is still there.
        assert seg.stat().st_size == size

    def test_wcc_recovers_over_the_reach_core_graph(self, wal_dir):
        g = random_weighted_graph(120, 700, seed=21)
        m = EpochMaintainer(g, REACH, num_hubs=6,
                            wal=WalWriter(wal_dir, fsync="always"))
        epochs = _apply_batches(m, 2)
        m.wal.close()
        recovered, _ = recover(wal_dir, WCC, verify=True, num_hubs=6,
                               attach=False)
        assert recovered.spec.name == WCC.name
        assert recovered.store.current().number == epochs[-1].number

    def test_torn_tail_is_cut_and_reported(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        epochs = _apply_batches(m, 3)
        m.wal.close()
        seg = list_segments(wal_dir)[-1]
        with seg.open("ab") as fh:
            fh.write(b"torn-partial-frame")

        recovered, report = recover(wal_dir, SSSP, verify=True,
                                    num_hubs=6, attach=False)
        assert report.truncated_bytes == len(b"torn-partial-frame")
        assert report.torn_reason
        assert recovered.store.current().number == epochs[-1].number
        # The cut is physical: a second reader sees a clean log.
        assert read_wal(wal_dir)[1] is None

    def test_recovered_maintainer_resumes_appending(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        epochs = _apply_batches(m, 3)
        m.wal.close()

        recovered, _ = recover(wal_dir, SSSP, num_hubs=6)
        nxt = _apply_batches(recovered, 1, start=3)[0]
        assert nxt.number == epochs[-1].number + 1
        recovered.wal.close()

        # The resumed batch is itself durable: recover again, land on it.
        again, report = recover(wal_dir, SSSP, verify=True,
                                num_hubs=6, attach=False)
        assert again.store.current().number == nxt.number
        assert again.store.current().fingerprint == nxt.fingerprint

    def test_out_of_range_delete_is_refused_before_the_wal(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        _apply_batches(m, 1)
        current, logged = m.store.current(), len(read_wal(wal_dir)[0])
        # Packed as u * n + v, (0, n) is the key of the edge (1, 0).
        with pytest.raises(MutationError):
            m.apply(deletes=[(0, m.graph.num_vertices)])
        assert m.store.current() is current
        assert len(read_wal(wal_dir)[0]) == logged
        m.wal.close()

    def test_replay_is_not_rejournaled(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        _apply_batches(m, 3)
        m.wal.close()
        before = len(read_wal(wal_dir)[0])
        recovered, _ = recover(wal_dir, SSSP, num_hubs=6)
        recovered.wal.close()
        assert len(read_wal(wal_dir)[0]) == before

    def test_probe_epochs_replay(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        _apply_batches(m, 2)
        m.probe()  # consumes an epoch number, journaled as "probe"
        last = m.store.current()
        m.wal.close()
        recovered, report = recover(wal_dir, SSSP, verify=True,
                                    num_hubs=6, attach=False)
        assert recovered.store.current().number == last.number
        assert report.replayed_probes >= 1


class TestVerifyFailures:
    def test_tampered_fingerprint_raises_under_verify(self, wal_dir):
        m = _durable_maintainer(wal_dir, snapshot_every=0)
        _apply_batches(m, 3)
        m.wal.close()
        # Rewrite the log with a lie in epoch 2's fingerprint stamp.
        records, _ = read_wal(wal_dir)
        for seg in list_segments(wal_dir):
            seg.unlink()
        with WalWriter(wal_dir) as w:
            for r in records:
                fields = {k: v for k, v in r.payload.items()
                          if k not in ("kind", "epoch")}
                if r.epoch == 2:
                    fields["fingerprint"] = "0" * 16
                w.append(r.kind, r.epoch, **fields)

        with pytest.raises(RecoveryVerifyError):
            recover(wal_dir, SSSP, verify=True, num_hubs=6, attach=False)

        # Without verify the mismatch is reported, not fatal.
        _, report = recover(wal_dir, SSSP, num_hubs=6, attach=False)
        assert len(report.mismatches) == 1
        assert report.mismatches[0]["epoch"] == 2
        assert not report.verified

    def test_report_render_mentions_mismatches(self, wal_dir):
        m = _durable_maintainer(wal_dir)
        _apply_batches(m, 2)
        m.wal.close()
        _, report = recover(wal_dir, SSSP, verify=True,
                            num_hubs=6, attach=False)
        text = report.render()
        assert "epoch" in text and "verified" in text
        assert "MISMATCH" not in text


class TestSnapshotAnchoredCompaction:
    def test_snapshots_bound_replay_length(self, wal_dir):
        m = _durable_maintainer(wal_dir, snapshot_every=2)
        _apply_batches(m, 6)
        last = m.store.current()
        m.wal.close()
        store = SnapshotStore(wal_dir / "snapshots")
        snap = store.latest()
        assert snap is not None and snap.number >= 4

        recovered, report = recover(wal_dir, SSSP, verify=True,
                                    num_hubs=6, attach=False)
        assert report.snapshot_epoch == snap.number
        assert report.replayed_batches == last.number - snap.number
        assert recovered.store.current().fingerprint == last.fingerprint

    @pytest.mark.parametrize("tracked", (False, True),
                             ids=("plain", "growth+selection"))
    @pytest.mark.parametrize("fields", (
        {},
        {"triangle_safe": False, "inserted_edges": 7, "deleted_edges": 2,
         "probe_precision": 87.5, "rebuilt_from": 3},
    ), ids=("defaults", "churned"))
    def test_snapshot_round_trips_epoch(self, tmp_path, fields, tracked):
        g = random_weighted_graph(60, 300, seed=4)
        proxy = build_core_graph(
            g, SSSP, num_hubs=3, track_growth=tracked,
            track_selection=tracked,
        )
        epoch = Epoch(number=5, graph=g, proxy=proxy,
                      fingerprint=g.fingerprint(), **fields)
        store = SnapshotStore(tmp_path)
        loaded = store.load(store.save(epoch))
        for f in dataclasses.fields(Epoch):
            if f.name != "proxy":
                assert getattr(loaded, f.name) == getattr(epoch, f.name), f
        for f in dataclasses.fields(proxy):
            got, want = getattr(loaded.proxy, f.name), getattr(proxy, f.name)
            if f.name == "hub_data":
                assert [h.hub for h in got] == [h.hub for h in want]
                for a, b in zip(got, want):
                    assert np.array_equal(a.forward, b.forward)
                    assert np.array_equal(a.backward, b.backward)
            elif isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f
            else:
                assert got == want, f
        assert (loaded.proxy.growth is not None) == tracked
        assert store.latest().number == 5

    @pytest.mark.parametrize(
        "damage", ("format-1", "truncated", "missing-hub", "bit-flipped")
    )
    def test_damaged_snapshot_is_typed_and_skipped(self, wal_dir, damage):
        m = _durable_maintainer(wal_dir, snapshot_every=0)
        epoch = _apply_batches(m, 2)[-1]
        m.wal.close()
        store = SnapshotStore(wal_dir / "snapshots")
        path = store.save(epoch)
        raw = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "bit-flipped":
            # Mid-member, in the graph's edge array: it either fails to
            # inflate or decodes to arrays the fingerprint disowns.
            with zipfile.ZipFile(path) as zf:
                info = zf.getinfo("g_dst.npy")
            at = info.header_offset + 64 + info.compress_size // 2
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])
        else:
            with np.load(path) as data:
                payload = {k: data[k] for k in data.files}
            if damage == "format-1":
                payload["format"] = np.int64(1)
            else:
                hub_keys = [k for k in payload if k.endswith("_forward")]
                assert hub_keys
                del payload[hub_keys[0]]
            np.savez_compressed(path, **payload)

        with pytest.raises(CorruptGraphError) as err:
            store.load(path)
        assert err.value.path == str(path) and path.name in str(err.value)
        # latest() falls back to the epoch-0 anchor; recovery replays a
        # longer tail from it and still lands on the same epoch.
        assert store.latest().number == 0
        recovered, report = recover(wal_dir, SSSP, verify=True,
                                    num_hubs=6, attach=False)
        assert report.snapshot_epoch == 0
        assert recovered.store.current().fingerprint == epoch.fingerprint
