"""WAL framing, torn-tail vs mid-log discrimination, policies, rotation.

The contract under test: every record acknowledged by
:meth:`WalWriter.append` is decodable by :func:`read_wal`; a truncated
trailing write is *diagnosed* (never silently dropped mid-log); and
compaction only ever removes sealed segments a snapshot fully covers.
"""

import os

import pytest

from repro.evolve import wal
from repro.evolve.wal import (
    CorruptWalError,
    HEADER_BYTES,
    MAGIC,
    WalError,
    WalWriter,
    encode_record,
    list_segments,
    parse_fsync_policy,
    read_wal,
    scan_segment,
    segment_path,
    segment_seq,
    truncate_torn_tail,
)
from repro.resilience.faults import InjectedCrash, injected


@pytest.fixture()
def wal_dir(tmp_path):
    return tmp_path / "wal"


@pytest.fixture()
def one_record_segments(monkeypatch):
    """Every append past a segment's first record rotates."""
    monkeypatch.setattr(wal, "SEGMENT_MAX_BYTES", 1)


def _fill(wal_dir, n=5, **writer_kw):
    with WalWriter(wal_dir, **writer_kw) as w:
        for i in range(1, n + 1):
            w.append("batch", i, inserts=i, deletes=0)
    return wal_dir


class TestFraming:
    def test_append_read_round_trip(self, wal_dir):
        with WalWriter(wal_dir) as w:
            r1 = w.append("batch", 1, inserts=3, deletes=1, fingerprint="ab")
            r2 = w.append("install", 2, fingerprint="cd")
            r3 = w.append("probe", 3, precision=97.5)
        records, torn = read_wal(wal_dir)
        assert torn is None
        assert [(r.kind, r.epoch) for r in records] == [
            ("batch", 1), ("install", 2), ("probe", 3),
        ]
        assert records[0].payload["inserts"] == 3
        assert records[1].payload["fingerprint"] == "cd"
        assert records[2].payload["precision"] == 97.5
        # Physical positions reported at append time match the scan.
        assert (r1.segment, r1.offset) == (records[0].segment,
                                           records[0].offset)
        assert r2.offset > r1.offset and r3.offset > r2.offset

    def test_unknown_kind_rejected(self, wal_dir):
        with WalWriter(wal_dir) as w:
            with pytest.raises(ValueError):
                w.append("checkpointish", 1)

    def test_closed_writer_raises(self, wal_dir):
        w = WalWriter(wal_dir)
        w.close()
        with pytest.raises(WalError):
            w.append("batch", 1)

    def test_writer_resumes_existing_log(self, wal_dir):
        _fill(wal_dir, n=2)
        with WalWriter(wal_dir) as w:
            w.append("batch", 3)
        records, torn = read_wal(wal_dir)
        assert torn is None
        assert [r.epoch for r in records] == [1, 2, 3]

    def test_empty_directory_reads_empty(self, wal_dir):
        records, torn = read_wal(wal_dir)
        assert records == [] and torn is None

    def test_segment_name_round_trip(self, wal_dir):
        p = segment_path(wal_dir, 42)
        assert segment_seq(p) == 42
        with pytest.raises(ValueError):
            segment_seq(wal_dir / "not-a-segment.bin")


class TestTornTail:
    def test_truncated_last_record_is_torn(self, wal_dir):
        _fill(wal_dir, n=3)
        seg = list_segments(wal_dir)[-1]
        data = seg.read_bytes()
        seg.write_bytes(data[:-4])  # cut into the final record's body
        records, torn = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1, 2]
        assert torn is not None and torn.path == seg
        removed = truncate_torn_tail(torn)
        assert removed > 0
        # After the physical cut the log is clean and complete.
        records, torn = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1, 2] and torn is None

    def test_trailing_garbage_is_torn(self, wal_dir):
        _fill(wal_dir, n=3)
        seg = list_segments(wal_dir)[-1]
        valid = seg.stat().st_size
        garbage = b"\x00\xff garbage that is not a frame"
        with seg.open("ab") as fh:
            fh.write(garbage)
        records, torn = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1, 2, 3]
        assert torn is not None
        assert truncate_torn_tail(torn) == len(garbage)
        assert seg.stat().st_size == valid

    def test_truncate_never_cuts_valid_records(self, wal_dir):
        _fill(wal_dir, n=4)
        seg = list_segments(wal_dir)[-1]
        with seg.open("ab") as fh:
            fh.write(MAGIC + b"\x00")  # torn header
        _, torn = read_wal(wal_dir)
        truncate_torn_tail(torn)
        records, torn = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1, 2, 3, 4]
        assert torn is None

    def test_torn_header_shorter_than_frame_header(self, wal_dir):
        _fill(wal_dir, n=1)
        seg = list_segments(wal_dir)[-1]
        with seg.open("ab") as fh:
            fh.write(MAGIC[:2])
        records, torn = read_wal(wal_dir)
        assert len(records) == 1 and torn is not None


class TestMidLogCorruption:
    def test_corrupt_body_with_valid_successor_raises(self, wal_dir):
        _fill(wal_dir, n=3)
        seg = list_segments(wal_dir)[-1]
        data = bytearray(seg.read_bytes())
        # Flip a byte inside the FIRST record's body: valid frames
        # follow, so this is mid-log corruption, not a torn tail.
        data[HEADER_BYTES + 2] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(CorruptWalError) as ei:
            read_wal(wal_dir)
        err = ei.value
        assert err.path == seg
        assert err.segment == segment_seq(seg)
        assert err.offset == 0
        assert "crc" in err.reason.lower() or "body" in err.reason.lower()

    def test_bad_tail_in_sealed_segment_raises(
        self, wal_dir, one_record_segments
    ):
        # Damage in any non-last segment is never "torn": later segments
        # prove the writer moved on, so data after the damage existed.
        with WalWriter(wal_dir) as w:
            for i in range(1, 4):
                w.append("batch", i)
        segs = list_segments(wal_dir)
        assert len(segs) >= 2
        first = segs[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(CorruptWalError):
            read_wal(wal_dir)

    def test_scan_segment_without_tolerance_raises_on_torn(self, wal_dir):
        _fill(wal_dir, n=2)
        seg = list_segments(wal_dir)[-1]
        seg.write_bytes(seg.read_bytes()[:-1])
        with pytest.raises(CorruptWalError):
            scan_segment(seg, tolerate_torn=False)
        scan = scan_segment(seg, tolerate_torn=True)
        assert len(scan.records) == 1 and scan.torn is not None


class TestFsyncPolicies:
    @pytest.mark.parametrize("policy,mode", [
        ("always", "always"), ("never", "never"),
        ("ALWAYS", "always"), ("group", "group"), ("group:5", "group"),
    ])
    def test_parse_accepts(self, policy, mode):
        assert parse_fsync_policy(policy)[0] == mode

    @pytest.mark.parametrize("policy", [
        "", "nope", "group:0", "group:-1", "group:nan", "group:inf",
    ])
    def test_parse_rejects(self, policy):
        with pytest.raises(ValueError):
            parse_fsync_policy(policy)

    def test_always_fsyncs_every_append(self, wal_dir):
        with WalWriter(wal_dir, fsync="always") as w:
            for i in range(1, 4):
                w.append("batch", i)
            assert w.stats()["fsyncs"] == 3

    def test_never_skips_fsync_but_record_is_readable(self, wal_dir):
        with WalWriter(wal_dir, fsync="never") as w:
            w.append("batch", 1)
            assert w.stats()["fsyncs"] == 0
        records, _ = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1]

    def test_group_commit_syncs_on_interval(self, wal_dir):
        # Huge interval: no append syncs until the interval has passed.
        with WalWriter(wal_dir, fsync="group:60000") as w:
            for i in range(1, 6):
                w.append("batch", i)
            assert w.stats()["fsyncs"] == 0
            w._last_fsync -= 60.0
            w.append("batch", 6)
            assert w.stats()["fsyncs"] == 1
            w.append("batch", 7)
            assert w.stats()["fsyncs"] == 1

    def test_durability_summary(self, wal_dir):
        with WalWriter(wal_dir, fsync="group:5") as w:
            d = w.durability()
        assert d["mode"] == "wal"
        assert d["fsync"].startswith("group:")
        assert d["dir"] == str(wal_dir)
        assert d["segment_max_bytes"] == wal.SEGMENT_MAX_BYTES


class TestRotationAndCompaction:
    def test_small_cap_forces_rotation(self, wal_dir, one_record_segments):
        with WalWriter(wal_dir) as w:
            for i in range(1, 5):
                w.append("batch", i)
            assert w.segment_count() == 4
            assert w.stats()["rotations"] == 3
        records, torn = read_wal(wal_dir)
        assert torn is None
        assert [r.epoch for r in records] == [1, 2, 3, 4]

    def test_rotation_seals_tail(self, wal_dir, one_record_segments):
        with WalWriter(wal_dir) as w:
            w.append("batch", 1)
            first = w.tail_path
            w.append("batch", 2)
            assert w.tail_path != first
            assert w.tail_path == list_segments(wal_dir)[-1]
            # The sealed segment holds its record whole: no torn tail.
            sealed = scan_segment(first, tolerate_torn=False)
            assert [r.epoch for r in sealed.records] == [1]
        assert len(list_segments(wal_dir)) == 2

    def test_compact_drops_covered_sealed_segments(
        self, wal_dir, one_record_segments
    ):
        with WalWriter(wal_dir) as w:
            for i in range(1, 6):
                w.append("batch", i)
            removed = w.compact(upto_epoch=3)
            assert removed == 3
            records, _ = read_wal(wal_dir)
            assert [r.epoch for r in records] == [4, 5]
            assert w.stats()["compacted_segments"] == 3

    def test_compact_never_touches_open_tail(self, wal_dir):
        with WalWriter(wal_dir) as w:  # everything in one open segment
            for i in range(1, 4):
                w.append("batch", i)
            assert w.compact(upto_epoch=99) == 0
            records, _ = read_wal(wal_dir)
            assert len(records) == 3

    def test_compact_keeps_partially_covered_segment(
        self, wal_dir, one_record_segments
    ):
        with WalWriter(wal_dir) as w:
            for i in range(1, 4):
                w.append("batch", i)
            # Epoch 2's segment is sealed but not fully covered by 1.
            assert w.compact(upto_epoch=1) == 1
            records, _ = read_wal(wal_dir)
            assert [r.epoch for r in records] == [2, 3]


class TestFaultPoints:
    def test_append_crash_loses_only_unacked_record(self, wal_dir):
        with WalWriter(wal_dir) as w:
            w.append("batch", 1)
            with injected("wal.append", "crash"):
                with pytest.raises(InjectedCrash):
                    w.append("batch", 2)
            # The crash fired before any byte hit the file.
            records, torn = read_wal(wal_dir)
            assert [r.epoch for r in records] == [1] and torn is None
            # Writer is not poisoned.
            w.append("batch", 2)
        assert [r.epoch for r in read_wal(wal_dir)[0]] == [1, 2]

    def test_fsync_crash_after_write_keeps_record_visible(self, wal_dir):
        # Process-kill semantics: the bytes reached the OS before the
        # fsync site, so a reader still decodes the record.
        with WalWriter(wal_dir, fsync="always") as w:
            with injected("wal.fsync", "crash"):
                with pytest.raises(InjectedCrash):
                    w.append("batch", 1)
        records, _ = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1]

    def test_rotate_crash_preserves_sealed_data(
        self, wal_dir, one_record_segments
    ):
        with WalWriter(wal_dir) as w:
            w.append("batch", 1)
            with injected("wal.rotate", "crash"):
                with pytest.raises(InjectedCrash):
                    w.append("batch", 2)
        records, torn = read_wal(wal_dir)
        assert [r.epoch for r in records] == [1] and torn is None


def test_encode_record_is_deterministic():
    a = encode_record({"kind": "batch", "epoch": 7})
    b = encode_record({"kind": "batch", "epoch": 7})
    assert a == b and a[:4] == MAGIC and len(a) > HEADER_BYTES
