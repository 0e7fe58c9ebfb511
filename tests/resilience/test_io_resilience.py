"""Typed corruption errors, journal crash-safety, retried artifact reads."""

import json

import numpy as np
import pytest

from repro.generators.random_graphs import random_weighted_graph
from repro.io.artifacts import ArtifactCache
from repro.io.binary import load_graph, save_graph
from repro.io.errors import CorruptGraphError
from repro.obs.journal import Journal, read_events
from repro.resilience.faults import InjectedCrash, clear, injected, install


@pytest.fixture(autouse=True)
def _clean_faults():
    clear()
    yield
    clear()


@pytest.fixture
def small_graph():
    return random_weighted_graph(40, 160, seed=11)


class TestCorruptionErrors:
    def test_garbage_npz_names_the_file(self, tmp_path):
        path = tmp_path / "g.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(CorruptGraphError) as exc_info:
            load_graph(path)
        assert exc_info.value.path == str(path)

    def test_missing_keys_named(self, tmp_path):
        path = tmp_path / "g.npz"
        np.savez(path, offsets=np.arange(3))
        with pytest.raises(CorruptGraphError, match="missing required keys"):
            load_graph(path)

    def test_corrupt_error_is_valueerror(self, tmp_path, small_graph):
        """Pre-existing ``except ValueError`` call sites keep working."""
        path = save_graph(small_graph, tmp_path / "g.npz")
        path.write_bytes(b"junk")
        with pytest.raises(ValueError):
            load_graph(path)


class TestJournalCrashSafety:
    def test_crashed_close_leaves_readable_partial(self, tmp_path):
        path = tmp_path / "run.jsonl"
        j = Journal(path, manifest={"type": "manifest"})
        j.emit({"type": "event", "name": "x"})
        with injected("journal.close", "crash"):
            with pytest.raises(InjectedCrash):
                j.close()
        assert not path.exists()
        assert path.with_name("run.jsonl.partial").exists()
        # a later clean close still promotes the stream to the final path
        j.close()
        assert path.exists()
        assert len(read_events(path)) == 2

    def test_read_events_falls_back_to_partial(self, tmp_path):
        path = tmp_path / "run.jsonl"
        partial = tmp_path / "run.jsonl.partial"
        lines = [
            json.dumps({"type": "manifest", "seq": 0}),
            json.dumps({"type": "event", "seq": 1}),
        ]
        # a kill can tear the final line mid-write; the reader drops it
        partial.write_text("\n".join(lines) + "\n" + '{"type": "torn", "se')
        events = read_events(path)
        assert [e["seq"] for e in events] == [0, 1]

    def test_complete_journal_stays_strict(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "manifest"}\n{"torn": ')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)


class TestRetriedArtifactReads:
    def test_transient_ioerror_is_retried(self, tmp_path, small_graph):
        cache = ArtifactCache(tmp_path)
        built = cache.graph("k", lambda: small_graph)  # populates the cache
        assert built is small_graph
        # first read attempt fails with an injected transient IO error;
        # retry_call must recover on the second attempt
        install("artifacts.read", "ioerror", at_hit=1)
        g = cache.graph("k", lambda: pytest.fail("must read, not rebuild"))
        assert g.num_edges == small_graph.num_edges
        assert np.array_equal(g.dst, small_graph.dst)
