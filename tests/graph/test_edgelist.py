"""Tests for edge-list file I/O."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.edgelist import read_edge_list, write_edge_list


class TestRoundTrip:
    def test_weighted(self, tmp_path, tiny_graph):
        path = tmp_path / "g.txt"
        write_edge_list(tiny_graph, path)
        g = read_edge_list(path, num_vertices=tiny_graph.num_vertices)
        assert g == tiny_graph

    def test_unweighted(self, tmp_path):
        g0 = from_edges([(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "g.txt"
        write_edge_list(g0, path)
        g = read_edge_list(path)
        assert not g.is_weighted
        assert g == g0

    def test_failed_write_keeps_previous_file(self, tmp_path, tiny_graph):
        path = tmp_path / "g.txt"
        write_edge_list(tiny_graph, path)
        before = path.read_bytes()

        def torn_dst():
            yield 1
            yield 2
            raise OSError("disk full")

        half = SimpleNamespace(
            is_weighted=False, edge_sources=lambda: [0, 1, 2], dst=torn_dst()
        )
        with pytest.raises(OSError, match="disk full"):
            write_edge_list(half, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n# middle\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_mixed_columns_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2 3.0\n")
        with pytest.raises(ValueError, match="mixed"):
            read_edge_list(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValueError, match="columns"):
            read_edge_list(path)

    def test_empty_file_needs_num_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_edge_list(path)
        g = read_edge_list(path, num_vertices=4)
        assert g.num_vertices == 4

    def test_float_weights_preserved(self, tmp_path):
        g0 = from_edges([(0, 1, 0.123456789)])
        path = tmp_path / "g.txt"
        write_edge_list(g0, path)
        g = read_edge_list(path)
        assert np.isclose(g.weights[0], 0.123456789)
