"""Tests for Subway's GPU memory model."""

import pytest

from repro.generators.random_graphs import random_weighted_graph
from repro.systems.subgraph import GpuMemoryModel


@pytest.fixture(scope="module")
def g():
    return random_weighted_graph(120, 900, seed=55)


class TestGpuMemoryModel:
    def test_default_capacity_excludes_full_graph(self, g):
        mem = GpuMemoryModel(g)
        assert not mem.fits(g)

    def test_explicit_capacity(self, g):
        mem = GpuMemoryModel(g, capacity=10**9)
        assert mem.fits(g)
        tiny = GpuMemoryModel(g, capacity=1)
        assert not tiny.fits(g)

    def test_graph_bytes_accounting(self, g):
        mem = GpuMemoryModel(g, bytes_per_edge=8, bytes_per_vertex=8)
        assert mem.graph_bytes(g) == g.num_edges * 8 + g.num_vertices * 8
