"""Tests for the ablation experiment drivers (reduced configuration)."""

import os

import pytest

from repro.harness.cache import clear_caches
from repro.harness.config import HarnessConfig
from repro.harness.experiments.ablations import (
    ablation_connectivity,
    ablation_direction,
    ablation_hub_selection,
    ablation_hubs,
)


@pytest.fixture(scope="module", autouse=True)
def small_env():
    old = {k: os.environ.get(k) for k in ("REPRO_NUM_HUBS", "REPRO_NUM_QUERIES")}
    os.environ["REPRO_NUM_HUBS"] = "4"
    os.environ["REPRO_NUM_QUERIES"] = "2"
    clear_caches()
    yield
    for k, v in old.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    clear_caches()


@pytest.fixture(scope="module")
def cfg():
    return HarnessConfig(num_hubs=4, num_queries=2)


def test_hubs_sweep_monotone_size(cfg):
    r = ablation_hubs(cfg)
    sizes = [row[1] for row in r.rows]
    assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:]))
    precisions = [row[2] for row in r.rows]
    assert precisions[-1] >= precisions[0] - 1.0  # more hubs never hurt much


def test_hub_selection_degree_beats_random(cfg):
    r = ablation_hub_selection(cfg)
    rows = {row[0]: row for row in r.rows}
    assert set(rows) == {
        "top-total-degree", "top-out-degree", "top-in-degree", "random"
    }
    # degree-based hubs achieve at least random's precision
    assert rows["top-total-degree"][2] >= rows["random"][2] - 2.0


def test_connectivity_covers_all_vertices(cfg):
    r = ablation_connectivity(cfg)
    for row in r.rows:
        if row[1] == "on":
            assert row[4] == 0  # no vertex left without an out-edge
        else:
            assert row[4] >= 0


def test_direction_backward_adds_edges_and_precision(cfg):
    r = ablation_direction(cfg)
    rows = {row[0]: row for row in r.rows}
    both, fwd = rows["forward+backward"], rows["forward only"]
    assert both[1] >= fwd[1]  # more edges
    assert both[2] >= fwd[2] - 1.0  # at least comparable precision


def test_identification_comparison(cfg):
    from repro.harness.experiments.ablations import ablation_identification

    r = ablation_identification(cfg)
    assert len(r.rows) == 2
    for row in r.rows:
        assert 0 < row[1] <= 100
        assert row[2] > 0
        assert row[3] > 80.0
