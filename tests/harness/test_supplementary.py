"""Tests for the supplementary experiment drivers (reduced config)."""

import os

import pytest

from repro.harness.cache import clear_caches
from repro.harness.config import HarnessConfig
from repro.harness.experiments.supplementary import (
    suppl_convergence,
    suppl_engines,
    suppl_reduced,
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
    return HarnessConfig(num_hubs=4, num_queries=2, real_graphs=("PK",))


def test_reduced_vs_cg(cfg):
    r = suppl_reduced(cfg)
    for row in r.rows:
        rg_edges, rg_queryable = row[1], row[2]
        cg_queryable = row[4]
        assert cg_queryable == 100.0
        assert 0 < rg_edges <= 100.0
        assert 0 < rg_queryable <= 100.0


def test_convergence_series(cfg):
    r = suppl_convergence(cfg)
    labels = {row[0] for row in r.rows}
    assert labels == {"direct", "core", "completion"}
    core_edges = sum(row[3] for row in r.rows if row[0] == "core")
    direct_edges = sum(row[3] for row in r.rows if row[0] == "direct")
    assert core_edges < direct_edges


def test_engines_table(cfg):
    r = suppl_engines(cfg)
    assert len(r.rows) == 9  # 3 queries x 3 engines
    by_engine = {}
    for row in r.rows:
        by_engine.setdefault(row[1], []).append(row)
    assert set(by_engine) == {"sync push", "async", "direction-opt"}


def test_evolving_table(cfg):
    from repro.harness.experiments.supplementary import suppl_evolving

    r = suppl_evolving(cfg)
    assert r.rows[0][0] == "initial"
    assert r.rows[-1][0] == "after rebuild"
    # precision decays with churn, then the rebuild restores it
    initial, churned, rebuilt = r.rows[0][3], r.rows[-2][3], r.rows[-1][3]
    assert churned <= initial
    assert rebuilt >= churned


def test_shape_agreement(cfg):
    from repro.harness.experiments.supplementary import suppl_shape_agreement

    r = suppl_shape_agreement(cfg)
    assert len(r.rows) == 4
    for row in r.rows:
        assert -1.0 <= row[2] <= 1.0
    assert "Table 5 precision" in r.notes
