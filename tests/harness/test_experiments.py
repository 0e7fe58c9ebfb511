"""End-to-end checks of every experiment driver on a reduced configuration.

Each driver runs on the PK stand-in (plus RMAT1 where relevant) with few
hubs and queries; the assertions target the paper's qualitative shapes, not
absolute numbers.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.harness.cache import clear_caches
from repro.harness.config import HarnessConfig
from repro.harness.experiments import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module", autouse=True)
def small_config_env():
    import os

    old_hubs = os.environ.get("REPRO_NUM_HUBS")
    old_queries = os.environ.get("REPRO_NUM_QUERIES")
    os.environ["REPRO_NUM_HUBS"] = "4"
    os.environ["REPRO_NUM_QUERIES"] = "2"
    clear_caches()
    # also reset the systems sweep caches, which key on mode/name only
    from repro.harness.experiments import systems as sys_mod
    from repro.harness.experiments import proxy_quality as pq_mod

    sys_mod._SWEEPS.clear()
    sys_mod._SIMS.clear()
    pq_mod._PROXY_CACHE.clear()
    yield
    for key, val in (
        ("REPRO_NUM_HUBS", old_hubs), ("REPRO_NUM_QUERIES", old_queries)
    ):
        if val is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = val
    clear_caches()
    sys_mod._SWEEPS.clear()
    sys_mod._SIMS.clear()
    pq_mod._PROXY_CACHE.clear()


@pytest.fixture(scope="module")
def cfg():
    return HarnessConfig(
        num_hubs=4,
        num_queries=2,
        real_graphs=("PK",),
        rmat_graphs=("RMAT1",),
    )


def test_registry_complete():
    expected = {
        "fig02", "fig03", "fig05", "fig06", "fig07", "fig08", "fig09",
        "table01", "table02", "table03", "table04", "table05",
        "table05_detail", "table07",
        "table08", "table09", "table10", "table11", "table12", "table13a",
        "table13b", "table13c", "table14", "table15", "table16", "table17",
        "ablation_hubs", "ablation_hub_selection", "ablation_connectivity",
        "ablation_direction", "ablation_identification",
        "suppl_reduced", "suppl_convergence",
        "suppl_evolving", "suppl_shape_agreement",
    }
    assert set(EXPERIMENTS) == expected


def test_bench_scripts_record_exactly_the_registry():
    """Every id a ``benchmarks/bench_*.py`` script records is registered,
    and every registered experiment has a bench script that records it."""
    root = Path(__file__).resolve().parents[2] / "benchmarks"
    recorded = set()
    for script in root.glob("bench_*.py"):
        recorded.update(
            re.findall(r'record_experiment\(\s*"([^"]+)"', script.read_text())
        )
    assert recorded == set(EXPERIMENTS)


def test_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("table00")


class TestProxyQualityDrivers:
    def test_fig03_growth_flattens(self, cfg):
        r = run_experiment("fig03", cfg)
        sssp = [row[1] for row in r.rows]
        assert all(b >= a for a, b in zip(sssp, sssp[1:]))
        # tail grows slower than head
        assert (sssp[-1] - sssp[len(sssp) // 2]) < sssp[0]

    def test_table01_overlap_above_one(self, cfg):
        r = run_experiment("table01", cfg)
        weighted_cells = [c for c in r.rows[0][1:] if c is not None]
        assert all(c > 1.0 for c in weighted_cells)

    def test_table02_all_match(self, cfg):
        r = run_experiment("table02", cfg)
        assert all(row[-1] is True for row in r.rows)

    def test_table03_inventory(self, cfg):
        r = run_experiment("table03", cfg)
        assert len(r.rows) == 1
        assert r.rows[0][0] == "PK"
        assert r.rows[0][1] > 0

    def test_table04_fractions(self, cfg):
        r = run_experiment("table04", cfg)
        for row in r.rows:
            for cell in row[1:]:
                assert 0 < cell <= 100

    def test_table05_precision_high(self, cfg):
        r = run_experiment("table05", cfg)
        for row in r.rows:
            for cell in row[1:]:
                assert cell > 80.0

    def test_table05_detail(self, cfg):
        r = run_experiment("table05_detail", cfg)
        for row in r.rows:
            assert row[1] >= 0 and row[2] >= 0
            assert row[3] >= 0.0

    def test_table13(self, cfg):
        a = run_experiment("table13a", cfg)
        assert a.rows[0][0] == "RMAT1"
        b = run_experiment("table13b", cfg)
        assert all(0 < c <= 100 for c in b.rows[0][1:])
        c = run_experiment("table13c", cfg)
        # 4 hubs instead of the paper's 20 lowers SSSP/Viterbi precision
        assert all(x > 55.0 for x in c.rows[0][1:])

    def test_table15_ag_below_cg(self, cfg):
        t5 = run_experiment("table05", cfg)
        t15 = run_experiment("table15", cfg)
        cg_sssp = t5.rows[0][1]
        ag_sssp = t15.rows[0][2]  # row PK/AG-P, column SSSP
        assert ag_sssp < cg_sssp

    def test_table15_doubling_helps(self, cfg):
        r = run_experiment("table15", cfg)
        ag = r.rows[0]
        ag2 = r.rows[1]
        assert ag[1] == "AG-P" and ag2[1] == "2AG-P"
        # doubling the budget cannot hurt precision on average
        assert np.mean(ag2[2:]) >= np.mean(ag[2:]) - 1.0

    def test_table16_sg_low(self, cfg):
        t5 = run_experiment("table05", cfg)
        t16 = run_experiment("table16", cfg)
        assert np.mean(t16.rows[0][2:]) < np.mean(t5.rows[0][1:])

    def test_table17_strong_overlap(self, cfg):
        r = run_experiment("table17", cfg)
        row = r.rows[0]
        # 4-hub CGs still keep the top ranks mostly intact
        assert row[1] >= 70  # top-100 overlap out of 100

    def test_fig09_powerlaw(self, cfg):
        r = run_experiment("fig09")
        full = sum(row[1] for row in r.rows)
        core = sum(row[2] for row in r.rows)
        assert full == core  # same vertex count in both histograms
        assert "power-law" in r.notes.lower() or "Power-law" in r.notes


class TestSystemsDrivers:
    def test_fig02_speedups_positive(self, cfg):
        r = run_experiment("fig02", cfg)
        assert len(r.rows) == 6
        for row in r.rows:
            for cell in row[1:]:
                assert cell > 0.2

    def test_fig05_reductions(self, cfg):
        r = run_experiment("fig05", cfg)
        for row in r.rows:
            for cell in row[2:]:
                assert 0 <= cell < 3.0

    def test_fig06_cg_beats_ag_on_average(self, cfg):
        r = run_experiment("fig06", cfg)
        cg = [row[2] for row in r.rows if row[0] == "CG"]
        ag = [row[2] for row in r.rows if row[0] == "AG"]
        assert np.mean(cg) > np.mean(ag)

    def test_fig07_and_table09_consistent(self, cfg):
        run_experiment("fig07", cfg)
        t9 = run_experiment("table09", cfg)
        for row in t9.rows:
            for cell in row[1:]:
                assert -100 <= cell <= 100

    def test_fig08_ligra(self, cfg):
        r = run_experiment("fig08", cfg)
        assert any(row[2] > 1.0 for row in r.rows if row[0] == "CG")

    def test_tables_7_8_10_positive_times(self, cfg):
        for exp in ("table07", "table08", "table10"):
            r = run_experiment(exp, cfg)
            for row in r.rows:
                for cell in row[1:]:
                    assert cell > 0

    def test_table11_reach_strongest(self, cfg):
        r = run_experiment("table11", cfg)
        row = r.rows[0]
        cells = dict(zip(r.headers[1:], row[1:]))
        assert cells["REACH"] == max(cells.values())

    def test_table12_triangle_improves(self, cfg):
        t12 = run_experiment("table12", cfg)
        t11 = run_experiment("table11", cfg)
        plain = dict(zip(t11.headers[1:], t11.rows[0][1:]))
        red_row = [r for r in t12.rows if r[1] == "EDGES-RED %"][0]
        tri = dict(zip(t12.headers[2:], red_row[2:]))
        for q in ("SSNP", "SSWP"):
            assert tri[q] >= plain[q] - 1.0

    def test_table14_rmat(self, cfg):
        r = run_experiment("table14", cfg)
        assert len(r.rows) == 3  # 3 systems x 1 rmat graph
        for row in r.rows:
            for cell in row[2:]:
                assert cell > 0.2
