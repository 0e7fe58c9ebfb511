"""The suite's own checks: ``pytest benchmarks/suite`` (under a minute).

The workloads are exercised through the same functions the CLI calls, with
PK-sized ``Sizes`` — there is no test-only code path in the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

import run as suite
from catalogue import END_TO_END, LAYERS
from measure import REPO_ROOT, Spans, blocked, rate_blocks, refuse_foreign_env
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_runs():
    """Every workload, plain and traced, on a 1k-vertex graph."""
    out = {}
    for name, workload in WORKLOADS.items():
        sizes = dataclasses.replace(
            workload.sizes, graph="PK", scale_delta=-1, hubs=4, sources=8,
            setup_reps=2, probe_sources=4, probe_batches=2,
            paced_rates=(40.0, 80.0), paced_seconds=0.4)
        for trace in (False, True):
            out[name, trace] = suite.run_workload(name, 5, 1.0, trace, sizes)
    return out


# ----------------------------------------------------------------------
# BENCHMARK.json <-> catalogue <-> what the workloads emit
# ----------------------------------------------------------------------
def test_declaration_is_within_the_driver_limits(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/suite"]
    assert declared["command"][-1].startswith(declared["paths"][0])
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for row in declared["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in declared["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in declared["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("lower", "higher")
    setup = next(r for r in declared["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in declared["end_to_end"])


def test_declaration_matches_the_catalogue(declared):
    assert {r["name"]: r["why"] for r in declared["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {r["name"]: (r["unit"], r["better"], r["bound"])
            for r in declared["end_to_end"]} == {
        name: (m.unit, m.better, m.bound) for name, m in END_TO_END.items()}
    assert {r["name"]: (r["unit"], r["better"]) for r in declared["per_layer"]} == {
        name: (m.unit, m.better) for name, m in LAYERS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_and_nothing_else(small_runs, name):
    plain, traced = small_runs[name, False], small_runs[name, True]
    assert set(plain["metrics"]) == set(END_TO_END)
    assert set(traced["metrics"]) == set(LAYERS)
    for result, table in ((plain, END_TO_END), (traced, LAYERS)):
        assert result["attempted"] >= 1
        assert result["failed"] == 0, result["notes"]
        for metric, row in result["metrics"].items():
            assert math.isfinite(row["value"]), metric
            assert row["unit"] == table[metric].unit and row["n"] >= 1
    # The driver rejects an end-to-end metric that can read zero.
    assert all(row["value"] > 0 for row in plain["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_contract_line(small_runs, name):
    for trace, table in ((False, END_TO_END), (True, LAYERS)):
        line = json.loads(suite.contract_line(small_runs[name, trace]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and isinstance(line["attempted"], int)
        assert set(line["metrics"]) == set(table)
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_spans_account_for_the_traced_phase(small_runs, name):
    traced = small_runs[name, True]
    # run_workload turns a span that leaves its parent, or a negative self
    # time, into a failed check; none may be reported.
    assert not [n for n in traced["notes"] if n.startswith("span ")]
    metrics = traced["metrics"]
    assert metrics["suite.span_coverage_frac"]["value"] >= 0.95
    shares = sum(metrics[f"suite.self_share.{layer}"]["value"]
                 for layer in ("engines", "core", "serve", "evolve", "harness"))
    assert shares == pytest.approx(1.0)
    assert all(row["self_s"] >= -1e-6 for row in traced["layer_table"].values())


def test_layer_shape_is_the_known_one(small_runs):
    """Who is busy where: the shape later PRs are read against."""
    share = {name: {layer: small_runs[name, True]["metrics"]
                    [f"suite.self_share.{layer}"]["value"]
                    for layer in ("engines", "serve", "evolve")}
             for name in WORKLOADS}
    assert share["static-fr1"]["serve"] == share["static-fr1"]["evolve"] == 0
    assert share["serve-tt"]["engines"] > share["serve-tt"]["serve"] > 0
    assert share["churn-tt"]["evolve"] > 0.5 and share["churn-tt"]["engines"] == 0
    assert min(share["live-tt"].values()) > 0
    churn = small_runs["churn-tt", True]["metrics"]
    assert (churn["core.evolving_self_ms_p50"]["value"]
            > churn["evolve.wal_self_ms_p50"]["value"])


# ----------------------------------------------------------------------
# The measuring tools themselves
# ----------------------------------------------------------------------
def test_span_self_time_and_coverage():
    rec = Spans()
    root = rec.add("phase", 0.0, 10.0)
    a = rec.add("a", 1.0, 5.0, root)
    rec.add("a.child", 2.0, 4.0, a)
    rec.add("b", 4.0, 9.0, root)            # overlaps a by one second
    assert rec.self_times() == [2.0, 2.0, 2.0, 5.0]
    assert rec.coverage([root]) == pytest.approx(0.8)
    assert rec.layer_table([root])["a"] == {
        "count": 1, "total_s": 4.0, "self_s": 2.0}
    assert rec.problems() == []
    rec.add("stray", 9.0, 11.0, root)
    assert "not inside parent" in rec.problems()[0]


def test_derived_spans_are_clipped_into_their_parent():
    rec = Spans()
    root = rec.add("request", 1.0, 2.0)
    rec.add("wait", 0.5, 1.2, root, derived=True)
    rec.add("service", 1.2, 2.5, root, derived=True)
    assert [r[1:3] for r in rec.rows[1:]] == [[1.0, 1.2], [1.2, 2.0]]
    assert rec.problems() == []


def test_blocks_report_the_median_block_and_its_spread():
    quiet, noisy = [10.0] * 8, [14.0] * 8
    values = quiet + noisy + quiet + quiet + noisy + [99.0] * 3  # partial block
    mean = blocked(values, lambda b: sum(b) / len(b), 8)
    assert mean["value"] == 10.0 and mean["n"] == 43
    assert mean["spread"] == pytest.approx(0.4)
    rates = rate_blocks([i / 100 for i in range(400)], 0.0, 4.0, blocks=4)
    assert rates["value"] == pytest.approx(100.0) and rates["spread"] == 0.0


def test_refuses_environments_that_change_the_program(monkeypatch):
    refuse_foreign_env()
    monkeypatch.setenv("REPRO_SCALE_DELTA", "-3")
    with pytest.raises(SystemExit, match="REPRO_SCALE_DELTA"):
        refuse_foreign_env()


# ----------------------------------------------------------------------
# --agree
# ----------------------------------------------------------------------
def _result_file(tmp_path, label, small_runs, edit=None):
    doc = {"workloads": {}}
    for name in WORKLOADS:
        plain, traced = small_runs[name, False], small_runs[name, True]
        doc["workloads"][name] = json.loads(json.dumps({
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "end_to_end_checks": {"failed": 0}, "per_layer_checks": {"failed": 0},
        }))
    if edit:
        edit(doc["workloads"])
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(doc))
    return path


def test_agree_verdicts(tmp_path, small_runs, capsys):
    def calm(w):  # a one-second run on a 1k-vertex graph is anything but
        for slot in w.values():
            for row in slot["end_to_end"].values():
                row["spread"] = 0.01

    base = _result_file(tmp_path, "a", small_runs, calm)
    assert suite.agree(base, base) == 0

    def slower(w):
        calm(w)
        w["serve-tt"]["end_to_end"]["op_ms_p50"]["value"] *= 1.5

    assert suite.agree(base, _result_file(tmp_path, "b", small_runs, slower)) == 1
    assert "differs" in capsys.readouterr().out

    def noisy(w):
        slower(w)
        w["serve-tt"]["end_to_end"]["op_ms_p50"]["spread"] = 0.6

    assert suite.agree(base, _result_file(tmp_path, "c", small_runs, noisy)) == 0
    assert "unresolved" in capsys.readouterr().out

    def recount(w):
        calm(w)
        w["static-fr1"]["per_layer"]["engines.edges_per_query.SSSP"]["value"] += 1

    assert suite.agree(base, _result_file(tmp_path, "d", small_runs, recount)) == 1
    assert "exact count" in capsys.readouterr().out
