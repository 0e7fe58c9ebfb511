"""Tests for the command-line interface."""

import re

import pytest

from repro.harness.cli import build_parser, main
from repro.resilience.faults import injected


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table04" in out and "fig02" in out


def test_run_unknown(capsys):
    assert main(["run", "table00"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_run_table02(capsys):
    assert main(["run", "table02"]) == 0
    out = capsys.readouterr().out
    assert "Worked example" in out
    assert "completed in" in out


def test_run_with_save(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["run", "table02", "--save"]) == 0
    assert (tmp_path / "table02.json").exists()


def test_info(capsys):
    assert main(["info", "PK"]) == 0
    out = capsys.readouterr().out
    assert "stand-in" in out
    assert "R-MAT" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


class TestBuildAndQuery:
    def test_build_saves_cg(self, tmp_path, capsys):
        out = tmp_path / "pk-sssp.npz"
        assert main(["build", "PK", "SSSP", "--hubs", "4",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "CoreGraph" in capsys.readouterr().out

    def test_build_from_edge_list(self, tmp_path, capsys, tiny_graph):
        from repro.graph.edgelist import write_edge_list

        edges = tmp_path / "edges.txt"
        write_edge_list(tiny_graph, edges)
        assert main(["build", str(edges), "SSWP", "--hubs", "2"]) == 0

    def test_query_with_cg_is_exact(self, tmp_path, capsys):
        out = tmp_path / "pk-sssp.npz"
        main(["build", "PK", "SSSP", "--hubs", "4", "--out", str(out)])
        assert main(["query", "PK", "SSSP", "3", "--cg", str(out),
                     "--triangle"]) == 0
        assert "exact=True" in capsys.readouterr().out

    @pytest.mark.parametrize("other", ["random", "reversed"])
    def test_query_rejects_cg_built_on_another_graph(self, tmp_path, other):
        from repro.generators.random_graphs import random_weighted_graph
        from repro.harness.cache import get_graph
        from repro.io.binary import save_graph

        cg = tmp_path / "pk-sssp.npz"
        main(["build", "PK", "SSSP", "--hubs", "4", "--out", str(cg)])
        pk = get_graph("PK")
        # Both have PK's vertex count; the reversed one its edge count too.
        g = (pk.reverse() if other == "reversed" else
             random_weighted_graph(pk.num_vertices, pk.num_edges, seed=5))
        path = save_graph(g, tmp_path / "other.npz")
        with pytest.raises(SystemExit, match="pk-sssp.npz"):
            main(["query", str(path), "SSSP", "3", "--cg", str(cg),
                  "--no-direct"])

    def test_query_without_cg(self, capsys):
        assert main(["query", "PK", "REACH", "3"]) == 0
        assert "direct evaluation" in capsys.readouterr().out

    def test_query_wcc_needs_no_source(self, capsys):
        assert main(["query", "PK", "WCC"]) == 0

    def test_unknown_graph(self):
        with pytest.raises(SystemExit):
            main(["build", "NOPE", "SSSP"])


def test_queries_listing(capsys):
    assert main(["queries"]) == 0
    out = capsys.readouterr().out
    for name in ("SSSP", "SSNP", "Viterbi", "SSWP", "REACH", "WCC", "BFS"):
        assert name in out
    assert "uses REACH's CG" in out  # WCC's routing
    assert "extension" in out       # BFS marked as beyond the paper


class TestStats:
    def test_zoo_graph(self, capsys):
        assert main(["stats", "PK", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "degree_gini" in out
        assert "power-law regime" in out

    def test_lattice_gets_limitations_verdict(self, tmp_path, capsys):
        from repro.generators.random_graphs import lattice_graph
        from repro.graph.edgelist import write_edge_list

        path = tmp_path / "roads.txt"
        write_edge_list(lattice_graph(12, 12, seed=1), path)
        assert main(["stats", str(path), "--samples", "2"]) == 0
        assert "Limitations" in capsys.readouterr().out


class TestSummarize:
    def test_compiles_markdown(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        main(["run", "table02", "--save"])
        capsys.readouterr()
        assert main(["summarize", str(tmp_path)]) == 0
        out = tmp_path / "SUMMARY.md"
        assert out.exists()
        text = out.read_text()
        assert "table02" in text and "Worked example" in text

    def test_custom_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        main(["run", "table02", "--save"])
        target = tmp_path / "report.md"
        assert main(["summarize", str(tmp_path), "--out", str(target)]) == 0
        assert target.exists()

    def test_empty_dir_fails(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path)]) == 1
        assert "no results" in capsys.readouterr().err


class TestTelemetry:
    def test_trace_writes_journal(self, tmp_path, capsys):
        from repro.obs.journal import read_events

        cg = tmp_path / "pk.npz"
        main(["build", "PK", "SSSP", "--hubs", "2", "--out", str(cg)])
        trace = tmp_path / "run.jsonl"
        assert main(["query", "PK", "SSSP", "3", "--cg", str(cg),
                     "--trace", str(trace)]) == 0
        assert "telemetry journal" in capsys.readouterr().out
        events = read_events(trace)
        manifest = events[0]
        assert manifest["type"] == "manifest"
        assert manifest["config"]["num_hubs"] > 0
        assert manifest["seed"] == manifest["config"]["source_seed"]
        span_names = {e["name"] for e in events if e["type"] == "span"}
        assert {"twophase.core", "twophase.completion"} <= span_names
        assert any(e["type"] == "rounds" for e in events)
        assert any(e.get("name") == "graph.loaded" for e in events)
        assert events[-1]["type"] == "metrics"

    def test_metrics_prints_summary(self, tmp_path, capsys):
        assert main(["build", "PK", "SSSP", "--hubs", "2",
                     "--out", str(tmp_path / "x.npz"), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "span summary" in out
        assert "cg.build" in out
        assert "engine.edges_scanned" in out

    def test_telemetry_off_by_default(self, capsys):
        from repro import obs

        obs.reset()
        assert main(["query", "PK", "REACH", "3"]) == 0
        assert obs.spans.records() == []
        assert obs.REGISTRY.snapshot() == {}



@pytest.fixture(scope="module")
def obs_run(tmp_path_factory):
    """A traced SSSP query run: (dir, journal path)."""
    root = tmp_path_factory.mktemp("obsrun")
    cg = root / "pk.npz"
    trace = root / "run.jsonl"
    assert main(["build", "PK", "SSSP", "--hubs", "4",
                 "--out", str(cg)]) == 0
    assert main(["query", "PK", "SSSP", "3", "--cg", str(cg), "--triangle",
                 "--trace", str(trace)]) == 0
    return root, trace


class TestObs:
    def test_report_renders_terminal_and_html(self, obs_run, capsys):
        root, trace = obs_run
        html = root / "report.html"
        assert main(["obs", "report", str(trace),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out
        assert "Phase timing" in out
        assert "Quality counters" in out
        assert "Convergence" in out
        assert html.exists()
        assert "<svg" in html.read_text()

    def test_metrics_run_prints_quality_line(self, tmp_path, capsys):
        cg = tmp_path / "pk.npz"
        main(["build", "PK", "SSSP", "--hubs", "4", "--out", str(cg)])
        capsys.readouterr()
        assert main(["query", "PK", "SSSP", "3", "--cg", str(cg),
                     "--triangle", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "quality: " in out
        assert "phase1_precise=" in out
        # one line, appended to the metrics summary
        quality_lines = [l for l in out.splitlines()
                         if l.startswith("quality: ")]
        assert len(quality_lines) == 1


class TestResilienceFlags:
    @pytest.fixture(scope="class")
    def pk_cg(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rescli") / "pk-sssp.npz"
        assert main(["build", "PK", "SSSP", "--hubs", "4",
                     "--out", str(path)]) == 0
        return path

    def test_budget_without_anytime_exits_3(self, pk_cg, capsys):
        assert main(["query", "PK", "SSSP", "3", "--cg", str(pk_cg),
                     "--max-iters", "2"]) == 3
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "--anytime" in err

    def test_anytime_prints_certificate_summary(self, pk_cg, capsys):
        assert main(["query", "PK", "SSSP", "3", "--cg", str(pk_cg),
                     "--triangle", "--anytime", "--max-iters", "3"]) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "certificate:" in out
        assert "match ground truth: True" in out

    def test_no_direct_skips_truth(self, pk_cg, capsys):
        assert main(["query", "PK", "SSSP", "3", "--cg", str(pk_cg),
                     "--no-direct"]) == 0
        out = capsys.readouterr().out
        assert "direct evaluation" not in out
        assert "2phase via CG" in out


class TestLiveCommands:
    """PK runs of serve and evolve, checked for the lines CI greps."""

    def test_serve_resolves_every_request(self, capsys):
        assert main(["serve", "--requests", "16"]) == 0
        assert "lost=0, unresolved=0" in capsys.readouterr().out

    def test_serve_mutate_stream_sees_no_torn_epoch(self, capsys):
        assert main(["serve", "--mutate-stream", "--requests", "16",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "lost=0, unresolved=0" in out
        assert "torn=0" in out

    def test_evolve_rebuild_stays_exact(self, capsys):
        assert main(["evolve", "--batches", "3", "--rebuild"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"rebuilds=[1-9]", out)
        assert "exact vs from-scratch: True" in out

    def test_evolve_wal_then_recover_verifies(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        assert main(["evolve", "--batches", "3", "--wal", wal]) == 0
        out = capsys.readouterr().out
        assert "durability: wal" in out
        assert "exact vs from-scratch: True" in out
        assert main(["evolve", "recover", wal, "--verify"]) == 0
        assert "verified        True" in capsys.readouterr().out

    def test_evolve_wal_refuses_another_query_kind(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        assert main(["evolve", "--batches", "1", "--wal", wal]) == 0
        with pytest.raises(SystemExit, match="SSWP needs a SSWP core"):
            main(["evolve", "--batches", "1", "--wal", wal,
                  "--query", "SSWP"])

    def test_trace_round_trip(self, tmp_path, capsys):
        """CI's trace smoke: a chaos serve run, then a degraded trace
        picked, rendered with no orphans and explained from the journal."""
        journal = str(tmp_path / "serve-traced.jsonl")
        with injected("serve.worker.request", "crash", at_hit=3):
            assert main(["serve", "--requests", "24", "--max-iters", "2",
                         "--trace", journal]) == 0
        assert "lost=0, unresolved=0" in capsys.readouterr().out
        assert main(["obs", "trace", journal, "--pick", "degraded"]) == 0
        tid = capsys.readouterr().out.strip()
        assert tid.startswith("t")
        assert main(["obs", "trace", journal, tid]) == 0
        tree = capsys.readouterr().out
        assert "serve.request" in tree and "serve.execute" in tree
        assert "ORPHAN" not in tree
        assert main(["obs", "explain", journal, tid]) == 0
        explain = capsys.readouterr().out
        assert "degraded" in explain and "max_iterations" in explain
        assert "sampling" not in explain
