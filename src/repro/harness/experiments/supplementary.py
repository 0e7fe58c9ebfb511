"""Supplementary experiments beyond the paper's tables.

* ``suppl_reduced`` — quantify §4's criticism of the Reduced Graph prior
  work: edges kept vs vertices still queryable, next to the CG.
* ``suppl_convergence`` — the per-iteration story behind the speedups:
  direct vs core+completion edge/frontier series.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.traces import Trace, two_phase_trace
from repro.baselines.reduced import build_reduced_graph
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.engines.stats import RunStats
from repro.harness.cache import get_cg, get_graph, get_sources
from repro.harness.config import HarnessConfig, default_config
from repro.harness.experiments.base import ExperimentResult
from repro.queries.registry import get_spec
from repro.queries.specs import SSSP


def _config(config: Optional[HarnessConfig]) -> HarnessConfig:
    return config or default_config()


def suppl_reduced(config: Optional[HarnessConfig] = None) -> ExperimentResult:
    """Reduced Graph vs Core Graph: size kept vs vertices queryable."""
    cfg = _config(config)
    result = ExperimentResult(
        exp_id="suppl_reduced",
        title="Input reduction (Kusum et al.) vs core graphs",
        paper_reference="§4 related work (Reduced Graph criticism)",
        headers=["G", "RG % edges", "RG % queryable",
                 "CG % edges", "CG % queryable"],
        notes="The paper: reduced graphs keep ~50% of edges and cannot "
        "answer queries for eliminated vertices; CGs keep all vertices. "
        "On power-law stand-ins the reduction keeps even more (~99%) — "
        "degree-2 chains barely exist there.",
    )
    for name in cfg.real_graphs:
        g = get_graph(name)
        rg = build_reduced_graph(g, SSSP)
        cg = get_cg(name, SSSP)
        result.rows.append([
            name,
            100.0 * rg.edge_fraction,
            100.0 * rg.queryable_fraction,
            100.0 * cg.edge_fraction,
            100.0,
        ])
    return result


def suppl_convergence(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Per-iteration edge series of direct vs 2Phase evaluation (TT SSWP)."""
    cfg = _config(config)
    graph_name, spec = "TT", get_spec("SSWP")
    g = get_graph(graph_name)
    cg = get_cg(graph_name, spec)
    source = int(get_sources(graph_name, 1)[0])
    baseline = RunStats()
    evaluate_query(g, spec, source, stats=baseline)
    res = two_phase(g, cg, spec, source)
    result = ExperimentResult(
        exp_id="suppl_convergence",
        title=f"Convergence series, SSWP({source}) on {graph_name}",
        paper_reference="supplementary (explains Figs. 5-8)",
        headers=["run", "iteration", "frontier", "edges scanned"],
        notes="The core phase works on CG edges only; the completion phase "
        "collapses to a few sweeps.",
    )
    traces = [Trace.from_stats("direct", baseline)]
    traces.extend(two_phase_trace(res))
    for trace in traces:
        for i in range(trace.iterations):
            result.rows.append(
                [trace.label, i, trace.frontier_sizes[i],
                 trace.edges_scanned[i]]
            )
    return result


def suppl_shape_agreement(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Quantified shape agreement: rank correlation vs the paper's cells.

    For each table with transcribed paper numbers, the measured cells and
    the published cells are compared by Spearman rank correlation — "who
    wins, by roughly what order" is exactly what a rank statistic captures,
    independent of the absolute-scale offsets a stand-in cannot match.
    """
    cfg = _config(config)
    from repro.datasets.paper_numbers import (
        FIG2_SPEEDUPS,
        QUERY_ORDER,
        TABLE5_PRECISION,
        TABLE9_IO_REDUCTION,
        TABLE11_EDGES_REDUCTION,
        TABLE12_TRIANGLE_SPEEDUPS,
        spearman_rho,
    )
    from repro.harness.experiments.systems import sweep, speedup

    result = ExperimentResult(
        exp_id="suppl_shape_agreement",
        title="Rank correlation between measured and paper cells",
        paper_reference="whole evaluation",
        headers=["experiment", "cells", "spearman rho"],
        notes="rho = +1: the stand-in orders every cell exactly as the "
        "paper; values well above 0 mean the shape holds. Table 12's 12 "
        "cells are rank-unstable at stand-in scale (the paper's ordering "
        "there is driven by graph size, which the uniform stand-ins "
        "deliberately do not vary).",
    )

    # Fig. 2: 18 speedup cells on FR.
    measured, paper = [], []
    for system, paper_row in FIG2_SPEEDUPS.items():
        for spec_name, paper_val in zip(QUERY_ORDER, paper_row):
            measured.append(speedup(system, "FR", spec_name, "cg", cfg))
            paper.append(paper_val)
    result.rows.append(
        ["fig02 speedups", len(paper), spearman_rho(measured, paper)]
    )

    # Table 9: GridGraph I/O-iteration reductions.
    measured, paper = [], []
    for graph_name, paper_row in TABLE9_IO_REDUCTION.items():
        if graph_name not in cfg.real_graphs:
            continue
        for spec_name, paper_val in zip(QUERY_ORDER, paper_row):
            base = sweep("GridGraph", graph_name, spec_name, "baseline", cfg)
            two = sweep("GridGraph", graph_name, spec_name, "cg", cfg)
            b = base.counters.get("io_iterations", 0.0)
            t = two.counters.get("io_iterations", 0.0)
            measured.append(100.0 * (b - t) / b if b else 0.0)
            paper.append(paper_val)
    result.rows.append(
        ["table09 I/O reductions", len(paper), spearman_rho(measured, paper)]
    )

    # Table 11: Ligra EDGES-RED.
    measured, paper = [], []
    for graph_name, paper_row in TABLE11_EDGES_REDUCTION.items():
        if graph_name not in cfg.real_graphs:
            continue
        for spec_name, paper_val in zip(QUERY_ORDER, paper_row):
            base = sweep("Ligra", graph_name, spec_name, "baseline", cfg)
            two = sweep("Ligra", graph_name, spec_name, "cg", cfg)
            b = base.counters.get("edges_processed", 0.0)
            t = two.counters.get("edges_processed", 0.0)
            measured.append(100.0 * (b - t) / b if b else 0.0)
            paper.append(paper_val)
    result.rows.append(
        ["table11 EDGES-RED", len(paper), spearman_rho(measured, paper)]
    )

    # Table 12: triangle speedups.
    measured, paper = [], []
    for graph_name, paper_row in TABLE12_TRIANGLE_SPEEDUPS.items():
        if graph_name not in cfg.real_graphs:
            continue
        for spec_name, paper_val in zip(("SSNP", "Viterbi", "SSWP"),
                                        paper_row):
            base = sweep("Ligra", graph_name, spec_name, "baseline", cfg)
            tri = sweep("Ligra", graph_name, spec_name, "cg-tri", cfg)
            measured.append(base.time / tri.time)
            paper.append(paper_val)
    result.rows.append(
        ["table12 triangle speedups", len(paper),
         spearman_rho(measured, paper)]
    )

    # Table 5: precision cells (near-constant in both; rho may be noisy —
    # also report the max absolute gap, stashed in the notes).
    from repro.harness.experiments.proxy_quality import table05

    t5 = table05(cfg)
    gaps = []
    for row in t5.rows:
        paper_row = TABLE5_PRECISION.get(row[0])
        if paper_row is None:
            continue
        gaps.extend(abs(m - p) for m, p in zip(row[1:], paper_row))
    if gaps:
        result.notes += (
            f" Table 5 precision: max |measured - paper| = "
            f"{max(gaps):.1f} points."
        )
    return result


def suppl_evolving(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Core-phase precision decay under edge insertions, and the rebuild.

    Insertions never break exactness (2Phase repairs any proxy), but the
    stale CG's precision — and with it the speedup — decays as new
    solution paths appear outside it. The last row shows a rebuild
    restoring quality.
    """
    cfg = _config(config)
    from repro.core.evolving import EvolvingCoreGraph
    from repro.graph.mutate import random_edge_batch

    graph_name = "PK"
    g = get_graph(graph_name)
    ev = EvolvingCoreGraph(g, SSSP, num_hubs=cfg.num_hubs)
    result = ExperimentResult(
        exp_id="suppl_evolving",
        title=f"CG quality under edge insertions ({graph_name}, SSSP)",
        paper_reference="supplementary (evolving-graph follow-up line)",
        headers=["state", "|E|", "CG % of |E|", "probe precision %"],
        notes="Queries remain exact throughout; the decaying column is the "
        "core phase's precision, i.e. how much work the completion phase "
        "inherits. The final rebuild restores it.",
    )

    def snapshot(label):
        result.rows.append([
            label,
            ev.graph.num_edges,
            100.0 * ev.cg.num_edges / ev.graph.num_edges,
            ev.probe_precision(),
        ])

    snapshot("initial")
    base_edges = g.num_edges
    for i, fraction in enumerate((0.05, 0.15, 0.30)):
        grow_to = int(base_edges * fraction)
        already = ev.stats.inserted_edges
        ev.insert_edges(
            random_edge_batch(ev.graph, grow_to - already, seed=50 + i)
        )
        snapshot(f"+{int(fraction * 100)}% edges")
    ev.rebuild()
    snapshot("after rebuild")
    return result

