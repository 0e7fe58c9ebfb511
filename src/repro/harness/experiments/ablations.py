"""Ablations of the design choices behind the core-graph recipe.

The paper fixes several design parameters with brief justifications; these
experiments vary them one at a time:

* ``ablation_hubs`` — number of hub queries (the paper fixes 20 after
  observing Fig. 3's saturation).
* ``ablation_hub_selection`` — top-total-degree hubs vs out-/in-degree vs
  random (the paper cites "high degree vertices are good proxies for high
  centrality vertices" in power-law graphs).
* ``ablation_connectivity`` — the additional-connectivity pass of
  Algorithm 1 lines 8-12 on vs off.
* ``ablation_direction`` — forward+backward hub queries vs forward-only
  (the paper argues both directions preserve pairwise reachability).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.identify import build_core_graph
from repro.core.precision import measure_precision
from repro.graph.degree import top_degree_vertices
from repro.harness.cache import get_graph, get_sources, get_truth
from repro.harness.config import HarnessConfig, default_config
from repro.harness.experiments.base import ExperimentResult
from repro.queries.specs import SSSP, SSWP

ABLATION_GRAPH = "TT"


def _config(config: Optional[HarnessConfig]) -> HarnessConfig:
    return config or default_config()


def _precision_of(g, cg, spec, cfg, graph_name) -> float:
    sources = get_sources(graph_name, cfg.num_queries)
    truths = [get_truth(graph_name, spec.name, int(s)) for s in sources]
    return measure_precision(g, cg, spec, sources, true_values=truths).pct_precise


def ablation_hubs(config: Optional[HarnessConfig] = None) -> ExperimentResult:
    """CG size and precision vs number of hub queries (SSSP on TT)."""
    cfg = _config(config)
    g = get_graph(ABLATION_GRAPH)
    result = ExperimentResult(
        exp_id="ablation_hubs",
        title=f"SSSP CG vs #hubs on {ABLATION_GRAPH}",
        paper_reference="§2.1 (the choice of 20 hubs) / Figure 3",
        headers=["#hubs", "CG % edges", "precision %"],
        notes="Precision should saturate well before the paper's 20 hubs; "
        "edges grow sublinearly.",
    )
    for num_hubs in (1, 2, 5, 10, 20, 40):
        cg = build_core_graph(g, SSSP, num_hubs=num_hubs)
        result.rows.append([
            num_hubs,
            100.0 * cg.edge_fraction,
            _precision_of(g, cg, SSSP, cfg, ABLATION_GRAPH),
        ])
    return result


def ablation_hub_selection(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Hub-selection strategies: degree modes vs random vertices."""
    cfg = _config(config)
    g = get_graph(ABLATION_GRAPH)
    rng = np.random.default_rng(cfg.source_seed + 1)
    strategies = {
        "top-total-degree": top_degree_vertices(g, cfg.num_hubs, "total"),
        "top-out-degree": top_degree_vertices(g, cfg.num_hubs, "out"),
        "top-in-degree": top_degree_vertices(g, cfg.num_hubs, "in"),
        "random": rng.choice(
            np.flatnonzero(g.out_degree() > 0), cfg.num_hubs, replace=False
        ),
    }
    result = ExperimentResult(
        exp_id="ablation_hub_selection",
        title=f"Hub selection strategies (SSSP on {ABLATION_GRAPH}, "
        f"{cfg.num_hubs} hubs)",
        paper_reference="§2.1 (high-degree vertices proxy high centrality)",
        headers=["strategy", "CG % edges", "precision %"],
        notes="Degree-based hubs should dominate random hubs in precision "
        "per retained edge.",
    )
    for name, hubs in strategies.items():
        cg = build_core_graph(g, SSSP, hubs=[int(h) for h in hubs])
        result.rows.append([
            name,
            100.0 * cg.edge_fraction,
            _precision_of(g, cg, SSSP, cfg, ABLATION_GRAPH),
        ])
    return result


def ablation_connectivity(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """The additional-connectivity pass on vs off (SSSP and SSWP)."""
    cfg = _config(config)
    g = get_graph(ABLATION_GRAPH)
    result = ExperimentResult(
        exp_id="ablation_connectivity",
        title=f"Connectivity pass (Algorithm 1 lines 8-12) on {ABLATION_GRAPH}",
        paper_reference="§2.1 (Additional Connectivity Edges)",
        headers=["query", "connectivity", "CG % edges", "precision %",
                 "vertices w/o out-edge"],
    )
    for spec in (SSSP, SSWP):
        for connectivity in (False, True):
            cg = build_core_graph(
                g, spec, num_hubs=cfg.num_hubs, connectivity=connectivity
            )
            uncovered = int(np.count_nonzero(
                (g.out_degree() > 0) & (cg.graph.out_degree() == 0)
            ))
            result.rows.append([
                spec.name,
                "on" if connectivity else "off",
                100.0 * cg.edge_fraction,
                _precision_of(g, cg, spec, cfg, ABLATION_GRAPH),
                uncovered,
            ])
    return result


def ablation_direction(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Forward+backward hub queries vs forward-only."""
    cfg = _config(config)
    g = get_graph(ABLATION_GRAPH)
    result = ExperimentResult(
        exp_id="ablation_direction",
        title=f"Hub query directions (SSSP on {ABLATION_GRAPH})",
        paper_reference="§2.1 (Forward and Backward Queries)",
        headers=["directions", "CG % edges", "precision %"],
        notes="Backward queries preserve paths *into* the hubs; dropping "
        "them shrinks the CG but costs precision.",
    )
    for include_backward, label in ((True, "forward+backward"),
                                    (False, "forward only")):
        cg = build_core_graph(
            g, SSSP, num_hubs=cfg.num_hubs, include_backward=include_backward
        )
        result.rows.append([
            label,
            100.0 * cg.edge_fraction,
            _precision_of(g, cg, SSSP, cfg, ABLATION_GRAPH),
        ])
    return result


def ablation_identification(
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Algorithm 2 (Qid-sharing BFS) vs Algorithm 1 for the general CG.

    REACH could also be identified by Algorithm 1 (it is a single-source
    query with a solution-path witness); the paper chose the BFS-tree
    construction instead. This ablation measures the trade: size, build
    time, and REACH precision of the two constructions.
    """
    import time

    from repro.core.unweighted import build_unweighted_core_graph
    from repro.queries.specs import REACH

    cfg = _config(config)
    g = get_graph(ABLATION_GRAPH)
    result = ExperimentResult(
        exp_id="ablation_identification",
        title=f"General-CG identification on {ABLATION_GRAPH}: "
        "Algorithm 2 vs Algorithm 1",
        paper_reference="§2.1 (CG for Unweighted Graphs)",
        headers=["algorithm", "CG % edges", "build s", "REACH precision %"],
        notes="Why the paper needs Algorithm 2: REACH's solution-path "
        "witness (Val(u) == Val(v) == 1) is satisfied by EVERY edge between "
        "reached vertices, so Algorithm 1 degenerates to keeping nearly the "
        "whole graph; the BFS-tree construction is both small and faster "
        "to build.",
    )
    builders = (
        ("algorithm2 (BFS, Qid)", lambda: build_unweighted_core_graph(
            g, num_hubs=cfg.num_hubs)),
        ("algorithm1 (witness)", lambda: build_core_graph(
            g, REACH, num_hubs=cfg.num_hubs)),
    )
    for label, build in builders:
        t0 = time.perf_counter()
        cg = build()
        elapsed = time.perf_counter() - t0
        result.rows.append([
            label,
            100.0 * cg.edge_fraction,
            elapsed,
            _precision_of(g, cg, REACH, cfg, ABLATION_GRAPH),
        ])
    return result

