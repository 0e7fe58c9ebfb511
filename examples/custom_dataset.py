#!/usr/bin/env python
"""End-to-end on user data: edge list -> validate -> characterize ->
persist -> core graphs -> exact queries.

This example writes itself a small SNAP-style edge list, then treats it as
foreign data: structural validation, summary statistics (including the
degree-Gini power-law check), binary on-disk storage, persisted core
graphs, and exact 2Phase answers from the reloaded artifacts.

Run: ``python examples/custom_dataset.py``
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import estimate_effective_diameter, graph_summary
from repro.core import build_cg, two_phase
from repro.engines.frontier import evaluate_query
from repro.generators.rmat import rmat
from repro.graph import read_edge_list, validate_graph, write_edge_list
from repro.graph.weights import ligra_weights
from repro.io import load_core_graph, load_graph, save_core_graph, save_graph
from repro.queries.registry import get_spec


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Pretend this file arrived from elsewhere.
        source_graph = ligra_weights(rmat(11, 10, seed=171), seed=172)
        edge_file = tmp / "dataset.txt"
        write_edge_list(source_graph, edge_file)
        print(f"== ingest {edge_file.name} ==")

        g = read_edge_list(edge_file)
        report = validate_graph(g, require_positive_weights=True)
        print(f"   valid: {report.ok}  warnings: {report.warnings}")

        summary = graph_summary(g)
        diameter = estimate_effective_diameter(g, samples=5, seed=3)
        print(f"   |V|={summary.num_vertices:,} |E|={summary.num_edges:,} "
              f"gini={summary.degree_gini:.2f} "
              f"eff.diam~{diameter.effective_90:.0f}")
        if summary.degree_gini > 0.4:
            print("   degree skew says: core graphs should work well here")

        graph_file = save_graph(g, tmp / "dataset.npz")
        print(f"\n== binary storage ==\n   {edge_file.stat().st_size:,} B "
              f"text -> {graph_file.stat().st_size:,} B npz")
        assert sorted(load_graph(graph_file).iter_edges()) == \
            sorted(g.iter_edges())

        print("\n== persist core graphs, answer exactly from the reloads ==")
        rng = np.random.default_rng(4)
        sources = rng.choice(
            np.flatnonzero(g.out_degree() > 0), 3, replace=False
        )
        for name in ("SSSP", "SSWP", "REACH"):
            spec = get_spec(name)
            cg_file = save_core_graph(build_cg(g, spec, num_hubs=20),
                                      tmp / f"{name}.npz")
            cg = load_core_graph(cg_file)
            for s in sources:
                res = two_phase(g, cg, spec, int(s))
                assert np.array_equal(
                    res.values, evaluate_query(g, spec, int(s))
                )
            print(f"   {name:8s} {100 * cg.edge_fraction:5.1f}% of edges, "
                  f"{sources.size} sources exact")


if __name__ == "__main__":
    main()
