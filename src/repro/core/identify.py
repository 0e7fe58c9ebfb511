"""Core Graph identification for weighted queries (Algorithm 1).

For each of the highest-degree vertices ``h`` the builder evaluates a forward
query ``Q(h)`` on ``G`` and a backward query on ``G^T``, then marks every
edge witnessed to lie on a solution path: ``u`` reached and
``Val(u) ⊕ w(u, v) == Val(v)``. Such edges have non-zero betweenness
centrality (§2.1). A final pass adds one out-edge for every vertex that
would otherwise have none (:mod:`repro.core.connectivity`).

Hub ``i``'s queries run 2Phase (Algorithm 3) with the CG of the hubs before
it as the proxy. 2Phase is exact for any subgraph proxy, so the values, and
with them the CG, are those of a plain full-graph evaluation; a hub query
reaches nearly every vertex, so its Completion Phase runs as dense sweeps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.core.connectivity import add_connectivity_edges
from repro.core.coregraph import CoreGraph, HubData
from repro.core.twophase import phase2_frontier, run_completion
from repro.engines.frontier import run_push
from repro.graph.csr import Graph
from repro.graph.degree import top_degree_vertices
from repro.graph.transform import edge_subgraph, with_weights
from repro.obs import journal as obs_journal
from repro.obs import quality as obs_quality
from repro.obs import runtime as obs_runtime
from repro.obs.spans import span
from repro.queries.base import QuerySpec

#: The paper fixes the number of hub queries at 20 after observing that
#: additional queries contribute very few new edges (Fig. 3).
DEFAULT_NUM_HUBS = 20


def solution_edge_mask(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    weights: Optional[np.ndarray] = None,
    edge_sources: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mask of ``g``'s edges on some solution path of the converged ``vals``.

    ``weights`` must already be transformed by ``spec.weight_transform``
    when provided; ``edge_sources`` may be passed to amortize the CSR row
    expansion across calls.
    """
    if weights is None:
        weights = spec.weight_transform(g.edge_weights())
    if edge_sources is None:
        edge_sources = g.edge_sources()
    return spec.on_solution_path(vals[edge_sources], weights, vals[g.dst])


def _hub_values(
    g: Graph,
    spec: QuerySpec,
    hub: int,
    weights: np.ndarray,
    proxy_mask: Optional[np.ndarray],
) -> np.ndarray:
    """``Q(hub)`` on ``g`` by 2Phase over ``edge_subgraph(g, proxy_mask)``.

    ``weights`` are ``g``'s transformed edge weights. With no proxy the
    Completion Phase alone runs, from the hub. The proxy lives only for
    this call.
    """
    n = g.num_vertices
    vals = spec.initial_values(n, hub)
    if proxy_mask is not None:
        # The proxy carries the transformed weights, which its run is
        # then told not to transform again.
        proxy = edge_subgraph(with_weights(g, weights), proxy_mask)
        run_push(
            proxy, spec, vals, spec.initial_frontier(n, hub),
            weights=proxy.weights,
        )
    return run_completion(
        g, spec, vals, phase2_frontier(spec, vals), weights=weights
    )


def build_core_graph(
    g: Graph,
    spec: QuerySpec,
    num_hubs: int = DEFAULT_NUM_HUBS,
    hubs: Optional[Sequence[int]] = None,
    connectivity: bool = True,
    keep_hub_values: bool = True,
    track_growth: bool = False,
    track_selection: bool = False,
    include_backward: bool = True,
) -> CoreGraph:
    """Algorithm 1: find the core graph of ``g`` for query kind ``spec``.

    Parameters
    ----------
    num_hubs:
        How many highest-degree vertices to query (paper default: 20).
    hubs:
        Explicit hub vertices, overriding degree-based selection.
    connectivity:
        Run the additional-connectivity pass (Algorithm 1 lines 8–12).
    keep_hub_values:
        Retain per-hub full-graph query values for Theorem 1 certificates.
    track_growth:
        Record the cumulative centrality-edge count after each hub (Fig. 3).
    track_selection:
        Record, per edge, how many forward queries selected it (Table 1).
    include_backward:
        Also run the backward (transpose-graph) query per hub, as
        Algorithm 1 does. Disabling it is the ablation of the paper's
        "forward and backward queries ... preserve pairwise reachability"
        argument; note the Theorem 1 certificates need backward values.
    """
    if spec.multi_source:
        raise ValueError(
            f"{spec.name} has no per-source query; build the general core "
            "graph with build_unweighted_core_graph instead"
        )
    if hubs is None:
        hub_arr = top_degree_vertices(g, num_hubs)
    else:
        hub_arr = np.asarray(list(hubs), dtype=np.int64)
    grev = g.reverse()
    perm = g.reverse_index()

    fw_weights = spec.weight_transform(g.edge_weights())
    bw_weights = spec.weight_transform(grev.edge_weights())
    fw_sources = g.edge_sources()
    bw_sources = grev.edge_sources()

    mask = np.zeros(g.num_edges, dtype=bool)
    growth = [] if track_growth else None
    selection = np.zeros(g.num_edges, dtype=np.int32) if track_selection else None
    hub_data = []

    build_span = span("cg.build", algorithm="weighted", query=spec.name,
                      num_hubs=len(hub_arr))
    with build_span:
        for h in hub_arr:
            h = int(h)
            # Both queries use the CG of the hubs before this one.
            proxy_edges = int(np.count_nonzero(mask))
            proxy_mask = mask if proxy_edges else None
            with span("cg.hub_query", hub=h, query=spec.name,
                      proxy_edges=proxy_edges):
                fvals = _hub_values(g, spec, h, fw_weights, proxy_mask)
                bvals = None
                if include_backward:
                    bvals = _hub_values(
                        grev, spec, h, bw_weights,
                        None if proxy_mask is None else proxy_mask[perm],
                    )
                fmask = spec.on_solution_path(
                    fvals[fw_sources], fw_weights, fvals[g.dst]
                )
                mask |= fmask
                if selection is not None:
                    selection += fmask
                if bvals is not None:
                    bmask = spec.on_solution_path(
                        bvals[bw_sources], bw_weights, bvals[grev.dst]
                    )
                    mask[perm[np.flatnonzero(bmask)]] = True
            if keep_hub_values and bvals is not None:
                hub_data.append(HubData(hub=h, forward=fvals, backward=bvals))
            if growth is not None:
                growth.append(int(mask.sum()))

        connectivity_added = 0
        if connectivity:
            with span("cg.connectivity"):
                connectivity_added = add_connectivity_edges(g, mask, spec)

    if obs_runtime._enabled:
        core_edges = int(mask.sum())
        fraction = obs_quality.record_cg_build(
            algorithm="weighted",
            query=spec.name,
            core_edges=core_edges,
            source_edges=int(g.num_edges),
            connectivity_edges=connectivity_added,
        )
        obs_journal.emit(
            {
                "type": "event",
                "name": "cg.built",
                "algorithm": "weighted",
                "query": spec.name,
                "num_hubs": len(hub_arr),
                "core_edges": core_edges,
                "source_edges": int(g.num_edges),
                "edge_fraction": fraction,
                "connectivity_edges": connectivity_added,
            }
        )

    cg = CoreGraph(
        graph=edge_subgraph(g, mask),
        edge_mask=mask,
        spec_name=spec.name,
        hubs=hub_arr,
        hub_data=hub_data,
        growth=None if growth is None else np.asarray(growth, dtype=np.int64),
        forward_selection_counts=selection,
        connectivity_edges=connectivity_added,
        source_num_edges=g.num_edges,
    )
    if san_runtime._enabled:
        san_probes.check_cg_containment(g, cg, "cg.build")
    return cg
