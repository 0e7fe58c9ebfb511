"""General core graph for unweighted queries (Algorithm 2).

Reachability-class queries (REACH, WCC) only need the BFS-tree structure of
the graph, so the core graph is built from forward and backward breadth-first
traversals of the hub vertices. The ``Qid`` labels implement the paper's
edge-sharing optimization: a vertex first discovered by query ``s`` keeps
``Qid = s``; when a later query ``s'`` reaches it, the connecting edge is
added but the traversal does not continue past it — the earlier query's
subtree is reused, keeping the core graph small.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.core.connectivity import add_connectivity_edges
from repro.core.coregraph import CoreGraph
from repro.core.identify import DEFAULT_NUM_HUBS
from repro.engines.frontier import ragged_gather
from repro.graph.csr import Graph
from repro.graph.degree import top_degree_vertices
from repro.graph.transform import edge_subgraph
from repro.obs import journal as obs_journal
from repro.obs import quality as obs_quality
from repro.obs import runtime as obs_runtime
from repro.obs.spans import span
from repro.queries.base import QuerySpec
from repro.queries.specs import REACH


def _qid_traverse(
    graph: Graph, source: int, s_id: int, qid: np.ndarray, edge_mask: np.ndarray
) -> None:
    """One level-synchronous traversal of Algorithm 2's ``Traverse``.

    Marks added edges in ``edge_mask`` (indices into ``graph``'s CSR arrays)
    and updates ``qid`` in place. Faithful to the FIFO algorithm: an edge
    ``u -> v`` is added whenever ``Qid(v) != s``; ``v`` is pushed (and
    labelled) only when ``Qid(v) == 0``, and only the first edge reaching an
    unlabelled ``v`` within a level is added.
    """
    if qid[source] == 0:
        qid[source] = s_id
    frontier = np.asarray([source], dtype=np.int64)
    while frontier.size:
        edge_idx, _ = ragged_gather(graph.offsets, frontier)
        if edge_idx.size == 0:
            break
        v = graph.dst[edge_idx]
        qv = qid[v]
        foreign = (qv != s_id) & (qv != 0)
        edge_mask[edge_idx[foreign]] = True
        unlabelled = qv == 0
        v_new = v[unlabelled]
        if v_new.size:
            uniq_v, first_pos = np.unique(v_new, return_index=True)
            edge_mask[edge_idx[unlabelled][first_pos]] = True
            qid[uniq_v] = s_id
            frontier = uniq_v
        else:
            frontier = np.empty(0, dtype=np.int64)


def build_unweighted_core_graph(
    g: Graph,
    num_hubs: int = DEFAULT_NUM_HUBS,
    hubs: Optional[Sequence[int]] = None,
    connectivity: bool = True,
    track_growth: bool = False,
    spec: QuerySpec = REACH,
) -> CoreGraph:
    """Algorithm 2: the general core graph serving REACH and WCC.

    Forward traversals run on ``g`` and mark edges directly; backward
    traversals run on ``G^T`` and their edges are mapped back to the forward
    orientation (``E_C = E_f ∪ Reverse(E_b)``).
    """
    if hubs is None:
        hub_arr = top_degree_vertices(g, num_hubs)
    else:
        hub_arr = np.asarray(list(hubs), dtype=np.int64)
    grev = g.reverse()
    perm = g.reverse_index()

    fw_mask = np.zeros(g.num_edges, dtype=bool)
    bw_mask = np.zeros(g.num_edges, dtype=bool)
    fw_qid = np.zeros(g.num_vertices, dtype=np.int64)
    bw_qid = np.zeros(g.num_vertices, dtype=np.int64)
    growth = [] if track_growth else None

    build_span = span("cg.build", algorithm="unweighted", query=spec.name,
                      num_hubs=len(hub_arr))
    with build_span:
        for i, h in enumerate(hub_arr):
            s_id = i + 1  # 0 is the "unvisited" label
            with span("cg.hub_traverse", hub=int(h)):
                _qid_traverse(g, int(h), s_id, fw_qid, fw_mask)
                _qid_traverse(grev, int(h), s_id, bw_qid, bw_mask)
            if growth is not None:
                combined = fw_mask.copy()
                combined[perm[np.flatnonzero(bw_mask)]] = True
                growth.append(int(combined.sum()))

        mask = fw_mask
        mask[perm[np.flatnonzero(bw_mask)]] = True

        connectivity_added = 0
        if connectivity:
            with span("cg.connectivity"):
                connectivity_added = add_connectivity_edges(g, mask, spec)

    if obs_runtime._enabled:
        core_edges = int(mask.sum())
        fraction = obs_quality.record_cg_build(
            algorithm="unweighted",
            query=spec.name,
            core_edges=core_edges,
            source_edges=int(g.num_edges),
            connectivity_edges=connectivity_added,
        )
        obs_journal.emit(
            {
                "type": "event",
                "name": "cg.built",
                "algorithm": "unweighted",
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
        hub_data=[],
        growth=None if growth is None else np.asarray(growth, dtype=np.int64),
        forward_selection_counts=None,
        connectivity_edges=connectivity_added,
        source_num_edges=g.num_edges,
    )
    if san_runtime._enabled:
        san_probes.check_cg_containment(g, cg, "cg.build")
    return cg
