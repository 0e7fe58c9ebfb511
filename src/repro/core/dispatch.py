"""Dispatch: which identification algorithm builds the CG for a query kind.

The paper builds *specialized* core graphs (Algorithm 1) for the four
weighted queries and one *general* core graph (Algorithm 2) shared by REACH
and WCC.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.coregraph import CoreGraph
from repro.core.identify import DEFAULT_NUM_HUBS, build_core_graph
from repro.core.unweighted import build_unweighted_core_graph
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.queries.registry import cg_spec_for


def build_cg(
    g: Graph,
    spec: QuerySpec,
    num_hubs: int = DEFAULT_NUM_HUBS,
    hubs: Optional[Sequence[int]] = None,
    connectivity: bool = True,
    **kwargs,
) -> CoreGraph:
    """Build the core graph serving ``spec`` using the paper's recipe.

    Weighted queries get a specialized Algorithm 1 CG; REACH and WCC share
    the general Algorithm 2 CG (WCC resolves to REACH's).
    """
    target = cg_spec_for(spec)
    if target.identification == "algorithm1":
        return build_core_graph(
            g, target, num_hubs=num_hubs, hubs=hubs,
            connectivity=connectivity, **kwargs,
        )
    track_growth = kwargs.pop("track_growth", False)
    kwargs.pop("keep_hub_values", None)  # Algorithm 2 keeps no hub values
    if kwargs:
        raise TypeError(f"unsupported options for Algorithm 2: {sorted(kwargs)}")
    return build_unweighted_core_graph(
        g, num_hubs=num_hubs, hubs=hubs,
        connectivity=connectivity, track_growth=track_growth, spec=target,
    )
