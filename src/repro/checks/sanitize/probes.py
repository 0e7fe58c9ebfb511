"""Runtime invariant probes.

Each probe validates one paper (or repo) invariant against live engine
state and calls :func:`repro.checks.sanitize.runtime.report` on failure.
Callers guard every call on ``runtime._enabled`` — the probes themselves
assume they should run.

The probes are deliberately self-contained recomputations: the
monotonicity watchdog re-derives the selection direction from the spec,
and the certificate audit re-checks sampled fixed-point conditions
through the *reverse* graph. Sharing the engine's own arithmetic would
let a bug hide in both places at once.

Everything here is deterministic (stride sampling, no RNG, no clock), so
a sanitized run replays exactly: the same input gives the same values
and the same per-round counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checks.sanitize.runtime import report
from repro.graph.csr import Graph
from repro.graph.transform import edge_subgraph
from repro.queries.base import QuerySpec, Selection

#: Cap on vertices re-checked by the certificate fixed-point audit.
CERTIFICATE_SAMPLES = 256


# ---------------------------------------------------------------------------
# Structural probes
# ---------------------------------------------------------------------------


def check_csr(g: Graph, site: str) -> None:
    """CSR well-formedness: offsets monotone and consistent, dst in range."""
    n = g.num_vertices
    offsets, dst = g.offsets, g.dst
    if offsets.size != n + 1:
        report("csr", site, f"offsets has {offsets.size} entries for "
               f"{n} vertices (want n+1)")
    if int(offsets[0]) != 0:
        report("csr", site, f"offsets[0] = {int(offsets[0])}, want 0")
    if int(offsets[-1]) != dst.size:
        report("csr", site, f"offsets[-1] = {int(offsets[-1])} but there "
               f"are {dst.size} edges")
    if offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)):
        i = int(np.flatnonzero(np.diff(offsets) < 0)[0])
        report("csr", site, f"offsets decrease at vertex {i}")
    if dst.size and (int(dst.min()) < 0 or int(dst.max()) >= n):
        bad = dst[(dst < 0) | (dst >= n)][0]
        report("csr", site, f"edge destination {int(bad)} outside [0, {n})")
    if g.weights is not None:
        if g.weights.size != dst.size:
            report("csr", site, f"{g.weights.size} weights for "
                   f"{dst.size} edges")
        if not bool(np.all(np.isfinite(g.weights))):
            report("csr", site, "non-finite edge weight")


def check_frontier(frontier: np.ndarray, num_vertices: int, site: str) -> None:
    """Frontier hygiene: integer, in range, duplicate-free."""
    if frontier.size == 0:
        return
    if not np.issubdtype(frontier.dtype, np.integer):
        report("frontier", site, f"frontier dtype {frontier.dtype} is not "
               "integral")
    lo, hi = int(frontier.min()), int(frontier.max())
    if lo < 0 or hi >= num_vertices:
        report("frontier", site, f"frontier vertex out of range "
               f"(min={lo}, max={hi}, n={num_vertices})")
    uniq = np.unique(frontier).size
    if uniq != frontier.size:
        report("frontier", site, f"frontier holds {frontier.size - uniq} "
               "duplicate vertices (double-counted edge scans)")


def check_symmetrized(g: Graph, sym: Graph, site: str) -> None:
    """A symmetrized view must double the edges over the same vertex set."""
    if sym.num_vertices != g.num_vertices:
        report("symmetrize", site, f"symmetrized view has "
               f"{sym.num_vertices} vertices, source has {g.num_vertices}")
    if sym.num_edges != 2 * g.num_edges:
        report("symmetrize", site, f"symmetrized view has {sym.num_edges} "
               f"edges, want 2x{g.num_edges}")
    check_csr(sym, site)


# ---------------------------------------------------------------------------
# Value-propagation probes
# ---------------------------------------------------------------------------


def monotone_watchdog(
    spec: QuerySpec, old: np.ndarray, new: np.ndarray, site: str
) -> None:
    """Accepted updates must move in the selection direction (§2.1).

    For a MIN-selection query no vertex value may increase; for MAX none
    may decrease. A violation means the reduce step (or the spec's
    comparator) is broken — every downstream guarantee (Algorithm 3's
    convergence, Theorem 1's bounds) assumes this monotone lattice walk.

    The direction is re-derived from the :class:`Selection` enum rather
    than through ``spec.better``, so a broken comparator cannot vouch for
    its own writes.
    """
    old = np.asarray(old).ravel()
    new = np.asarray(new).ravel()
    if spec.selection is Selection.MIN:
        wrong = new > old
    else:
        wrong = new < old
    wrong &= ~spec.values_equal(old, new)
    if bool(np.any(wrong)):
        i = int(np.flatnonzero(wrong)[0])
        report(
            "monotone_watchdog", site,
            f"{int(np.count_nonzero(wrong))} value(s) moved against the "
            f"{spec.selection.name} selection direction "
            f"(e.g. {float(old[i])!r} -> {float(new[i])!r})",
            count=int(np.count_nonzero(wrong)),
        )


def check_reduce_settled(
    spec: QuerySpec, cand: np.ndarray, after: np.ndarray, site: str
) -> None:
    """After a CASMIN/CASMAX reduce no candidate may beat its destination.

    ``after`` is the destination values read back after the reduce,
    parallel to ``cand``. A lattice reduce keeps the best candidate per
    destination, so this holds exactly; a violation means a better
    candidate was overwritten (e.g. last-write-wins on duplicate
    destinations), which the monotone watchdog cannot see when every
    candidate improved on the old value.
    """
    if spec.selection is Selection.MIN:
        wrong = cand < after
    else:
        wrong = cand > after
    if bool(np.any(wrong)):
        i = int(np.flatnonzero(wrong)[0])
        report(
            "reduce_settled", site,
            f"{int(np.count_nonzero(wrong))} candidate(s) still beat their "
            f"destination after the {spec.selection.name} reduce "
            f"(e.g. {float(cand[i])!r} vs {float(after[i])!r})",
            count=int(np.count_nonzero(wrong)),
        )


def check_cg_containment(g: Graph, cg, site: str) -> None:
    """Every core-graph edge must exist in the source graph (Algorithm 1).

    The CG is a pure edge *subset*: same vertex set, each (u, v, w) taken
    verbatim from G. An invented or reweighted edge would let the core
    phase compute values no real path achieves, silently voiding the
    paper's precision claims (§3.1). The edges the CG's ``edge_mask``
    marks in G must be the CG's edges as a ``(u, v, w)`` multiset: a mask
    with the right count on the wrong edges addresses another CG.
    """
    cgg: Graph = cg.graph
    if cgg.num_vertices != g.num_vertices:
        report("cg_containment", site, f"CG has {cgg.num_vertices} "
               f"vertices, source graph has {g.num_vertices}")
    mask = cg.edge_mask
    if mask.size != g.num_edges:
        report("cg_containment", site, f"edge_mask covers {mask.size} "
               f"edges but the source graph holds {g.num_edges}")
    marked = int(np.count_nonzero(mask))
    if marked != cgg.num_edges:
        report("cg_containment", site, f"edge_mask marks {marked} edges "
               f"but the CG holds {cgg.num_edges}")
    if not np.array_equal(np.sort(_edge_rows(edge_subgraph(g, mask))),
                          np.sort(_edge_rows(cgg))):
        report("cg_containment", site, "the edges edge_mask marks in the "
               "source graph are not the CG's edges (wrong endpoint, "
               "weight or position)")


def _edge_rows(g: Graph) -> np.ndarray:
    """One structured scalar per edge: (src, dst, weight) — sortable."""
    src = np.repeat(
        np.arange(g.num_vertices, dtype=np.int64), np.diff(g.offsets)
    )
    w = g.weights if g.weights is not None else np.zeros(g.num_edges)
    rows = np.empty(
        g.num_edges, dtype=[("u", "i8"), ("v", "i8"), ("w", "f8")]
    )
    rows["u"], rows["v"], rows["w"] = src, g.dst, w
    return rows


def audit_certified_fixed_point(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    certified: Optional[np.ndarray],
    site: str,
    max_samples: int = CERTIFICATE_SAMPLES,
) -> None:
    """Cross-audit Theorem 1 / saturation certificates on sampled vertices.

    A certified vertex had its in-edges removed from the completion phase
    (Reduced(E)), so nothing downstream would ever notice a wrong
    certificate — this probe is the only check. A certificate is sound
    iff the vertex already sits at its fixed point: no in-edge (u, w) may
    offer ``propagate(vals[u], w)`` strictly better than ``vals[v]``.

    Sampling is a deterministic stride over the certified set (capped at
    ``max_samples``), keeping the probe O(sample * max_in_degree) and
    replay-stable.
    """
    if certified is None:
        return
    idx = np.flatnonzero(certified)
    if idx.size == 0:
        return
    if idx.size > max_samples:
        stride = idx.size // max_samples
        idx = idx[::stride][:max_samples]
    rev = g.reverse()
    weights = spec.weight_transform(g.edge_weights())
    weights_rev = weights[g.reverse_index()]
    for v in idx:
        lo, hi = int(rev.offsets[v]), int(rev.offsets[v + 1])
        if lo == hi:
            continue
        u = rev.dst[lo:hi]
        cand = spec.propagate(vals[u], weights_rev[lo:hi])
        beats = spec.better(cand, vals[v]) & ~spec.values_equal(cand, vals[v])
        if bool(np.any(beats)):
            j = int(np.flatnonzero(beats)[0])
            report(
                "certificate_audit", site,
                f"vertex {int(v)} certified precise at "
                f"{float(vals[v])!r} but in-neighbor {int(u[j])} offers "
                f"{float(cand[j])!r}",
                vertex=int(v),
            )


def check_epoch_integrity(epoch, site: str) -> None:
    """A pinned epoch must be internally consistent — never torn.

    Torn means the graph and the core-graph proxy come from different
    versions: the fingerprint no longer matches the graph content, the
    proxy's edge mask addresses a different edge array, or the proxy
    contains edges the graph lost. Any of these would silently void the
    2Phase exactness argument for answers computed on the pin.
    """
    g: Graph = epoch.graph
    actual = g.fingerprint()
    if actual != epoch.fingerprint:
        report("epoch_integrity", site,
               f"epoch {epoch.number} fingerprint {epoch.fingerprint[:12]} "
               f"does not match its graph content ({actual[:12]})")
    mask = epoch.proxy.edge_mask
    if mask.size != g.num_edges:
        report("epoch_integrity", site,
               f"epoch {epoch.number} proxy mask covers {mask.size} edges "
               f"but the graph holds {g.num_edges} — graph and CG are from "
               "different versions")
    check_cg_containment(g, epoch.proxy, site)


# ---------------------------------------------------------------------------
# Telemetry-name audit
# ---------------------------------------------------------------------------


def audit_metric_names(site: str) -> None:
    """Every live registry name must be in the registered catalog.

    RC005 catches string literals; this catches names built at runtime
    (f-strings, concatenation) that the linter cannot see.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.namespaces import unknown_metric_names

    unknown = unknown_metric_names(REGISTRY.snapshot().keys())
    if unknown:
        report(
            "metric_names", site,
            "unregistered metric name(s) in the live registry: "
            + ", ".join(sorted(unknown)),
            names=sorted(unknown),
        )
