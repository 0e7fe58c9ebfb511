"""Paper-grounded run-quality counters.

The paper's headline claims are quantitative: the core graph holds about
10.7% of the edges (Table 4), the core phase leaves most vertices already
precise (Table 5), and the Theorem 1 certificates delete provably wasted
completion-phase work (Table 12). This module names those quantities once
and records them into the shared metrics registry / journal whenever
telemetry is enabled, so every traced run carries them into its report
(:mod:`repro.obs.report`):

* ``quality.cg_edge_fraction{algorithm=,query=}`` — |E_C| / |E| per build;
* ``quality.phase1_precise_fraction{query=}`` — share of vertices whose
  core-phase value already equals the full-graph result (the final 2Phase
  values *are* the ground truth, so this costs one compare, not a rerun);
* ``quality.certified_fraction{query=}`` — vertices holding a Theorem 1 /
  saturation certificate;
* ``quality.edges_skipped{query=}`` — completion-phase edges the
  certificates removed;
* ``quality.redundant_relaxations{query=}`` — relaxations whose written
  value was superseded (lost-CAS stand-in), both phases combined.

Callers guard on :func:`repro.obs.runtime.is_enabled`; nothing here is on
the disabled hot path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.obs import metrics as obs_metrics

#: Every quality metric lives under this prefix in the shared registry.
PREFIX = "quality."

#: Bare quality-metric names where a *larger* value is worse (a bigger
#: core graph, more wasted work). Everything else under the
#: prefix is higher-is-better (precision, certificates, skipped work).
LOWER_IS_BETTER = frozenset({
    "quality.cg_edge_fraction",
    "quality.cg_core_edges",
    "quality.cg_connectivity_edges",
    "quality.redundant_relaxations",
})

#: Bare names holding fractions in [0, 1]; reports show them as percentages.
FRACTIONS = frozenset({
    "quality.cg_edge_fraction",
    "quality.phase1_precise_fraction",
    "quality.certified_fraction",
})


def record_cg_build(
    *,
    algorithm: str,
    query: str,
    core_edges: int,
    source_edges: int,
    connectivity_edges: int = 0,
) -> float:
    """Record one core-graph identification; returns |E_C| / |E|."""
    fraction = core_edges / source_edges if source_edges else 0.0
    labels = {"algorithm": algorithm, "query": query}
    obs_metrics.gauge("quality.cg_edge_fraction", **labels).set(fraction)
    obs_metrics.gauge("quality.cg_core_edges", **labels).set(core_edges)
    obs_metrics.gauge(
        "quality.cg_connectivity_edges", **labels
    ).set(connectivity_edges)
    return fraction


def phase1_precise_fraction(
    spec: Any, phase1_vals: np.ndarray, final_vals: np.ndarray
) -> float:
    """Share of vertices the core phase already solved exactly.

    ``final_vals`` is the completion phase's output, which the 2Phase
    guarantee makes the full-graph ground truth.
    """
    n = int(final_vals.shape[0])
    if n == 0:
        return 1.0
    precise = spec.values_equal(phase1_vals, final_vals)
    return float(np.count_nonzero(precise)) / n


def record_two_phase(
    *,
    query: str,
    num_vertices: int,
    precise_fraction: Optional[float] = None,
    certified: int = 0,
    edges_skipped: int = 0,
    redundant_relaxations: int = 0,
) -> None:
    """Record the quality outcome of one 2Phase evaluation."""
    if precise_fraction is not None:
        obs_metrics.gauge(
            "quality.phase1_precise_fraction", query=query
        ).set(precise_fraction)
    obs_metrics.gauge("quality.certified_fraction", query=query).set(
        certified / num_vertices if num_vertices else 0.0
    )
    obs_metrics.gauge("quality.edges_skipped", query=query).set(edges_skipped)
    obs_metrics.gauge(
        "quality.redundant_relaxations", query=query
    ).set(redundant_relaxations)


def snapshot(registry: Optional[obs_metrics.MetricsRegistry] = None) -> Dict[str, Any]:
    """All ``quality.*`` metrics currently in the registry."""
    reg = registry if registry is not None else obs_metrics.REGISTRY
    return {
        key: value
        for key, value in reg.snapshot().items()
        if key.startswith(PREFIX)
    }


def bare_name(rendered: str) -> str:
    """``quality.cg_edge_fraction{query="SSSP"}`` -> the un-labeled name."""
    return rendered.split("{", 1)[0]


def _fmt(rendered: str, value: Any) -> str:
    if value is None:
        return "-"
    if bare_name(rendered) in FRACTIONS:
        return f"{100.0 * float(value):.1f}%"
    return f"{int(value):,}" if float(value) == int(value) else f"{value:.4g}"


def summary_line(registry: Optional[obs_metrics.MetricsRegistry] = None) -> str:
    """One-line digest of the quality counters, for the CLI summary.

    Returns an empty string when no quality metric was recorded, so
    untraced commands print nothing extra.
    """
    snap = snapshot(registry)
    if not snap:
        return ""
    short = {
        "quality.cg_edge_fraction": "cg_edges",
        "quality.phase1_precise_fraction": "phase1_precise",
        "quality.certified_fraction": "certified",
        "quality.edges_skipped": "skipped_edges",
        "quality.redundant_relaxations": "redundant_relax",
    }
    parts = []
    for key in sorted(snap):
        name = bare_name(key)
        if name not in short:
            continue
        parts.append(f"{short[name]}={_fmt(key, snap[key])}")
    return "quality: " + " ".join(parts) if parts else ""
