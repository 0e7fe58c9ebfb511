"""Unified telemetry: spans, metrics, and JSONL run journals.

The three primitives compose into one substrate every layer reports
through:

* :mod:`~repro.obs.spans` — nested wall-time timers (2Phase phases, hub
  queries, CG builds);
* :mod:`~repro.obs.metrics` — process-wide labeled counters, gauges and
  streaming histograms (``engine.edges_scanned{phase="twophase.core"}``);
* :mod:`~repro.obs.journal` — an append-only JSONL event stream per run,
  opened with a manifest (config, graph shape, seed, git SHA, versions).

On top of the substrate sit the analytics layers:

* :mod:`~repro.obs.quality` — paper-grounded quality counters (CG edge
  fraction, phase-1 precision, Theorem 1 certificates, redundant
  relaxations);
* :mod:`~repro.obs.report` — the one journal rollup: run summaries as
  terminal, self-contained HTML and JSON reports
  (``repro-coregraph obs report``).

Telemetry is disabled by default and every instrumentation point guards on
:func:`is_enabled`, so the off path costs one flag check. Turn it on for a
region with :func:`telemetry`::

    from repro import obs

    with obs.telemetry(trace_path="run.jsonl", config=cfg, seed=7):
        result = two_phase(g, cg, spec, source)
    print(obs.spans.render_summary())
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.obs import journal, metrics, quality, report, runtime, spans, trace
from repro.obs.journal import Journal, build_manifest, emit, read_events
from repro.obs.metrics import REGISTRY, counter, gauge
from repro.obs.runtime import disable, enable, is_enabled
from repro.obs.spans import span
from repro.obs.trace import TraceContext

__all__ = [
    "journal", "metrics", "quality", "report", "runtime", "spans", "trace",
    "Journal", "build_manifest", "emit", "read_events",
    "REGISTRY", "counter", "gauge", "TraceContext",
    "disable", "enable", "is_enabled", "span", "telemetry", "reset",
]


def reset() -> None:
    """Clear accumulated spans and metrics (journals are per-run files)."""
    spans.reset()
    REGISTRY.reset()


@contextmanager
def telemetry(
    trace_path: Optional[Union[str, Path]] = None,
    config: Any = None,
    graph: Any = None,
    seed: Optional[int] = None,
    fresh: bool = True,
    **manifest_extra: Any,
) -> Iterator[Optional[Journal]]:
    """Enable telemetry for a region, optionally journaling to a file.

    With ``trace_path`` the journal opens with a full manifest line and, on
    exit, receives a final ``metrics`` snapshot event before closing. With
    ``fresh`` (the default) previously accumulated spans/metrics are
    cleared so the region's summary stands alone. The prior enabled state
    is restored on exit, so regions nest safely.
    """
    if fresh:
        reset()
    active: Optional[Journal] = None
    if trace_path is not None:
        manifest = build_manifest(
            config=config,
            graph=graph,
            seed=seed,
            journal_path=str(trace_path),
            **manifest_extra,
        )
        active = Journal(trace_path, manifest)
        journal.activate(active)
    with runtime.enabled():
        try:
            yield active
        finally:
            if active is not None:
                active.emit({"type": "metrics", "metrics": REGISTRY.snapshot()})
                journal.deactivate()
                active.close()
