"""The registered telemetry vocabulary: metric, span, and event names.

Every name written into the shared metrics registry or a run journal is
declared here, once. The catalog serves three consumers:

* the static-analysis rule RC005 (:mod:`repro.checks.lint.rules`), which
  rejects any string-literal metric/span/event name not registered below —
  so a typo'd counter can never silently fork a time series;
* the runtime sanitizer's post-run audit
  (:func:`repro.checks.sanitize.probes.audit_metric_names`), which catches
  names constructed dynamically and therefore invisible to the linter;
* the run report (:mod:`repro.obs.report`) and the tests that pin work
  counts by name, which would stop seeing a series whose producer drifted.

Adding an instrumentation point means adding its name here. That
friction is the point: the name space is an interface, reviewed like
one.
"""

from __future__ import annotations

from typing import FrozenSet

#: Top-level prefixes a metric name may use. A name must both carry one of
#: these prefixes and be listed in :data:`METRIC_NAMES` — the prefix check
#: alone would let ``engine.itertions`` through.
NAMESPACES: FrozenSet[str] = frozenset({
    "engine",
    "twophase",
    "cg",
    "quality",
    "resilience",
    "graph",
    "checks",
    "serve",
    "obs",
    "proc",
    "evolve",
})

#: Every counter/gauge/histogram name the codebase may record.
METRIC_NAMES: FrozenSet[str] = frozenset({
    # Frontier (and system-model) push rounds.
    "engine.iterations",
    "engine.edges_scanned",
    "engine.updates",
    "engine.vertices_activated",
    "engine.edges_skipped",
    "engine.redundant_relaxations",
    # Scalar worklist engine.
    "engine.scalar.pops",
    "engine.scalar.edges_scanned",
    "engine.scalar.updates",
    "engine.scalar.redundant_relaxations",
    # 2Phase (Algorithm 3) outcomes.
    "twophase.impacted",
    "twophase.certified_precise",
    "twophase.degraded",
    # Paper-grounded quality counters (see repro.obs.quality).
    "quality.cg_edge_fraction",
    "quality.cg_core_edges",
    "quality.cg_connectivity_edges",
    "quality.phase1_precise_fraction",
    "quality.certified_fraction",
    "quality.edges_skipped",
    "quality.redundant_relaxations",
    # Resilience layer.
    "resilience.budget.exceeded",
    "resilience.faults.injected",
    # Static-analysis / sanitizer layer.
    "checks.sanitize.violations",
    # Query service (repro.serve): admission, shedding, breaker, workers.
    "serve.admitted",
    "serve.rejected",
    "serve.completed",
    "serve.degraded",
    "serve.shed",
    "serve.requeued",
    "serve.poisoned",
    "serve.breaker.trips",
    "serve.breaker.state",
    "serve.worker.restarts",
    "serve.latency_ms",
    # Live observability plane (repro.obs.live): streaming histograms,
    # exporter.
    "obs.live.span_ms",
    "obs.live.exporter.scrapes",
    "obs.live.exporter.errors",
    "serve.queue_wait_ms",
    # More series of the service's always-on tally: scraped live from the
    # exporter; the counters are folded into the registry at close().
    "serve.submitted",
    "serve.failed",
    "serve.workers_alive",
    "serve.lost",
    "serve.queue_depth",
    # Live-graph epoch maintenance (repro.evolve): mutation batches,
    # epoch swaps, background rebuilds, and staleness accounting.
    "evolve.epoch",
    "evolve.batches",
    "evolve.inserted_edges",
    "evolve.deleted_edges",
    "evolve.swaps",
    "evolve.rebuilds",
    "evolve.rebuild.failures",
    "evolve.stale_answers",
    "evolve.epoch_lag",
    "evolve.probe_precision",
    "evolve.pinned",
    # Durability plane (repro.evolve.wal / snapshot / recovery): append
    # latency, fsync amortization, segment churn, and replay accounting.
    "evolve.wal.appends",
    "evolve.wal.append_ms",
    "evolve.wal.fsyncs",
    "evolve.wal.segments",
    "evolve.wal.compacted_segments",
    "evolve.wal.aborts",
    "evolve.snapshot.saves",
    "evolve.snapshot.failures",
    "evolve.recovery.replayed",
    "evolve.recovery.skipped",
    "evolve.recovery.truncated_bytes",
    # Process runtime gauges sampled at scrape time (repro.obs.live.proc).
    "proc.rss_bytes",
    "proc.cpu_seconds",
    "proc.threads",
    "proc.gc.collections",
    "proc.gc.collected",
    "proc.gc.uncollectable",
    "proc.gc.pause_ms",
})

#: Every span name (see repro.obs.spans) a ``with span(...)`` may open.
SPAN_NAMES: FrozenSet[str] = frozenset({
    "twophase.core",
    "twophase.completion",
    "cg.build",
    "cg.hub_query",
    "cg.hub_traverse",
    "cg.connectivity",
    # Request lifecycle: the synthetic root span (submit -> resolve),
    # admission decision, queue wait, and worker execution.
    "serve.request",
    "serve.admit",
    "serve.queue.wait",
    "serve.execute",
    # Epoch maintenance: one batch application, one background rebuild.
    "evolve.apply",
    "evolve.rebuild",
})

#: Every ``name`` a ``{"type": "event", ...}`` journal line may carry.
EVENT_NAMES: FrozenSet[str] = frozenset({
    "graph.loaded",
    "cg.built",
    "twophase.result",
    "scalar.run",
    "budget.exceeded",
    "fault.injected",
    "sanitizer.violation",
    "serve.breaker",
    "serve.worker.restart",
    "serve.stats",
    "serve.explain",
    "evolve.batch",
    "evolve.swap",
    "evolve.rebuild",
    "evolve.stats",
    "evolve.snapshot",
    "evolve.recovery",
    "evolve.wal.stats",
})


def known_metric(name: str) -> bool:
    """Whether ``name`` (labels stripped) is a registered metric name."""
    return name.split("{", 1)[0] in METRIC_NAMES


def known_span(name: str) -> bool:
    return name in SPAN_NAMES


def known_event(name: str) -> bool:
    return name in EVENT_NAMES


def unknown_metric_names(rendered_keys) -> "set[str]":
    """The unregistered bare names among rendered registry snapshot keys."""
    return {
        key.split("{", 1)[0]
        for key in rendered_keys
        if not known_metric(key)
    }
