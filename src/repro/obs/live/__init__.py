"""Real-time observability: streaming histograms and a scrape exporter.

``repro.obs`` (PRs 1-2) made runs analyzable *after* they end — journals,
reports, regression gates. This package makes a running process observable
*while it executes*, with two pillars:

* :mod:`~repro.obs.live.hist` — mergeable log-bucketed streaming
  histograms with constant memory and instant percentiles, registered in
  :data:`repro.obs.metrics.REGISTRY` next to counters and gauges (every
  :func:`repro.obs.span` additionally feeds one, so per-phase engine time
  and per-hub CG-build time get full latency distributions for free);
* :mod:`~repro.obs.live.prom` + :mod:`~repro.obs.live.server` — Prometheus
  text-exposition rendering of the whole registry plus process runtime
  gauges (RSS, GC, threads), served by a stdlib HTTP thread on
  ``/metrics``, ``/healthz``, and ``/statz`` (JSON).

Only :mod:`~repro.obs.live.hist` is imported eagerly (the metrics registry
depends on it); import the exporter explicitly::

    from repro.obs.live import prom, server
"""

from __future__ import annotations

from repro.obs.live import hist
from repro.obs.live.hist import HistogramSnapshot, StreamingHistogram

__all__ = ["hist", "HistogramSnapshot", "StreamingHistogram"]
