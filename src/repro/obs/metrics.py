"""Process-wide registry of labeled counters, gauges, and histograms.

Metric identity is ``name`` plus a frozen label set, rendered Prometheus
style: ``engine.edges_scanned{phase="core"}``. Counters accumulate, gauges
hold the last value, streaming histograms keep log buckets with instant
percentiles (:mod:`repro.obs.live.hist`). Instrumented code
fetches the metric object once per run and updates it by the run's
totals, so the registry lookup is off the hot path.

The registry is always functional — whether anything feeds it is decided
by the :mod:`repro.obs.runtime` guard at the instrumentation points.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.live.hist import StreamingHistogram

LabelSet = Tuple[Tuple[str, str], ...]

MetricObject = Union["Counter", "Gauge", StreamingHistogram]


def _label_key(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items() if v is not None))


def format_metric(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically accumulating value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-set value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Count/sum/min/max of observed values (the per-span rollup)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Thread-safe name+labels -> metric map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._stream_hists: Dict[Tuple[str, LabelSet], StreamingHistogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            try:
                return self._counters[key]
            except KeyError:
                metric = self._counters[key] = Counter()
                return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            try:
                return self._gauges[key]
            except KeyError:
                metric = self._gauges[key] = Gauge()
                return metric

    def stream_hist(self, name: str, **labels: object) -> StreamingHistogram:
        """A mergeable log-bucketed histogram with instant percentiles.

        Use for latency-style distributions that need p50/p95/p99 at any
        moment (service latency, queue wait, per-span durations).
        """
        key = (name, _label_key(labels))
        with self._lock:
            try:
                return self._stream_hists[key]
            except KeyError:
                metric = self._stream_hists[key] = StreamingHistogram()
                return metric

    def aggregate(self, name: str) -> int:
        """Sum of a counter across all of its label sets."""
        with self._lock:
            return sum(
                c.value for (n, _), c in self._counters.items() if n == name
            )

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every metric, keyed by rendered name."""
        out: Dict[str, object] = {}
        with self._lock:
            for (name, labels), c in self._counters.items():
                out[format_metric(name, labels)] = c.value
            for (name, labels), g in self._gauges.items():
                out[format_metric(name, labels)] = g.value
            stream_hists = list(self._stream_hists.items())
        # Streaming histograms snapshot under their own lock (their
        # to_dict walks buckets), so render them outside the registry's.
        for (name, labels), sh in stream_hists:
            out[format_metric(name, labels)] = sh.to_dict()
        return out

    def collect(self) -> List[Tuple[str, str, LabelSet, MetricObject]]:
        """Every live metric as ``(kind, name, labels, metric)`` rows.

        ``kind`` is one of ``counter``/``gauge``/``stream_hist``. The exporter renders from this, so it sees the
        metric objects themselves rather than a JSON projection.
        """
        with self._lock:
            rows: List[Tuple[str, str, LabelSet, MetricObject]] = []
            for (name, labels), c in self._counters.items():
                rows.append(("counter", name, labels, c))
            for (name, labels), g in self._gauges.items():
                rows.append(("gauge", name, labels, g))
            for (name, labels), sh in self._stream_hists.items():
                rows.append(("stream_hist", name, labels, sh))
        return rows

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._stream_hists.clear()

    def render_table(self) -> str:
        """Aligned text table of the snapshot, sorted by metric name."""
        snap = self.snapshot()
        if not snap:
            return "no metrics recorded"
        width = max(len(k) for k in snap)
        lines = []
        for key in sorted(snap):
            value = snap[key]
            if isinstance(value, dict):
                value = (f"count={value['count']} sum={value['sum']:.6g} "
                         f"mean={value['mean']:.6g}")
            lines.append(f"{key:{width}s}  {value}")
        return "\n".join(lines)


#: The process-wide registry every instrumentation point shares.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: object) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def stream_hist(name: str, **labels: object) -> StreamingHistogram:
    return REGISTRY.stream_hist(name, **labels)


def names(snapshot_keys: Iterable[str]) -> set:
    """Bare metric names (labels stripped) of rendered snapshot keys."""
    return {k.split("{", 1)[0] for k in snapshot_keys}
