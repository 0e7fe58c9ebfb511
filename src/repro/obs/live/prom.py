"""Prometheus text-exposition rendering of metric rows.

The renderer consumes ``(kind, name, labels, metric)`` rows — the shape
:meth:`repro.obs.metrics.MetricsRegistry.collect` produces — and emits
`text exposition format`__: one ``# TYPE`` line per family, counters with
a ``_total`` suffix, histograms as cumulative ``_bucket{le=...}`` series
plus ``_sum``/``_count``. Dotted repro metric names sanitize to
underscore form (``serve.latency_ms`` -> ``serve_latency_ms``).

Several sources can contribute rows (the registry, process runtime
gauges, the service's always-on tally); when two sources emit the same
family the first source wins — later rows that collide on family *kind*
or exact ``(family, labels)`` series are dropped rather than producing
the duplicate series Prometheus scrapers reject.

__ https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.live.hist import HistogramSnapshot, StreamingHistogram
from repro.obs.metrics import LabelSet

#: One exportable series: kind ("counter"/"gauge"/"stream_hist"), dotted
#: name, frozen labels, and either a live metric object or a plain number
#: (a streaming histogram or its snapshot for "stream_hist").
Row = Tuple[str, str, LabelSet, object]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_DIGIT = re.compile(r"^[0-9]")


def sanitize(name: str) -> str:
    """A dotted repro metric name as a legal Prometheus metric name."""
    out = _INVALID_CHARS.sub("_", name)
    if _LEADING_DIGIT.match(out):
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """A sample value in exposition syntax (+Inf/-Inf/NaN spelled out)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.10g}"


def _render_labels(labels: Iterable[Tuple[str, str]]) -> str:
    pairs = [f'{k}="{_escape_label(str(v))}"' for k, v in labels]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _scalar(metric: object) -> Optional[float]:
    """The numeric value of a counter/gauge row (object or plain number)."""
    value = getattr(metric, "value", metric)
    if value is None:
        return None
    return float(value)  # type: ignore[arg-type]


def _hist_snapshot(metric: object) -> HistogramSnapshot:
    if isinstance(metric, StreamingHistogram):
        return metric.snapshot()
    assert isinstance(metric, HistogramSnapshot), metric
    return metric


class _Family:
    """One output family: a TYPE line plus its accumulated series lines."""

    __slots__ = ("name", "kind", "lines", "series")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.lines: List[str] = []
        self.series: set = set()


def render(rows: Iterable[Row]) -> str:
    """The full exposition document for ``rows`` (trailing newline)."""
    families: Dict[str, _Family] = {}
    order: List[str] = []

    def family(name: str, kind: str) -> Optional[_Family]:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = _Family(name, kind)
            order.append(name)
            return fam
        if fam.kind != kind:
            return None  # kind collision: first source wins
        return fam

    for kind, name, labels, metric in rows:
        base = sanitize(name)
        if kind == "counter":
            fam = family(base + "_total", "counter")
            if fam is None or labels in fam.series:
                continue
            fam.series.add(labels)
            value = _scalar(metric)
            if value is not None:
                fam.lines.append(
                    f"{fam.name}{_render_labels(labels)} "
                    f"{format_value(value)}"
                )
        elif kind == "gauge":
            fam = family(base, "gauge")
            if fam is None or labels in fam.series:
                continue
            fam.series.add(labels)
            value = _scalar(metric)
            if value is not None:
                fam.lines.append(
                    f"{fam.name}{_render_labels(labels)} "
                    f"{format_value(value)}"
                )
        elif kind == "stream_hist":
            fam = family(base, "histogram")
            if fam is None or labels in fam.series:
                continue
            fam.series.add(labels)
            fam.lines.extend(_histogram_lines(base, labels, metric))
    out: List[str] = []
    for name in sorted(order):
        fam = families[name]
        if not fam.lines:
            continue
        out.append(f"# TYPE {fam.name} {fam.kind}")
        out.extend(fam.lines)
    return "\n".join(out) + "\n" if out else "\n"


def _histogram_lines(
    base: str, labels: LabelSet, metric: object
) -> List[str]:
    """``_bucket``/``_sum``/``_count`` lines for one histogram series."""
    lines: List[str] = []
    snap = _hist_snapshot(metric)
    exemplars = snap.exemplar_map()
    for bound, cumulative in snap.cumulative_buckets():
        le = tuple(labels) + (("le", format_value(bound)),)
        line = f"{base}_bucket{_render_labels(le)} {cumulative}"
        if exemplars:
            ex = _bucket_exemplar(snap.scheme, exemplars, bound)
            if ex is not None:
                tid, val = ex
                # OpenMetrics-style exemplar suffix: jump from a latency
                # bucket to a trace id that ``obs trace`` renders from
                # the run's journal.
                line += (
                    f' # {{trace_id="{_escape_label(tid)}"}} '
                    f"{format_value(val)}"
                )
        lines.append(line)
    rendered = _render_labels(labels)
    lines.append(f"{base}_sum{rendered} {format_value(snap.total)}")
    lines.append(f"{base}_count{rendered} {snap.count}")
    return lines


def _bucket_exemplar(
    scheme: object,
    exemplars: Dict[int, Tuple[str, float]],
    bound: float,
) -> Optional[Tuple[str, float]]:
    """The exemplar attached to the bucket whose upper bound is ``bound``.

    Exemplars are keyed by scheme bucket index; exposition buckets are
    keyed by upper bound. Both bounds come from the same
    ``scheme.upper_bound`` computation, so exact float equality is the
    correct join.
    """
    for idx, ex in exemplars.items():
        if scheme.upper_bound(idx) == bound:  # type: ignore[attr-defined]
            return ex
    return None


def exemplars(text: str) -> Dict[str, Tuple[str, float]]:
    """Extract exemplar annotations: ``{sample_series: (trace_id, value)}``.

    Companion to :func:`parse` for consumers (``obs top``, tests) that
    want the bucket → trace-id links rather than just the counts.
    """
    out: Dict[str, Tuple[str, float]] = {}
    ex_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s+\S+"
        r"\s+#\s+\{trace_id=\"([^\"]*)\"\}\s+(\S+)\s*$"
    )
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        m = ex_re.match(line)
        if m is not None:
            series, tid, raw = m.groups()
            out[series] = (tid, float(raw))
    return out


def parse(text: str) -> Dict[str, Dict[str, float]]:
    """Parse an exposition document back into ``{family: {series: value}}``.

    A deliberately strict reader used by tests and ``obs top`` to consume
    ``/metrics``: it validates TYPE lines, label syntax, and numeric
    sample values, raising ``ValueError`` on malformed input.
    """
    families: Dict[str, Dict[str, float]] = {}
    types: Dict[str, str] = {}
    # The optional tail is an OpenMetrics-style exemplar annotation
    # ("# {trace_id=...} value"); strict parsing tolerates (and ignores)
    # it so exemplar-bearing documents still round-trip.
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)"
        r"(?:\s+#\s+\{[^}]*\}\s+\S+)?$"
    )
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed TYPE line")
                if parts[3] not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
                types[parts[2]] = parts[3]
            continue
        m = sample_re.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, labelblock, raw = m.groups()
        if raw in ("+Inf", "-Inf"):
            value = math.inf if raw == "+Inf" else -math.inf
        elif raw == "NaN":
            value = math.nan
        else:
            value = float(raw)  # raises ValueError on garbage
        series = name + (labelblock or "")
        families.setdefault(name, {})[series] = value
    # Every sample must belong to a declared family (histogram samples
    # use the family's _bucket/_sum/_count suffixes).
    for name in families:
        stripped = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                stripped = name[: -len(suffix)]
                break
            if name.endswith(suffix) and name[: -len(suffix)] + "_total" \
                    in types:
                stripped = name[: -len(suffix)] + "_total"
                break
        if stripped not in types and name not in types:
            raise ValueError(f"sample {name!r} has no # TYPE declaration")
    return families
