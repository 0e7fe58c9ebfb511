"""Summarize run journals and render them as terminal, HTML and JSON reports.

:func:`summarize_run` reduces a journal to a :class:`RunSummary` (run key,
per-phase wall times, flat metrics). The terminal report
(:func:`render_report`) stacks the run manifest, the per-phase timing
breakdown, the paper-grounded quality counters (:mod:`repro.obs.quality`)
and a per-phase convergence digest. :func:`render_html` writes the same
tables plus inline-SVG convergence curves as one file with no external
assets, so it can ride along as a CI artifact; :func:`report_payload` is
the same summary as one JSON-ready document. :func:`iteration_series`
expands a journal's ``rounds`` events into per-round rows grouped by phase,
the input of the convergence digest and curves.
"""

from __future__ import annotations

import html as _html
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import quality as obs_quality
from repro.obs.journal import ROUND_COLUMNS, EventsOrPath, iter_events
from repro.resilience.atomic import atomic_write_text


def manifest_of(events: EventsOrPath) -> Dict[str, Any]:
    """The journal's manifest event (first line), or an empty dict."""
    for event in iter_events(events):
        if event.get("type") == "manifest":
            return event
    return {}


def _span_intervals(
    events: List[Dict[str, Any]]
) -> Dict[Any, List[Tuple[float, float, int, str]]]:
    """Per-thread ``(start, end, depth, name)`` of every journaled span.

    Spans journal on exit, carrying an explicit ``start_t`` (older journals
    fall back to ``t - duration_s``, the emit time minus the duration).
    """
    intervals: Dict[Any, List[Tuple[float, float, int, str]]] = {}
    for event in events:
        if event.get("type") != "span" or "t" not in event:
            continue
        end = float(event["t"])
        start = float(event.get("start_t", end - float(event.get("duration_s", 0.0))))
        intervals.setdefault(event.get("thread"), []).append(
            (start, end, int(event.get("depth", 0)), str(event.get("name")))
        )
    return intervals


def _enclosing_span(
    event: Dict[str, Any],
    intervals: Dict[Any, List[Tuple[float, float, int, str]]],
) -> Optional[str]:
    """Innermost span on the event's own thread containing its timestamp."""
    if "t" not in event:
        return None
    t = float(event["t"])
    best: Optional[Tuple[int, str]] = None
    for start, end, depth, name in intervals.get(event.get("thread"), ()):
        if start <= t <= end and (best is None or depth > best[0]):
            best = (depth, name)
    return best[1] if best else None


def _expand_rounds(event: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One dict per round of a ``rounds`` event, keyed like its columns.

    Each also carries the round's ``iteration`` index and the event's
    ``engine``, ``phase``, ``thread`` and ``t``.
    """
    shared = {key: event.get(key) for key in ("engine", "phase", "thread", "t")}
    columns = [event.get(name, ()) for name in ROUND_COLUMNS]
    return [
        {"iteration": k, **shared, **dict(zip(ROUND_COLUMNS, row))}
        for k, row in enumerate(zip(*columns))
    ]


def iteration_series(
    events: EventsOrPath,
) -> "OrderedDict[str, List[Dict[str, Any]]]":
    """Per-round engine work grouped by phase label, in seq order.

    Each ``rounds`` event (one per engine run) expands into one dict per
    round. The label is the event's recorded ``phase`` (the innermost span
    open on the emitting thread when the run began). Events journaled
    without one are attributed to the innermost journaled span *of their
    own thread* whose interval contains the event, so journals that
    interleave concurrent engines still split cleanly per phase. Events
    enclosed by no span get the label ``"run"``.
    """
    events = list(iter_events(events))
    intervals = _span_intervals(events)
    series: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
    for event in events:
        if event.get("type") != "rounds":
            continue
        label = event.get("phase") or _enclosing_span(event, intervals) or "run"
        series.setdefault(label, []).extend(_expand_rounds(event))
    return series


@dataclass
class RunSummary:
    """One run, reduced to its identity key, phase times and metrics."""

    source: str
    key: Dict[str, Any] = field(default_factory=dict)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def quality(self) -> Dict[str, float]:
        return {
            k: v for k, v in self.metrics.items()
            if k.startswith(obs_quality.PREFIX)
        }

    def label(self) -> str:
        parts = [
            str(self.key.get(f)) for f in ("graph", "query", "source")
            if self.key.get(f) is not None
        ]
        return "/".join(parts) if parts else Path(self.source).stem


def _flatten_metrics(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Final metrics snapshot -> flat name -> number map.

    Histograms contribute ``<name>.count`` and ``<name>.sum`` (streaming
    ones also their percentiles); everything non-numeric is dropped.
    """
    flat: Dict[str, float] = {}
    for name, value in snapshot.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[name] = float(value)
        elif isinstance(value, dict):
            for part in ("count", "sum", "p50", "p90", "p95", "p99"):
                inner = value.get(part)
                if isinstance(inner, (int, float)):
                    flat[f"{name}.{part}"] = float(inner)
    return flat


def summarize_run(events: EventsOrPath, source: str = "") -> RunSummary:
    """Reduce a journal to its :class:`RunSummary`."""
    events = list(iter_events(events))
    manifest = manifest_of(events)
    key: Dict[str, Any] = {
        "seed": manifest.get("seed"),
        "git_sha": manifest.get("git_sha"),
        "graph": None,
        "query": None,
        "source": None,
        "graph_fingerprint": None,
    }
    if isinstance(manifest.get("experiment"), str):
        key["query"] = manifest["experiment"]

    phases: Dict[str, Dict[str, float]] = {}
    metrics: Dict[str, float] = {}
    for event in events:
        etype = event.get("type")
        if etype == "span":
            agg = phases.setdefault(
                str(event.get("name")), {"count": 0.0, "total_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += float(event.get("duration_s", 0.0))
        elif etype == "metrics":
            metrics = _flatten_metrics(event.get("metrics", {}))
        elif etype == "event":
            name = event.get("name")
            if name == "graph.loaded":
                key["graph"] = event.get("graph")
                if event.get("graph_fingerprint") is not None:
                    key["graph_fingerprint"] = event.get("graph_fingerprint")
            elif name in ("twophase.result", "cg.built"):
                key["query"] = event.get("query") or key["query"]
                if event.get("source") is not None:
                    key["source"] = event.get("source")
    if not source:
        source = str(manifest.get("journal_path") or "<events>")
    return RunSummary(source=source, key=key, phases=phases, metrics=metrics)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                  title: Optional[str] = None, floatfmt: str = ".3f") -> str:
    # Lazy import: repro.harness pulls in the experiment registry, which
    # itself imports repro.obs — fine at call time, circular at import time.
    from repro.harness.tables import render_table

    return render_table(headers, rows, title=title, floatfmt=floatfmt)


def _manifest_rows(manifest: Dict[str, Any]) -> List[List[Any]]:
    rows: List[List[Any]] = []
    for name in ("created", "git_sha", "python", "numpy", "platform",
                 "seed", "argv", "experiment"):
        if manifest.get(name) is not None:
            rows.append([name, str(manifest[name])])
    graph = manifest.get("graph")
    if isinstance(graph, dict):
        rows.append(["graph", f"|V|={graph.get('num_vertices'):,} "
                              f"|E|={graph.get('num_edges'):,}"])
    return rows


def _phase_rows(summary: RunSummary) -> List[List[Any]]:
    total = sum(agg["total_s"] for agg in summary.phases.values()) or 1.0
    rows = []
    for name, agg in sorted(
        summary.phases.items(), key=lambda kv: kv[1]["total_s"], reverse=True
    ):
        rows.append([
            name, int(agg["count"]), round(agg["total_s"] * 1e3, 3),
            f"{100.0 * agg['total_s'] / total:.1f}%",
        ])
    return rows


def _quality_rows(summary: RunSummary) -> List[List[Any]]:
    rows = []
    for name, value in sorted(summary.quality.items()):
        bare = obs_quality.bare_name(name)
        if bare in obs_quality.FRACTIONS:
            shown: Any = f"{100.0 * value:.2f}%"
        elif float(value) == int(value):
            shown = int(value)
        else:
            shown = round(float(value), 4)
        direction = (
            "lower better" if bare in obs_quality.LOWER_IS_BETTER
            else "higher better"
        )
        rows.append([name, shown, direction])
    return rows


def _resilience_rows(events: List[Dict[str, Any]]) -> List[List[Any]]:
    """Budget aborts, degraded results, injected faults, serve/evolve."""
    rows: List[List[Any]] = []
    for ev in events:
        name = ev.get("name")
        if name == "budget.exceeded":
            rows.append([
                "budget abort",
                f"{ev.get('limit')} at {ev.get('site')}",
                f"iteration {ev.get('iteration')}, "
                f"{float(ev.get('elapsed_s', 0.0)):.3f}s",
            ])
        elif name == "twophase.result" and ev.get("degraded"):
            cert = ev.get("certificate") or {}
            rows.append([
                "DEGRADED result",
                f"query {ev.get('query')}",
                f"certificate: {cert.get('exact', 0)} exact / "
                f"{cert.get('approx', 0)} approx / "
                f"{cert.get('unreached', 0)} unreached",
            ])
        elif name == "fault.injected":
            rows.append([
                "fault injected",
                f"{ev.get('kind')} at {ev.get('site')}",
                f"hit {ev.get('hit')}",
            ])
        elif name == "serve.breaker":
            rows.append([
                "breaker",
                ev.get("transition", "?"),
                f"reason: {ev.get('reason', '-')}",
            ])
        elif name == "serve.worker.restart":
            rows.append([
                "worker restart",
                f"worker {ev.get('worker')}",
                str(ev.get("error", "-")),
            ])
        elif name == "serve.stats":
            rows.append([
                "service",
                f"{ev.get('submitted', 0)} submitted / "
                f"{ev.get('completed', 0)} full / "
                f"{ev.get('degraded', 0)} degraded",
                f"rejected {ev.get('rejected_queue_full', 0)} queue-full + "
                f"{ev.get('rejected_deadline', 0)} deadline, "
                f"shed {ev.get('shed_completions', 0)}, "
                f"poisoned {ev.get('poisoned', 0)}",
            ])
        elif name == "evolve.swap":
            rows.append([
                "epoch swap",
                f"epoch {ev.get('retired_epoch')} -> {ev.get('epoch')}",
                f"{ev.get('num_edges', '-')} edges "
                f"({ev.get('cg_edges', '-')} in CG), "
                f"triangle_safe={ev.get('triangle_safe')}",
            ])
        elif name == "evolve.rebuild":
            rows.append([
                "CG rebuild",
                f"epoch {ev.get('epoch')} "
                f"(built on {ev.get('built_on_epoch', '-')})",
                f"rebased={ev.get('rebased')}, "
                f"cg_edges={ev.get('cg_edges', '-')}",
            ])
        elif name == "evolve.stats":
            rows.append([
                "evolve",
                f"epoch {ev.get('epoch')}, "
                f"{ev.get('batches', 0)} batches",
                f"+{ev.get('inserted_edges', 0)} "
                f"-{ev.get('deleted_edges', 0)} edges, "
                f"{ev.get('rebuilds', 0)} rebuilds, "
                f"{ev.get('swaps', 0)} swaps",
            ])
    return rows


def _histogram_rows(events: List[Dict[str, Any]]) -> List[List[Any]]:
    """Streaming-histogram entries of the final metrics snapshot.

    Plain histograms flatten to count/sum elsewhere; the log-bucketed
    streaming ones (:mod:`repro.obs.live.hist`) carry instant percentiles,
    recognizable by their ``p50`` key.
    """
    snapshot: Dict[str, Any] = {}
    for ev in events:
        if ev.get("type") == "metrics":
            snapshot = ev.get("metrics", {}) or {}
    rows: List[List[Any]] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if not isinstance(value, dict) or "p50" not in value:
            continue
        rows.append([
            name, int(value.get("count", 0)),
            round(float(value.get("mean", 0.0)), 3),
            round(float(value.get("p50", 0.0)), 3),
            round(float(value.get("p90", 0.0)), 3),
            round(float(value.get("p95", 0.0)), 3),
            round(float(value.get("p99", 0.0)), 3),
            round(float(value.get("max", 0.0)), 3),
        ])
    return rows


def _convergence_rows(
    series: Dict[str, List[Dict[str, Any]]]
) -> List[List[Any]]:
    rows = []
    for label, its in series.items():
        edges = sum(int(i.get("edges_scanned", 0)) for i in its)
        updates = sum(int(i.get("updates", 0)) for i in its)
        peak = max((int(i.get("frontier", 0) or 0) for i in its), default=0)
        rows.append([label, len(its), edges, updates, peak])
    return rows


def report_payload(
    events: EventsOrPath, source: str = ""
) -> Dict[str, Any]:
    """Machine-readable report: the same summary structures the terminal
    and HTML renderers tabulate, as one JSON-ready document.

    Each section mirrors its table: ``phases`` and ``quality`` carry the
    raw :class:`RunSummary` aggregates, ``resilience``/``histograms``
    carry the rendered row tuples keyed by their headers, and
    ``traces`` summarizes any request-scoped traces in the journal.
    """
    from repro.obs.traceview import summarize_traces

    events = list(iter_events(events))
    manifest = manifest_of(events)
    summary = summarize_run(events, source=source)
    series = iteration_series(events)
    return {
        "label": summary.label(),
        "source": source or None,
        "manifest": manifest,
        "key": summary.key,
        "phases": summary.phases,
        "quality": summary.quality,
        "metrics": summary.metrics,
        "resilience": [
            dict(zip(("event", "what", "detail"), row))
            for row in _resilience_rows(events)
        ],
        "histograms": [
            dict(zip(
                ("histogram", "count", "mean", "p50", "p90", "p95",
                 "p99", "max"), row,
            ))
            for row in _histogram_rows(events)
        ],
        "convergence": [
            dict(zip(
                ("phase", "iterations", "edges", "updates",
                 "peak_frontier"), row,
            ))
            for row in _convergence_rows(series)
        ],
        "traces": summarize_traces(events),
    }


def render_report(events: EventsOrPath, source: str = "") -> str:
    """The terminal run report (manifest, timing, quality, convergence)."""
    events = list(iter_events(events))
    manifest = manifest_of(events)
    summary = summarize_run(events, source=source)
    series = iteration_series(events)

    sections = [_render_table(
        ["field", "value"], _manifest_rows(manifest),
        title=f"Run report — {summary.label()}",
    )]
    if summary.phases:
        sections.append(_render_table(
            ["phase", "count", "total ms", "share"], _phase_rows(summary),
            title="Phase timing",
        ))
    quality_rows = _quality_rows(summary)
    if quality_rows:
        sections.append(_render_table(
            ["quality counter", "value", "direction"], quality_rows,
            title="Quality counters",
        ))
    resilience_rows = _resilience_rows(events)
    if resilience_rows:
        sections.append(_render_table(
            ["event", "what", "detail"], resilience_rows,
            title="Resilience",
        ))
    hist_rows = _histogram_rows(events)
    if hist_rows:
        sections.append(_render_table(
            ["histogram", "count", "mean", "p50", "p90", "p95", "p99",
             "max"],
            hist_rows, title="Latency distributions (ms)",
        ))
    if series:
        sections.append(_render_table(
            ["phase", "iterations", "edges", "updates", "peak frontier"],
            _convergence_rows(series), title="Convergence",
        ))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .75rem 0; }
th, td { border: 1px solid #d0d0dd; padding: .3rem .6rem; text-align: left; }
th { background: #f0f0f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.curve { margin: 1rem 0; }
.curve svg { background: #fafaff; border: 1px solid #d0d0dd; }
.legend { font-size: .85rem; color: #555; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = []
    for row in rows:
        cells = []
        for cell in row:
            klass = ' class="num"' if isinstance(cell, (int, float)) else ""
            cells.append(f"<td{klass}>{_html.escape(str(cell))}</td>")
        body.append(f"<tr>{''.join(cells)}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _svg_curve(
    series: List[Tuple[int, float]], width: int = 460, height: int = 160
) -> str:
    """One log-scaled polyline curve as an inline SVG."""
    pad = 28
    if not series:
        return ""
    xs = [p[0] for p in series]
    ys = [math.log10(max(p[1], 1.0)) for p in series]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(max(ys), 1e-9)
    x_span = max(x_hi - x_lo, 1)

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * (x - x_lo) / x_span

    def sy(y: float) -> float:
        return height - pad - (height - 2 * pad) * (y / y_hi)

    points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    ticks = []
    for frac in (0.0, 0.5, 1.0):
        x = x_lo + frac * x_span
        ticks.append(
            f'<text x="{sx(x):.0f}" y="{height - 8}" font-size="10" '
            f'text-anchor="middle">{int(x)}</text>'
        )
    top = int(round(10 ** y_hi))
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" xmlns="http://www.w3.org/2000/svg">'
        f'<polyline fill="none" stroke="#4a5bd4" stroke-width="1.5" '
        f'points="{points}"/>'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#999"/>'
        f'<text x="{pad}" y="14" font-size="10">log scale, '
        f'peak {top:,}</text>{"".join(ticks)}</svg>'
    )


def render_html(
    events: EventsOrPath,
    out: Union[str, Path],
    source: str = "",
) -> Path:
    """Write a self-contained HTML run report; returns the output path."""
    events = list(iter_events(events))
    manifest = manifest_of(events)
    summary = summarize_run(events, source=source)
    series = iteration_series(events)

    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>repro obs report — {_html.escape(summary.label())}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Run report — {_html.escape(summary.label())}</h1>",
        "<h2>Manifest</h2>",
        _html_table(["field", "value"], _manifest_rows(manifest)),
    ]
    if summary.phases:
        parts += ["<h2>Phase timing</h2>", _html_table(
            ["phase", "count", "total ms", "share"], _phase_rows(summary))]
    quality_rows = _quality_rows(summary)
    if quality_rows:
        parts += ["<h2>Quality counters</h2>", _html_table(
            ["quality counter", "value", "direction"], quality_rows)]
    resilience_rows = _resilience_rows(events)
    if resilience_rows:
        parts += ["<h2>Resilience</h2>", _html_table(
            ["event", "what", "detail"], resilience_rows)]
    hist_rows = _histogram_rows(events)
    if hist_rows:
        parts += ["<h2>Latency distributions (ms)</h2>", _html_table(
            ["histogram", "count", "mean", "p50", "p90", "p95", "p99",
             "max"], hist_rows)]
    if series:
        parts += ["<h2>Convergence</h2>", _html_table(
            ["phase", "iterations", "edges", "updates", "peak frontier"],
            _convergence_rows(series))]
        for label, its in series.items():
            frontier = [(int(i.get("iteration", k)),
                         float(i.get("frontier", 0) or 0))
                        for k, i in enumerate(its)]
            edges = [(int(i.get("iteration", k)),
                      float(i.get("edges_scanned", 0) or 0))
                     for k, i in enumerate(its)]
            parts.append(
                f"<div class='curve'><h2>{_html.escape(label)}</h2>"
                f"<div class='legend'>frontier size per iteration</div>"
                f"{_svg_curve(frontier)}"
                f"<div class='legend'>edges scanned per iteration</div>"
                f"{_svg_curve(edges)}</div>"
            )
    parts.append("</body></html>")

    out = Path(out)
    atomic_write_text(out, "".join(parts))
    return out
