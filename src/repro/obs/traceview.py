"""Reconstruct and render one request's causal trace from a journal.

The journal is a flat, totally-ordered event stream; every span event now
carries ``span_id``/``parent_span_id``/``trace`` (see
:mod:`repro.obs.spans`), so a single request's tree — synthetic
``serve.request`` root, admission span, queue wait, worker execution,
engine phase spans — reassembles exactly, across however many threads it
crossed. :func:`build_tree` does the reassembly and flags **orphans**
(spans naming a parent that never journaled), which the CLI turns into a
nonzero exit: an orphan means the propagation chain broke somewhere, and
the chaos smoke treats that as a bug, not a rendering quirk.

Renderers: :func:`render_trace` (ASCII causal tree + waterfall bars),
:func:`render_trace_html` (self-contained HTML, same data),
:func:`list_traces` (per-trace summary table for journal exploration),
and :func:`find_explain` (the request's ``serve.explain`` wide event).
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.journal import EventsOrPath, iter_events
from repro.resilience.atomic import atomic_write_text


@dataclass
class SpanNode:
    """One span event plus its reassembled children."""

    event: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.event.get("name", "?"))

    @property
    def span_id(self) -> Optional[str]:
        sid = self.event.get("span_id")
        return None if sid is None else str(sid)

    @property
    def parent_span_id(self) -> Optional[str]:
        pid = self.event.get("parent_span_id")
        return None if pid is None else str(pid)

    @property
    def start_t(self) -> Optional[float]:
        t = self.event.get("start_t")
        return None if t is None else float(t)

    @property
    def duration_s(self) -> float:
        return float(self.event.get("duration_s", 0.0))

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass
class TraceTree:
    """The reassembled trace: root spans, orphans, and loose events."""

    trace_id: str
    roots: List[SpanNode]
    orphans: List[SpanNode]
    events: List[Dict[str, Any]]
    spans: Dict[str, SpanNode]

    @property
    def span_count(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk()) + sum(
            1 for orphan in self.orphans for _ in orphan.walk()
        )

    def window(self) -> Optional[tuple]:
        """``(start_t, end_t)`` covering every placed span, if any carry
        explicit start times."""
        starts, ends = [], []
        for node in self.all_nodes():
            t = node.start_t
            if t is not None:
                starts.append(t)
                ends.append(t + node.duration_s)
        if not starts:
            return None
        return min(starts), max(ends)

    def all_nodes(self) -> List[SpanNode]:
        out: List[SpanNode] = []
        for root in self.roots + self.orphans:
            out.extend(node for _, node in root.walk())
        return out


def trace_ids(events: EventsOrPath) -> List[str]:
    """Distinct trace ids in journal order of first appearance."""
    seen: Dict[str, None] = {}
    for ev in iter_events(events):
        tid = ev.get("trace")
        if isinstance(tid, str) and tid not in seen:
            seen[tid] = None
    return list(seen)


def build_tree(events: EventsOrPath, trace_id: str) -> TraceTree:
    """Reassemble one trace's span tree (see module docstring)."""
    spans: Dict[str, SpanNode] = {}
    anonymous: List[SpanNode] = []
    loose: List[Dict[str, Any]] = []
    for ev in iter_events(events):
        if ev.get("trace") != trace_id:
            continue
        if ev.get("type") == "span":
            node = SpanNode(ev)
            if node.span_id is not None:
                spans[node.span_id] = node
            else:
                anonymous.append(node)
        elif ev.get("type") == "event":
            loose.append(ev)
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in spans.values():
        pid = node.parent_span_id
        if pid is None:
            roots.append(node)
        elif pid in spans:
            spans[pid].children.append(node)
        else:
            orphans.append(node)
    # Spans predating explicit ids (foreign journals) can only be roots.
    roots.extend(anonymous)

    def start_key(node: SpanNode):
        t = node.start_t
        return (t is None, 0.0 if t is None else t, node.name)

    for node in spans.values():
        node.children.sort(key=start_key)
    roots.sort(key=start_key)
    orphans.sort(key=start_key)
    return TraceTree(
        trace_id=trace_id, roots=roots, orphans=orphans,
        events=loose, spans=spans,
    )


def find_explain(
    events: EventsOrPath, trace_id: str
) -> Optional[Dict[str, Any]]:
    """The ``serve.explain`` wide event for ``trace_id``, if journaled."""
    found: Optional[Dict[str, Any]] = None
    for ev in iter_events(events):
        if (
            ev.get("type") == "event"
            and ev.get("name") == "serve.explain"
            and ev.get("trace") == trace_id
        ):
            found = ev  # last wins (requeued requests resolve once anyway)
    return found


def summarize_traces(events: EventsOrPath) -> List[Dict[str, Any]]:
    """One summary row per trace: status, duration, span/event counts."""
    events = list(iter_events(events))
    rows: Dict[str, Dict[str, Any]] = {}
    for ev in events:
        tid = ev.get("trace")
        if not isinstance(tid, str):
            continue
        row = rows.setdefault(tid, {
            "trace": tid, "spans": 0, "events": 0,
            "status": None, "query": None, "duration_ms": None,
            "request": None,
        })
        if ev.get("type") == "span":
            row["spans"] += 1
            if ev.get("name") == "serve.request":
                row["status"] = ev.get("status")
                row["query"] = ev.get("query")
                row["request"] = ev.get("request")
                row["duration_ms"] = round(
                    float(ev.get("duration_s", 0.0)) * 1000.0, 3
                )
        elif ev.get("type") == "event":
            row["events"] += 1
            if ev.get("name") == "serve.explain":
                row["status"] = row["status"] or ev.get("status")
                row["query"] = row["query"] or ev.get("query")
                row["request"] = row["request"] or ev.get("request")
    return list(rows.values())


def pick_trace(
    events: EventsOrPath, status: Optional[str] = None
) -> Optional[str]:
    """The first trace id whose terminal status matches (CI scripting)."""
    for row in summarize_traces(events):
        if status is None or row.get("status") == status:
            return str(row["trace"])
    return None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_BAR_WIDTH = 32


def _bar(
    node: SpanNode, window: Optional[tuple]
) -> str:
    """A fixed-width waterfall bar placing the span inside the trace."""
    if window is None or node.start_t is None:
        return " " * _BAR_WIDTH
    t0, t1 = window
    total = max(t1 - t0, 1e-12)
    lo = int(round(_BAR_WIDTH * (node.start_t - t0) / total))
    hi = int(round(_BAR_WIDTH * (node.start_t + node.duration_s - t0) / total))
    lo = max(0, min(lo, _BAR_WIDTH - 1))
    hi = max(lo + 1, min(hi, _BAR_WIDTH))
    return " " * lo + "#" * (hi - lo) + " " * (_BAR_WIDTH - hi)


def _node_label(node: SpanNode) -> str:
    extra = []
    for key in ("query", "status", "request", "phase"):
        if node.event.get(key) is not None:
            extra.append(f"{key}={node.event[key]}")
    suffix = f" [{', '.join(extra)}]" if extra else ""
    return f"{node.name}{suffix}"


def render_trace(tree: TraceTree) -> str:
    """ASCII causal tree + waterfall for one reassembled trace."""
    window = tree.window()
    lines = [
        f"trace {tree.trace_id} — {tree.span_count} spans, "
        f"{len(tree.events)} events"
        + (
            f", {1000.0 * (window[1] - window[0]):.3f} ms"
            if window else ""
        )
    ]

    def emit(node: SpanNode, prefix: str, is_last: bool, top: bool) -> None:
        connector = "" if top else ("`- " if is_last else "|- ")
        label = f"{prefix}{connector}{_node_label(node)}"
        lines.append(
            f"{label:<48s} |{_bar(node, window)}| "
            f"{node.duration_s * 1000.0:9.3f} ms"
        )
        child_prefix = prefix if top else prefix + ("   " if is_last else "|  ")
        for i, child in enumerate(node.children):
            emit(child, child_prefix, i == len(node.children) - 1, False)

    for root in tree.roots:
        emit(root, "", True, True)
    if tree.orphans:
        lines.append("")
        lines.append(
            f"ORPHAN SPANS ({len(tree.orphans)}) — parent span never "
            f"journaled; the causal chain is broken:"
        )
        for orphan in tree.orphans:
            emit(orphan, "  ", True, True)
    if tree.events:
        lines.append("")
        lines.append("events:")
        for ev in tree.events:
            t = ev.get("t")
            stamp = "      -" if t is None else f"{float(t):9.3f}"
            detail = {
                k: v for k, v in ev.items()
                if k not in ("type", "name", "t", "seq", "thread", "trace")
            }
            shown = ", ".join(f"{k}={v}" for k, v in list(detail.items())[:6])
            lines.append(f"  {stamp}s  {ev.get('name')}  {shown}")
    return "\n".join(lines)


_HTML_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1a1a2e; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .75rem 0; width: 100%; }
th, td { border: 1px solid #d0d0dd; padding: .25rem .55rem;
         text-align: left; font-size: 13px; }
th { background: #f0f0f7; }
.lane { position: relative; height: 14px; background: #f4f4fb;
        min-width: 260px; }
.lane span { position: absolute; top: 2px; height: 10px;
             background: #4a5bd4; border-radius: 2px; }
.orphan td { background: #ffe5e5; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
"""


def render_trace_html(
    tree: TraceTree,
    out: Union[str, Path],
    explain: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a self-contained HTML causal tree + waterfall; returns path."""
    window = tree.window()
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>trace {_html.escape(tree.trace_id)}</title>",
        f"<style>{_HTML_CSS}</style></head><body>",
        f"<h1>Trace {_html.escape(tree.trace_id)}</h1>",
        f"<p>{tree.span_count} spans, {len(tree.events)} events, "
        f"{len(tree.orphans)} orphans</p>",
        "<h2>Causal tree</h2>",
        "<table><thead><tr><th>span</th><th>waterfall</th>"
        "<th>duration</th></tr></thead><tbody>",
    ]

    def lane(node: SpanNode) -> str:
        if window is None or node.start_t is None:
            return "<div class='lane'></div>"
        t0, t1 = window
        total = max(t1 - t0, 1e-12)
        left = 100.0 * (node.start_t - t0) / total
        width = max(0.5, 100.0 * node.duration_s / total)
        width = min(width, 100.0 - left)
        return (
            f"<div class='lane'><span style='left:{left:.2f}%;"
            f"width:{width:.2f}%'></span></div>"
        )

    def emit(node: SpanNode, depth: int, orphan: bool) -> None:
        indent = "&nbsp;" * 4 * depth
        cls = " class='orphan'" if orphan else ""
        parts.append(
            f"<tr{cls}><td>{indent}{_html.escape(_node_label(node))}</td>"
            f"<td>{lane(node)}</td>"
            f"<td class='mono'>{node.duration_s * 1000.0:.3f} ms</td></tr>"
        )
        for child in node.children:
            emit(child, depth + 1, orphan)

    for root in tree.roots:
        emit(root, 0, False)
    for orphan in tree.orphans:
        emit(orphan, 0, True)
    parts.append("</tbody></table>")

    if tree.events:
        parts.append("<h2>Events</h2>")
        parts.append(
            "<table><thead><tr><th>t (s)</th><th>event</th>"
            "<th>detail</th></tr></thead><tbody>"
        )
        for ev in tree.events:
            detail = {
                k: v for k, v in ev.items()
                if k not in ("type", "name", "t", "seq", "thread", "trace")
            }
            shown = ", ".join(
                f"{k}={v}" for k, v in list(detail.items())[:8]
            )
            t = ev.get("t")
            parts.append(
                f"<tr><td class='mono'>"
                f"{'-' if t is None else f'{float(t):.3f}'}</td>"
                f"<td>{_html.escape(str(ev.get('name')))}</td>"
                f"<td class='mono'>{_html.escape(shown)}</td></tr>"
            )
        parts.append("</tbody></table>")

    if explain is not None:
        parts.append("<h2>Explain</h2>")
        parts.append(
            "<table><thead><tr><th>field</th><th>value</th></tr>"
            "</thead><tbody>"
        )
        for key, value in explain.items():
            if key in ("type", "seq", "thread", "t"):
                continue
            parts.append(
                f"<tr><td>{_html.escape(str(key))}</td>"
                f"<td class='mono'>{_html.escape(str(value))}</td></tr>"
            )
        parts.append("</tbody></table>")
    parts.append("</body></html>")

    out = Path(out)
    atomic_write_text(out, "".join(parts))
    return out


def render_trace_table(rows: List[Dict[str, Any]]) -> str:
    """Aligned listing of :func:`summarize_traces` rows (``obs trace``)."""
    if not rows:
        return "no traced requests in this journal"
    header = (
        f"{'trace':26s} {'request':>7s} {'query':10s} {'status':9s} "
        f"{'spans':>5s} {'events':>6s} {'duration ms':>11s}"
    )
    lines = [header]
    for row in rows:
        duration = row.get("duration_ms")
        lines.append(
            f"{str(row['trace']):26s} "
            f"{'-' if row.get('request') is None else row['request']:>7} "
            f"{str(row.get('query') or '-'):10s} "
            f"{str(row.get('status') or '-'):9s} "
            f"{row['spans']:>5d} {row['events']:>6d} "
            f"{'-' if duration is None else f'{duration:.3f}':>11s}"
        )
    return "\n".join(lines)
