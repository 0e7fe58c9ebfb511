"""Roll a JSONL journal up into the ``results/`` schemas.

Two consumers exist today: the ``results/<id>.json`` experiment payloads
(``id``/``title``/``paper_reference``/``headers``/``rows``/``notes``/
``config`` — what :func:`repro.harness.results.save_result` writes and the
CLI ``summarize`` command compiles), and the long-format per-iteration CSV
that :func:`repro.analysis.traces.write_traces_csv` produces. Both can now
be regenerated from a journal alone, so a run traced once can be
re-analyzed without re-running it.
"""

from __future__ import annotations

import csv
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.journal import ROUND_COLUMNS, iter_events
from repro.resilience.atomic import atomic_open

EventsOrPath = Union[str, Path, List[Dict[str, Any]]]


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


def summary_rows(
    events: EventsOrPath,
) -> Tuple[List[str], List[List[Any]]]:
    """Roll spans, iteration work, and final metrics into table rows."""
    events = list(iter_events(events))
    headers = ["kind", "name", "count", "total", "mean"]
    rows: List[List[Any]] = []

    span_agg: "OrderedDict[str, List[float]]" = OrderedDict()
    for event in events:
        if event.get("type") == "span":
            span_agg.setdefault(event["name"], []).append(
                float(event.get("duration_s", 0.0))
            )
    for name, durations in span_agg.items():
        total = sum(durations)
        rows.append([
            "span_ms", name, len(durations),
            round(total * 1e3, 3), round(total * 1e3 / len(durations), 3),
        ])

    for label, its in iteration_series(events).items():
        edges = sum(int(i.get("edges_scanned", 0)) for i in its)
        rows.append([
            "iterations", label, len(its), edges,
            round(edges / len(its), 1) if its else 0.0,
        ])

    for event in events:
        if event.get("type") != "metrics":
            continue
        for key, value in sorted(event.get("metrics", {}).items()):
            if isinstance(value, dict):  # histogram
                rows.append([
                    "metric", key, value.get("count", 0),
                    value.get("sum"), value.get("mean"),
                ])
            else:
                rows.append(["metric", key, 1, value, value])
    return headers, rows


def export_bench_json(
    events: EventsOrPath,
    out: Optional[Union[str, Path]] = None,
    exp_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Journal -> ``results/<id>.json`` payload (optionally written out)."""
    events = list(iter_events(events))
    manifest = manifest_of(events)
    headers, rows = summary_rows(events)
    if exp_id is None:
        source = manifest.get("journal_path")
        exp_id = Path(source).stem if source else "journal"
    payload = {
        "id": exp_id,
        "title": f"Telemetry rollup of run {exp_id}",
        "paper_reference": "observability journal (repro.obs)",
        "headers": headers,
        "rows": rows,
        "notes": f"manifest: git={manifest.get('git_sha')} "
        f"python={manifest.get('python')} numpy={manifest.get('numpy')}",
        "config": manifest.get("config"),
    }
    if out is not None:
        out = Path(out)
        with atomic_open(out) as fh:
            json.dump(payload, fh, indent=2)
    return payload


def export_csv(
    events: EventsOrPath, out: Union[str, Path]
) -> Path:
    """Journal -> long-format per-iteration CSV.

    Columns match :func:`repro.analysis.traces.write_traces_csv`:
    label, iteration, frontier, edges, updates.
    """
    out = Path(out)
    with atomic_open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "iteration", "frontier", "edges", "updates"])
        for label, its in iteration_series(events).items():
            for event in its:
                writer.writerow([
                    label,
                    event.get("iteration"),
                    event.get("frontier"),
                    event.get("edges_scanned"),
                    event.get("updates"),
                ])
    return out
