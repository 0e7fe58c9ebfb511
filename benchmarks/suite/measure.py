"""Clock, order statistics, the in-memory span recorder, and run hygiene.

Nothing here imports ``repro``: the suite measures the program from outside,
by timing calls into its public functions and reading what they return.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
OUT_DIR = SUITE_DIR / "out"

#: Environment switches that make the process a different program
#: (sanitizer probes, injected faults, resized graphs, disk-cached graphs).
FORBIDDEN_ENV = ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_SCALE_DELTA",
                 "REPRO_CACHE_DIR")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def stat(value: float, n: int = 1, spread: Optional[float] = None) -> dict:
    """One reported number: its value, sample count, and within-run spread."""
    return {"value": float(value), "n": int(n),
            "spread": None if spread is None else float(spread)}


def pctl(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _over_blocks(per_block: Sequence[float], n: int) -> dict:
    """Median of the block statistics; their interquartile range, as a
    share of that median, is the within-run ``spread`` ``--agree`` reads.

    On the shared two-core VM this was written on, the machine moves
    between faster and slower spells that last many seconds, so a low
    quantile over blocks repeats *worse* between runs than the median does
    (measured over five minutes of serve-tt requests: 7 % against 11-14 %).
    """
    if len(per_block) < 2:
        return stat(per_block[0], n)
    q1, mid, q3 = statistics.quantiles(per_block, n=4)
    return stat(mid, n, (q3 - q1) / mid if mid else None)


def blocked(values: Sequence[float], fn: Callable[[Sequence[float]], float],
            size: int) -> dict:
    """``fn`` over consecutive blocks of ``size`` values (a trailing partial
    block is dropped), summarised by :func:`_over_blocks`."""
    blocks = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    return _over_blocks([fn(b) for b in blocks or [values]], len(values))


def rate_blocks(done_at: Sequence[float], start: float, end: float,
                blocks: int = 8) -> dict:
    """Completions per second in ``blocks`` equal slices of [start, end]."""
    edges = np.linspace(start, end, blocks + 1)
    counts, _ = np.histogram(np.asarray(done_at), bins=edges)
    width = (end - start) / blocks
    return _over_blocks([c / width for c in counts], len(done_at))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: name, start, end, parent, request id.

    The suite records a span *after* the call it describes has been timed,
    so recording never sits inside an operation's measured interval; its
    cost shows in phase wall time and is reported as
    ``suite.trace_overhead_frac``. ``derived`` marks spans whose duration
    was read from a public return value (``RunStats.wall_time``,
    ``Outcome.wait_s``/``service_s``) and placed inside their parent.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Optional[int] = None,
            derived: bool = False) -> int:
        if derived and parent is not None:
            lo, hi = self.rows[parent][1], self.rows[parent][2]
            start = min(max(start, lo), hi)
            end = min(max(end, start), hi)
        self.rows.append([name, start, end, parent, request, derived])
        return len(self.rows) - 1

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for i, row in enumerate(self.rows):
            if row[3] is not None:
                kids.setdefault(row[3], []).append(i)
        return kids

    def _covered(self, idx: int, kids: Sequence[int]) -> float:
        """Length of the union of ``kids`` clipped to span ``idx``."""
        lo, hi = self.rows[idx][1], self.rows[idx][2]
        total, edge = 0.0, lo
        for s, e in sorted((self.rows[k][1], self.rows[k][2]) for k in kids):
            s, e = max(s, edge), min(e, hi)
            if e > s:
                total += e - s
                edge = e
        return total

    def self_times(self) -> List[float]:
        kids = self.children()
        return [
            (row[2] - row[1]) - self._covered(i, kids.get(i, ()))
            for i, row in enumerate(self.rows)
        ]

    def wall(self, roots: Sequence[int]) -> float:
        return sum(self.rows[r][2] - self.rows[r][1] for r in roots)

    def coverage(self, roots: Sequence[int]) -> float:
        """Share of the ``roots`` intervals inside their direct children."""
        kids = self.children()
        covered = sum(self._covered(r, kids.get(r, ())) for r in roots)
        return covered / self.wall(roots)

    def layer_table(self, roots: Sequence[int]) -> Dict[str, Dict[str, float]]:
        """Per span name under ``roots``: count, total and self seconds."""
        selfs = self.self_times()
        inside = set(roots)
        table: Dict[str, Dict[str, float]] = {}
        for i, row in enumerate(self.rows):
            if row[3] in inside:
                inside.add(i)
                slot = table.setdefault(
                    row[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
                slot["count"] += 1
                slot["total_s"] += row[2] - row[1]
                slot["self_s"] += selfs[i]
        return table

    def problems(self, tolerance: float = 1e-6) -> List[str]:
        """Nesting violations and negative self times (must be empty)."""
        out = []
        for i, (name, start, end, parent, _req, _d) in enumerate(self.rows):
            if end < start:
                out.append(f"span {i} {name}: ends before it starts")
            if parent is not None:
                p = self.rows[parent]
                if start < p[1] - tolerance or end > p[2] + tolerance:
                    out.append(f"span {i} {name}: not inside parent {p[0]}")
        for i, s in enumerate(self.self_times()):
            if s < -tolerance:
                out.append(f"span {i} {self.rows[i][0]}: self time {s:.9f} < 0")
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, request, derived) in enumerate(self.rows):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "derived": derived,
                }) + "\n")


@contextmanager
def phase(rec: Optional[Spans], name: str) -> Iterator[Optional[int]]:
    """Root span around one timed phase (no-op without a recorder)."""
    if rec is None:
        yield None
        return
    sid = rec.add(name, clock(), float("inf"))
    try:
        yield sid
    finally:
        rec.rows[sid][2] = clock()


def timed(rec: Optional[Spans], parent: Optional[int], name: str,
          fn: Callable, *args, request: Optional[int] = None, **kwargs
          ) -> Tuple[object, float, float, Optional[int]]:
    """Call ``fn``; returns ``(result, t0, t1, span id)``."""
    t0 = clock()
    out = fn(*args, **kwargs)
    t1 = clock()
    sid = rec.add(name, t0, t1, parent, request) if rec is not None else None
    return out, t0, t1, sid


# ----------------------------------------------------------------------
# Run hygiene
# ----------------------------------------------------------------------
def refuse_foreign_env() -> None:
    bad = [k for k in FORBIDDEN_ENV if os.environ.get(k)]
    if bad:
        raise SystemExit(
            f"refusing to run with {', '.join(bad)} set: that measures a "
            "different program than the one the trajectory tracks")


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=5,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
        "argv": sys.argv[1:],
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """Per-process scratch under the suite's own directory (the benchmark
    may write nowhere else); WAL fsyncs land on this filesystem."""
    path = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
