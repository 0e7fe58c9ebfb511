"""Process runtime collector: RSS, CPU, GC activity, thread count.

Pure scrape-time sampling — nothing here writes into the shared metrics
registry, so scraping a process never perturbs the journal/baseline
snapshots the regression gate compares. :func:`collect` returns exporter
rows (see :mod:`repro.obs.live.prom`) computed on the spot from
``/proc/self`` (with a ``resource`` fallback), :mod:`gc` counters, and
:mod:`threading`.

GC *pauses* need instrumentation, not sampling: :func:`track_gc` hooks
``gc.callbacks`` and times each collection into a module-level streaming
histogram (``proc.gc.pause_ms``), which :func:`collect` exports alongside
the sampled gauges. The hook is idempotent and removable.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs.live.hist import StreamingHistogram
from repro.obs.live.prom import Row

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> Optional[float]:
    """Resident set size in bytes, or None when unavailable."""
    try:
        with open("/proc/self/statm") as fh:
            fields = fh.read().split()
        return float(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(peak_kb) * 1024.0  # peak, not current — best effort
    except (ImportError, OSError):
        return None


def cpu_seconds() -> Optional[float]:
    """User+system CPU time consumed by this process."""
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    except (ImportError, OSError):
        return None


# ---------------------------------------------------------------------------
# GC pause tracking (gc.callbacks hook)
# ---------------------------------------------------------------------------

_GC_PAUSES = StreamingHistogram()
_gc_lock = threading.Lock()
_gc_start: Dict[int, float] = {}
# Pauses wait here until gc_pauses() folds them into the histogram. The
# hook must never take the histogram's lock: any allocation inside
# snapshot() can start a collection, which runs the hook on the thread
# that already holds that lock. Appends are atomic and allocate nothing
# the collector tracks; the bound caps memory when nobody scrapes.
_gc_pending: "deque[float]" = deque(maxlen=65536)


def _gc_callback(phase: str, info: Dict[str, int]) -> None:
    # CPython runs a collection synchronously in whichever thread
    # triggered it, so start/stop pair up per thread ident.
    ident = threading.get_ident()
    if phase == "start":
        with _gc_lock:
            _gc_start[ident] = time.perf_counter()
    elif phase == "stop":
        with _gc_lock:
            t0 = _gc_start.pop(ident, None)
        if t0 is not None:
            _gc_pending.append((time.perf_counter() - t0) * 1e3)


def track_gc(enable: bool = True) -> None:
    """Install (or remove) the GC pause timing hook; idempotent."""
    installed = _gc_callback in gc.callbacks
    if enable and not installed:
        gc.callbacks.append(_gc_callback)
    elif not enable and installed:
        gc.callbacks.remove(_gc_callback)


def gc_pauses() -> StreamingHistogram:
    """The histogram :func:`track_gc` feeds (milliseconds per collection)."""
    while True:
        try:
            pause_ms = _gc_pending.popleft()
        except IndexError:
            return _GC_PAUSES
        _GC_PAUSES.observe(pause_ms)


# ---------------------------------------------------------------------------
# Exporter rows
# ---------------------------------------------------------------------------


def collect() -> List[Row]:
    """Current process runtime series as exporter rows."""
    rows: List[Row] = []
    rss = rss_bytes()
    if rss is not None:
        rows.append(("gauge", "proc.rss_bytes", (), rss))
    cpu = cpu_seconds()
    if cpu is not None:
        rows.append(("gauge", "proc.cpu_seconds", (), cpu))
    rows.append(("gauge", "proc.threads", (), float(threading.active_count())))
    for gen, stats in enumerate(gc.get_stats()):
        labels = (("generation", str(gen)),)
        rows.append(
            ("counter", "proc.gc.collections", labels,
             float(stats.get("collections", 0)))
        )
        rows.append(
            ("counter", "proc.gc.collected", labels,
             float(stats.get("collected", 0)))
        )
        rows.append(
            ("counter", "proc.gc.uncollectable", labels,
             float(stats.get("uncollectable", 0)))
        )
    rows.append(("stream_hist", "proc.gc.pause_ms", (), gc_pauses()))
    return rows
