"""Wall-clock sampling profiler with span attribution.

A daemon thread wakes every ``interval_s``, grabs every thread's current
stack via ``sys._current_frames()`` (one GIL-held dict copy — the threads
themselves are never interrupted), and files each stack under the
innermost open :func:`repro.obs.span` on that thread. That attribution is
what turns raw stacks into the paper's cost model: samples land in
``twophase.core`` / ``twophase.completion`` / ``cg.build`` buckets, and a
serve worker parked between requests shows up as ``worker-idle`` instead
of polluting a phase.

Aggregation is a bounded dict of ``(label, frames) -> count`` — memory is
capped at ``max_stacks`` distinct stacks regardless of runtime; overflow
stacks collapse into one sentinel bucket and are counted in the
``obs.live.profiler.dropped`` metric. Snapshots render as collapsed-stack
flamegraph lines (``label;frame;frame count``, Brendan Gregg's format)
and as a per-span self-time table for ``obs report``.

The sampler is runtime-togglable: :func:`start_profiler` /
:func:`stop_profiler` manage one process-wide instance (the CLI's
``--profile`` flag and the service's exporter both use this), and the
sampling loop declares the ``obs.live.profiler.sample`` fault site so
chaos tests can kill and restart it mid-run.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.resilience.atomic import atomic_write_text
from repro.resilience.faults import InjectedFault, fault_point

#: Frames deeper than this are truncated (root-most kept) — bounds both
#: memory per stack and collapsed-line width.
MAX_FRAMES = 64

#: Attribution label for serve workers parked between requests.
IDLE_LABEL = "worker-idle"
#: Attribution label for threads with no open span and no idle claim.
NO_SPAN_LABEL = "(no-span)"
#: Bucket absorbing stacks past the ``max_stacks`` memory bound.
OVERFLOW_LABEL = "(overflow)"

_WORKER_PREFIX = "serve-worker"
#: Our own plumbing threads never charge samples to the workload.
_SELF_THREADS = ("obs-live-profiler", "obs-live-exporter")


@dataclass(frozen=True)
class ProfileSnapshot:
    """Immutable sample aggregate taken from a running profiler."""

    stacks: Tuple[Tuple[str, Tuple[str, ...], int], ...]
    total_samples: int
    ticks: int
    dropped: int
    duration_s: float
    interval_s: float

    @property
    def effective_interval_s(self) -> float:
        """Measured seconds per sampling tick (>= the requested interval)."""
        if self.ticks:
            return self.duration_s / self.ticks
        return self.interval_s

    def self_time(self) -> Dict[str, Dict[str, float]]:
        """Per-label rollup: samples, share of total, estimated seconds.

        Wall-clock sampling makes sample count an unbiased wall-time
        estimator; scaling by the *measured* tick period (rather than
        the requested interval) keeps estimates honest when sampling
        overhead stretches the loop.
        """
        rollup: Dict[str, Dict[str, float]] = {}
        for label, _frames, count in self.stacks:
            agg = rollup.setdefault(label, {"samples": 0})
            agg["samples"] += count
        for agg in rollup.values():
            agg["share"] = (
                agg["samples"] / self.total_samples
                if self.total_samples else 0.0
            )
            agg["est_s"] = agg["samples"] * self.effective_interval_s
        return rollup

    def span_share(self, *labels: str) -> float:
        """Fraction of all samples attributed to the given span labels."""
        if not self.total_samples:
            return 0.0
        wanted = sum(
            count for label, _f, count in self.stacks if label in labels
        )
        return wanted / self.total_samples

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph lines, attribution label as root."""
        lines = []
        for label, frames, count in sorted(self.stacks):
            stack = ";".join((label,) + frames)
            lines.append(f"{stack} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: object) -> None:
        """Write :meth:`collapsed` atomically (crash leaves no torn file)."""
        atomic_write_text(path, self.collapsed())

    def render_table(self) -> str:
        """Aligned per-span self-time table (sample-count descending)."""
        rollup = self.self_time()
        if not rollup:
            return "no profile samples recorded"
        lines = [f"{'span':32s} {'samples':>8s} {'share':>7s} {'est s':>9s}"]
        for label, agg in sorted(
            rollup.items(), key=lambda kv: kv[1]["samples"], reverse=True
        ):
            lines.append(
                f"{label:32s} {int(agg['samples']):>8d} "
                f"{agg['share'] * 100:>6.1f}% {agg['est_s']:>9.3f}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_samples": self.total_samples,
            "ticks": self.ticks,
            "dropped": self.dropped,
            "duration_s": self.duration_s,
            "interval_s": self.interval_s,
            "self_time": self.self_time(),
        }


def _frame_name(frame: object) -> str:
    code = frame.f_code  # type: ignore[attr-defined]
    base = os.path.basename(code.co_filename)
    # Collapsed format separates frames with ';' and counts with ' ' —
    # keep both out of frame names.
    name = f"{base}:{code.co_name}".replace(";", ",").replace(" ", "_")
    return name


class Profiler:
    """One sampling thread; use :func:`start_profiler` for the shared one."""

    def __init__(
        self,
        interval_s: float = 0.005,
        max_stacks: int = 10_000,
    ) -> None:
        self.interval_s = max(1e-4, float(interval_s))
        self.max_stacks = int(max_stacks)
        self._lock = threading.Lock()
        self._stacks: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._total = 0
        self._ticks = 0
        self._dropped = 0
        self._started_at = 0.0
        self._stopped_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "Profiler":
        if self._thread is not None:
            return self
        self._started_at = time.perf_counter()
        self._stopped_at = None
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-live-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> "ProfileSnapshot":
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None
        if self._stopped_at is None:
            self._stopped_at = time.perf_counter()
        return self.snapshot()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                fault_point("obs.live.profiler.sample")
                self._sample_once()
            except InjectedFault:
                # A killed sample tick loses one sample, not the profiler.
                obs_metrics.counter("obs.live.profiler.dropped").inc()
                with self._lock:
                    self._dropped += 1
            # time.sleep, not Event.wait: a condvar timed-wait wakes the
            # GIL arbitration hard enough to cost a busy workload thread
            # ~20% at a 5 ms period; a plain sleep costs <3%. Stop
            # latency is bounded by one interval, which stop()'s join
            # timeout comfortably covers.
            time.sleep(self.interval_s)

    def _sample_once(self) -> None:
        with self._lock:
            self._ticks += 1
        my_ident = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        open_by_ident = obs_spans.open_spans()
        frames = sys._current_frames()
        sampled = 0
        for ident, frame in frames.items():
            name = names.get(ident, "")
            if ident == my_ident or name.startswith(_SELF_THREADS):
                continue
            label = open_by_ident.get(ident)
            if label is None:
                label = (
                    IDLE_LABEL if name.startswith(_WORKER_PREFIX)
                    else NO_SPAN_LABEL
                )
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_FRAMES:
                stack.append(_frame_name(frame))
                frame = frame.f_back  # type: ignore[attr-defined]
                depth += 1
            stack.reverse()  # collapsed format wants root first
            self._record(label, tuple(stack))
            sampled += 1
        if sampled:
            obs_metrics.counter("obs.live.profiler.samples").inc(sampled)

    def _record(self, label: str, stack: Tuple[str, ...]) -> None:
        key = (label, stack)
        with self._lock:
            self._total += 1
            if key in self._stacks:
                self._stacks[key] += 1
            elif len(self._stacks) < self.max_stacks:
                self._stacks[key] = 1
            else:
                # Memory bound: collapse novel stacks into one bucket.
                self._dropped += 1
                overflow = (OVERFLOW_LABEL, ())
                self._stacks[overflow] = self._stacks.get(overflow, 0) + 1

    # ------------------------------------------------------------------
    def snapshot(self) -> ProfileSnapshot:
        end = self._stopped_at
        if end is None:
            end = time.perf_counter()
        with self._lock:
            stacks = tuple(
                (label, frames, count)
                for (label, frames), count in self._stacks.items()
            )
            total = self._total
            ticks = self._ticks
            dropped = self._dropped
        return ProfileSnapshot(
            stacks=stacks,
            total_samples=total,
            ticks=ticks,
            dropped=dropped,
            duration_s=max(0.0, end - self._started_at),
            interval_s=self.interval_s,
        )

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._total = 0
            self._ticks = 0
            self._dropped = 0


# ---------------------------------------------------------------------------
# The process-wide toggle the CLI and service use
# ---------------------------------------------------------------------------

_active_lock = threading.Lock()
_active: Optional[Profiler] = None


def start_profiler(interval_s: float = 0.005) -> Profiler:
    """Start (or return) the shared profiler; idempotent while running."""
    global _active
    with _active_lock:
        if _active is not None and _active.running:
            return _active
        _active = Profiler(interval_s=interval_s)
        return _active.start()


def stop_profiler() -> Optional[ProfileSnapshot]:
    """Stop the shared profiler; returns its final snapshot, if it ran."""
    global _active
    with _active_lock:
        prof = _active
        _active = None
    if prof is None:
        return None
    return prof.stop()


def active_profiler() -> Optional[Profiler]:
    with _active_lock:
        return _active
