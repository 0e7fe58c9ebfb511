"""Supervised background core-graph rebuilds with crash retry.

The rebuilder is a daemon thread shaped like the serve worker pool's
supervisor: an outer supervise loop restarts the inner loop after a crash
(capped exponential backoff), and the inner loop polls the maintainer's
quality policy and runs Algorithm 1/2 when it asks. A retry starts
clean — hub queries are pure, so re-running them is correctness-free.

Crash model: the ``evolve.rebuild`` fault point fires inside the build,
``evolve.swap`` inside publication, and ``evolve.supervisor.tick`` in the
polling loop — a kill-storm across all three must leave the service
answering on a consistent epoch, with the rebuild eventually landing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.evolve.maintainer import EpochMaintainer
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.resilience.faults import fault_point

#: Backoff between crash restarts: doubles from the base, capped.
BACKOFF_BASE_S = 0.02
BACKOFF_MAX_S = 1.0


@dataclass
class RebuildStats:
    """Lifecycle accounting for the background rebuilder."""

    attempts: int = 0
    rebuilds: int = 0
    failures: int = 0
    supervisor_restarts: int = 0
    last_error: str = ""
    last_epoch: Optional[int] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class RebuildSupervisor:
    """Runs maintenance rebuilds in the background, surviving crashes.

    Parameters
    ----------
    maintainer:
        The single writer whose quality policy decides when to rebuild.
    poll_interval_s:
        Inner-loop sleep between policy checks.
    """

    def __init__(
        self, maintainer: EpochMaintainer, poll_interval_s: float = 0.02
    ) -> None:
        self.maintainer = maintainer
        self.poll_interval_s = poll_interval_s
        self.stats = RebuildStats()
        self._stop = threading.Event()
        self._force = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RebuildSupervisor":
        if self._thread is not None:
            raise RuntimeError("rebuild supervisor already started")
        self._thread = threading.Thread(
            target=self._supervise, name="evolve-rebuild", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def request_rebuild(self) -> None:
        """Force a rebuild on the next tick regardless of the probe."""
        self._force.set()

    # ------------------------------------------------------------------
    # Supervision (outer loop: restart-on-crash with capped backoff)
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        restarts = 0
        while not self._stop.is_set():
            try:
                self._loop()
                return  # clean stop
            except BaseException as exc:  # repro: noqa RC004 — supervision boundary: rebuild crashed; record and restart with backoff
                restarts += 1
                with self.stats._lock:
                    self.stats.supervisor_restarts += 1
                    self.stats.failures += 1
                    self.stats.last_error = f"{type(exc).__name__}: {exc}"
                if obs_runtime._enabled:
                    obs_metrics.counter("evolve.rebuild.failures").inc()
                backoff = min(
                    BACKOFF_MAX_S,
                    BACKOFF_BASE_S * (2 ** min(restarts - 1, 6)),
                )
                if self._stop.wait(backoff):
                    return

    def _loop(self) -> None:
        while not self._stop.is_set():
            fault_point("evolve.supervisor.tick")
            forced = self._force.is_set()
            if forced or self.maintainer.needs_rebuild():
                # The force flag survives a crashed attempt, so a
                # restarted supervisor retries the rebuild instead of
                # dropping the request on the floor.
                self._attempt()
                self._force.clear()
            if self._stop.wait(self.poll_interval_s):
                return

    # ------------------------------------------------------------------
    # One rebuild attempt
    # ------------------------------------------------------------------
    def _attempt(self) -> None:
        with self.stats._lock:
            self.stats.attempts += 1
        snapshot = self.maintainer.rebuild_snapshot()
        proxy = self.maintainer.build_proxy(snapshot)
        epoch = self.maintainer.install_rebuild(snapshot, proxy)
        with self.stats._lock:
            self.stats.rebuilds += 1
            self.stats.last_epoch = epoch.number

    def describe(self) -> str:
        s = self.stats
        # Snapshot under the stats lock: the supervisor thread bumps
        # these counters, and a line mixing counts from two different
        # rebuilds would misreport progress.
        with s._lock:
            return (
                f"rebuilds={s.rebuilds} attempts={s.attempts} "
                f"failures={s.failures} "
                f"restarts={s.supervisor_restarts}"
            )
