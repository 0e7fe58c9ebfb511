"""Supervised worker pool: each worker thread is restarted on death.

A worker dying — whether from an injected ``serve.worker.request`` fault
or a real bug — must cost at most one retry of the in-flight request,
never a stuck service. The supervision loop catches the escaped exception
at the thread's outermost frame, reports it to the service (which requeues
the in-flight request once, or poisons it on the second death), backs off
with capped exponential delay, and starts a fresh worker loop.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List

from repro.obs import trace as obs_trace
from repro.resilience.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.service import QueryService

#: Restart backoff after a worker death: doubles from the base, capped.
RESTART_BASE_DELAY_S = 0.005
RESTART_MAX_DELAY_S = 0.25


class WorkerPool:
    """Fixed-size pool of daemon worker threads with a supervisor wrapper."""

    def __init__(self, service: "QueryService", num_workers: int) -> None:
        self._service = service
        self.num_workers = num_workers
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def start(self) -> None:
        for wid in range(self.num_workers):
            t = threading.Thread(
                target=self._supervise,
                args=(wid,),
                name=f"serve-worker-{wid}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    def alive_count(self) -> int:
        """Worker threads currently alive (the /healthz liveness signal)."""
        return sum(1 for t in self._threads if t.is_alive())

    # ------------------------------------------------------------------
    def _supervise(self, wid: int) -> None:
        """Outermost frame of a worker thread: restart the loop on death."""
        restarts = 0
        while not self._stop.is_set():
            try:
                self._loop(wid)
                return  # clean shutdown
            except Exception as exc:  # repro: noqa RC004 — supervision boundary: the worker died; record and restart
                restarts += 1
                self._service._on_worker_restart(wid, exc, restarts)
                delay = min(
                    RESTART_MAX_DELAY_S,
                    RESTART_BASE_DELAY_S * (2 ** min(restarts - 1, 6)),
                )
                self._stop.wait(delay)

    def _loop(self, wid: int) -> None:
        """Pop-and-execute until shutdown; any escape kills this worker."""
        while not self._stop.is_set():
            req = self._service._queue.pop(timeout=0.05)
            if req is None:
                continue
            # The whole worker-side lifetime runs under the request's
            # trace context, so engine spans, fault fires, and the
            # death/requeue path are all stamped with its trace id.
            with obs_trace.use(req.trace):
                try:
                    fault_point("serve.worker.request")
                    outcome = self._service._execute(req)
                    self._service._resolve(req, outcome)
                except BaseException as exc:
                    # The request dies with the worker: hand it back to
                    # the service (requeue-once / poison) before
                    # re-raising into the supervisor.
                    self._service._on_worker_death(wid, req, exc)
                    raise
