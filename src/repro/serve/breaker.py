"""Circuit breaker around the 2Phase Completion Phase.

The Completion Phase is the expensive half of Algorithm 3 — it touches
the full graph while the Core Phase touches only the ~10%-edge core
graph. Under overload it is also the *sheddable* half: skipping it still
yields a certified, mostly-precise answer (the paper's Theorem 1 edges
are exact; the rest carry CERT_APPROX). The breaker decides when to shed.

States follow the classic pattern:

* CLOSED — completions run; ``FAILURE_THRESHOLD`` consecutive
  ``BudgetExceeded`` failures trip the breaker;
* OPEN — completions are shed wholesale until ``cooldown_s`` elapses;
* HALF_OPEN — one probe request is allowed through; success closes the
  breaker, failure re-opens it and restarts the cooldown. A probe that
  never reports (its Core Phase aborted, or its worker died) does not
  wedge the breaker: once ``cooldown_s`` has passed since that probe was
  admitted, the next request becomes a fresh probe.

The clock is injectable so trip/cooldown/probe transitions are testable
without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive Completion-Phase budget blowups that trip the breaker.
FAILURE_THRESHOLD = 3

#: Gauge encoding for serve.breaker.state.
_STATE_CODE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Trip on consecutive Completion-Phase failures."""

    def __init__(
        self,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_at: Optional[float] = None
        self.trips = 0
        self.probes = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow_completion(self) -> bool:
        """Whether the next request may run its Completion Phase.

        While OPEN, flips to HALF_OPEN once the cooldown has elapsed and
        admits that caller as the probe. While HALF_OPEN, sheds until the
        probe reports back — or until ``cooldown_s`` has passed since it
        was admitted, when the caller becomes the next probe.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            now = self._clock()
            if self._state == OPEN:
                assert self._opened_at is not None
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._transition(HALF_OPEN, "cooldown_elapsed")
            else:
                assert self._probe_at is not None
                if now - self._probe_at < self.cooldown_s:
                    return False
            self._probe_at = now
            self.probes += 1
            return True

    def record_success(self) -> None:
        """A Completion Phase finished inside its budget."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._transition(CLOSED, "probe_succeeded")

    def record_failure(self) -> None:
        """A Completion Phase blew its budget (``BudgetExceeded``)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip("probe_failed")
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= FAILURE_THRESHOLD
            ):
                self._trip("consecutive_failures")

    # ------------------------------------------------------------------
    def _trip(self, reason: str) -> None:
        # Caller holds the lock.
        self.trips += 1
        self._consecutive_failures = 0
        self._transition(OPEN, reason)
        if obs_runtime._enabled:
            obs_metrics.counter("serve.breaker.trips").inc()

    def _transition(self, new_state: str, reason: str) -> None:
        # Caller holds the lock.
        old = self._state
        self._state = new_state
        if new_state == OPEN:
            self._opened_at = self._clock()
        if obs_runtime._enabled:
            obs_metrics.gauge("serve.breaker.state").set(_STATE_CODE[new_state])
            obs_journal.emit({
                "type": "event", "name": "serve.breaker",
                "transition": f"{old}->{new_state}", "reason": reason,
            })

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "trips": self.trips,
                "probes": self.probes,
                "consecutive_failures": self._consecutive_failures,
            }
