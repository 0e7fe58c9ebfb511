"""Bounded priority admission queue with load shedding.

Backpressure design: the queue never grows past ``capacity``. When it is
full, :meth:`AdmissionQueue.offer` returns False immediately and the
service converts that into a typed ``queue_full`` rejection — shedding
load at the door instead of buffering unboundedly and timing everything
out later (the classic overload failure mode this PR exists to avoid).

Ordering is priority-first (higher ``QueryRequest.priority`` pops first),
FIFO within a priority class. :meth:`requeue` re-inserts a request that
was already admitted — it jumps to the *front* of its priority class (it
has waited once already) and is exempt from the capacity check, because
the slot it occupied was conceptually still held while it was in flight.
"""

from __future__ import annotations

import heapq
import threading
from typing import List, Optional, Tuple

from repro.serve.request import QueryRequest


class AdmissionQueue:
    """Thread-safe bounded priority queue of :class:`QueryRequest`."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._cond = threading.Condition()
        self._heap: List[Tuple[int, int, QueryRequest]] = []
        self._seq = 0
        # Requeues get decreasing sequence numbers so they sort ahead of
        # every normal entry in the same priority class.
        self._front_seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    def offer(self, req: QueryRequest) -> bool:
        """Admit ``req``; False when the queue is full or closed."""
        with self._cond:
            if self._closed or len(self._heap) >= self.capacity:
                return False
            self._seq += 1
            heapq.heappush(self._heap, (-req.priority, self._seq, req))
            self._cond.notify()
            return True

    def requeue(self, req: QueryRequest) -> bool:
        """Re-admit an in-flight request at the front of its priority class."""
        with self._cond:
            if self._closed:
                return False
            self._front_seq -= 1
            heapq.heappush(self._heap, (-req.priority, self._front_seq, req))
            self._cond.notify()
            return True

    def pop(self, timeout: Optional[float] = None) -> Optional[QueryRequest]:
        """Highest-priority request, or None on timeout / closed-and-empty."""
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None
            _, _, req = heapq.heappop(self._heap)
            return req

    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._cond:
            return len(self._heap)

    def close(self) -> List[QueryRequest]:
        """Refuse further offers; return the never-served leftovers.

        The service resolves each leftover as a ``shutdown`` rejection, so
        closing cannot strand a ticket.
        """
        with self._cond:
            self._closed = True
            leftovers = [req for _, _, req in sorted(self._heap)]
            self._heap.clear()
            self._cond.notify_all()
            return leftovers
