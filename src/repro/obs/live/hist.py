"""Mergeable log-bucketed streaming histograms.

A :class:`StreamingHistogram` records every observation into one of a
fixed set of geometrically-growing buckets, so any percentile can be read
at any instant in O(buckets) with a bounded relative error of
``sqrt(growth) - 1`` (~2.5% at the default growth of 1.05) while memory
stays constant no matter how many values stream through — unlike the
bounded reservoir it replaces in :mod:`repro.serve.stats`, which silently
dropped all but the most recent window and biased saturation percentiles
toward the tail of the run.

Snapshots (:class:`HistogramSnapshot`) are immutable value objects with
associative :meth:`~HistogramSnapshot.merge` and
:meth:`~HistogramSnapshot.delta` semantics: merging per-worker or per-run
snapshots in any grouping yields the same distribution, and the delta of
two snapshots of one histogram is the distribution of what happened in
between — which is what lets ``obs report`` consume them, and a scraper
turn cumulative buckets into rates.

The bucket layout is fixed by a :class:`BucketScheme` (least bound,
growth factor, bucket count). Two histograms merge only when their
schemes agree; the default scheme spans 1e-3 .. ~1e10 — microseconds to
hours when observing milliseconds — in 620 buckets (~5 KB of ints).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class BucketScheme:
    """The geometric bucket layout shared by mergeable histograms.

    Bucket 0 holds values ``<= least``; bucket ``i`` (for ``0 < i <
    num_buckets - 1``) holds values in ``(least * growth**(i-1), least *
    growth**i]``; the last bucket is the overflow (upper bound +Inf).
    """

    least: float = 1e-3
    growth: float = 1.05
    num_buckets: int = 620

    def index(self, value: float) -> int:
        if not value > self.least:  # also catches NaN, negatives, zero
            return 0
        idx = 1 + int(math.floor(
            math.log(value / self.least) / math.log(self.growth)
        ))
        # A value exactly on a boundary may land one bucket high through
        # float error; the representative value stays within tolerance.
        return min(idx, self.num_buckets - 1)

    def upper_bound(self, index: int) -> float:
        """Inclusive upper bound of bucket ``index`` (+Inf for the last)."""
        if index >= self.num_buckets - 1:
            return math.inf
        return self.least * self.growth ** index

    def representative(self, index: int) -> float:
        """The value reported for a rank that lands in bucket ``index``.

        The geometric midpoint of the bucket's bounds, which bounds the
        relative error at ``sqrt(growth) - 1``.
        """
        if index <= 0:
            return self.least
        hi = self.least * self.growth ** index
        return hi / math.sqrt(self.growth)

    def as_tuple(self) -> Tuple[float, float, int]:
        return (self.least, self.growth, self.num_buckets)


DEFAULT_SCHEME = BucketScheme()


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time distribution; merge/delta are associative.

    ``exemplars`` is a sorted tuple of ``(bucket_index, trace_id, value)``
    triples — the most recent traced observation seen per bucket — kept
    as a tuple (not a dict) so the dataclass stays frozen and hashable.
    At most one exemplar per bucket, so memory stays bounded by the
    scheme no matter how many observations stream through.
    """

    scheme: BucketScheme
    counts: Tuple[int, ...]
    count: int
    total: float
    min: float
    max: float
    exemplars: Tuple[Tuple[int, str, float], ...] = ()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 <= q <= 1), or None when empty.

        The returned value is the bucket representative clamped to the
        observed ``[min, max]`` so tails never exceed real observations.
        """
        if self.count == 0:
            return None
        q = min(1.0, max(0.0, q))
        rank = max(1, int(math.ceil(q * self.count)))
        seen = 0
        for idx, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                rep = self.scheme.representative(idx)
                return min(self.max, max(self.min, rep))
        return self.max  # unreachable unless counts/count disagree

    def percentiles(
        self, qs: Sequence[float] = (0.50, 0.90, 0.95, 0.99)
    ) -> Dict[str, Optional[float]]:
        return {f"p{int(round(q * 100))}": self.quantile(q) for q in qs}

    # ------------------------------------------------------------------
    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two snapshots of the same scheme (associative)."""
        if self.scheme != other.scheme:
            raise ValueError(
                f"cannot merge histograms with different bucket schemes "
                f"{self.scheme.as_tuple()} vs {other.scheme.as_tuple()}"
            )
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        # Exemplar union: per bucket the right-hand operand wins, which is
        # associative (rightmost-wins under any grouping) and keeps "most
        # recent" semantics when merging chronological snapshots in order.
        ex = {idx: (tid, val) for idx, tid, val in self.exemplars}
        ex.update({idx: (tid, val) for idx, tid, val in other.exemplars})
        return HistogramSnapshot(
            scheme=self.scheme,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            exemplars=tuple(
                (idx, tid, val) for idx, (tid, val) in sorted(ex.items())
            ),
        )

    def delta(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """What was observed between ``earlier`` and this snapshot.

        ``min``/``max`` are not invertible, so the delta keeps this
        snapshot's bounds (still correct envelopes for the interval).
        """
        if self.scheme != earlier.scheme:
            raise ValueError("cannot delta histograms with different schemes")
        counts = tuple(
            max(0, a - b) for a, b in zip(self.counts, earlier.counts)
        )
        count = max(0, self.count - earlier.count)
        return HistogramSnapshot(
            scheme=self.scheme,
            counts=counts,
            count=count,
            total=max(0.0, self.total - earlier.total),
            min=self.min if count else math.inf,
            max=self.max if count else -math.inf,
            # Exemplar recency is not invertible; keep only exemplars for
            # buckets that actually saw traffic in the interval.
            exemplars=tuple(
                (idx, tid, val)
                for idx, tid, val in self.exemplars
                if idx < len(counts) and counts[idx] > 0
            ),
        )

    def exemplar_map(self) -> Dict[int, Tuple[str, float]]:
        """``{bucket_index: (trace_id, value)}`` view of :attr:`exemplars`."""
        return {idx: (tid, val) for idx, tid, val in self.exemplars}

    # ------------------------------------------------------------------
    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Non-empty cumulative ``(upper_bound, count<=bound)`` pairs.

        Always ends with ``(inf, count)`` — the Prometheus ``+Inf``
        bucket — even when the histogram is empty.
        """
        out: List[Tuple[float, int]] = []
        running = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            running += c
            out.append((self.scheme.upper_bound(idx), running))
        if not out or not math.isinf(out[-1][0]):
            out.append((math.inf, self.count))
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: sparse buckets + summary + percentiles.

        The summary keys (``count``/``sum``/``min``/``max``/``mean``) are
        what :meth:`repro.obs.metrics.MetricsRegistry.render_table` and
        journal consumers read; ``p50``/``p90``/... mark a streaming
        histogram in a metrics snapshot.
        """
        pct = self.percentiles()
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            **pct,
            "scheme": list(self.scheme.as_tuple()),
            "buckets": {
                str(i): c for i, c in enumerate(self.counts) if c
            },
        }
        if self.exemplars:
            out["exemplars"] = {
                str(idx): [tid, val] for idx, tid, val in self.exemplars
            }
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HistogramSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output (journal lines)."""
        least, growth, num_buckets = payload.get(
            "scheme", list(DEFAULT_SCHEME.as_tuple())
        )
        scheme = BucketScheme(float(least), float(growth), int(num_buckets))
        counts = [0] * scheme.num_buckets
        for key, c in (payload.get("buckets") or {}).items():
            idx = int(key)
            if 0 <= idx < scheme.num_buckets:
                counts[idx] = int(c)
        count = int(payload.get("count", sum(counts)))
        mn = payload.get("min")
        mx = payload.get("max")
        exemplars = tuple(
            sorted(
                (int(key), str(tid), float(val))
                for key, (tid, val) in (payload.get("exemplars") or {}).items()
            )
        )
        return cls(
            scheme=scheme,
            counts=tuple(counts),
            count=count,
            total=float(payload.get("sum", 0.0)),
            min=math.inf if mn is None else float(mn),
            max=-math.inf if mx is None else float(mx),
            exemplars=exemplars,
        )

    @classmethod
    def empty(cls, scheme: BucketScheme = DEFAULT_SCHEME) -> "HistogramSnapshot":
        return cls(
            scheme=scheme,
            counts=(0,) * scheme.num_buckets,
            count=0,
            total=0.0,
            min=math.inf,
            max=-math.inf,
        )


def merge_snapshots(
    snapshots: Iterable[HistogramSnapshot],
) -> Optional[HistogramSnapshot]:
    """Fold any number of same-scheme snapshots into one (order-free)."""
    merged: Optional[HistogramSnapshot] = None
    for snap in snapshots:
        merged = snap if merged is None else merged.merge(snap)
    return merged


class StreamingHistogram:
    """Thread-safe streaming histogram over a fixed :class:`BucketScheme`.

    Duck-type compatible with :class:`repro.obs.metrics.Histogram`
    (``observe``/``count``/``total``/``min``/``max``/``mean``), plus
    instant percentiles and snapshot/merge/delta semantics.
    """

    __slots__ = (
        "scheme", "_lock", "_counts", "_exemplars",
        "count", "total", "min", "max",
    )

    def __init__(self, scheme: BucketScheme = DEFAULT_SCHEME) -> None:
        self.scheme = scheme
        self._lock = threading.Lock()
        self._counts = [0] * scheme.num_buckets
        # bucket index -> (trace_id, value) of the latest traced
        # observation; at most one entry per bucket, so bounded.
        self._exemplars: Dict[int, Tuple[str, float]] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        idx = self.scheme.index(value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if exemplar is not None:
                self._exemplars[idx] = (exemplar, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                scheme=self.scheme,
                counts=tuple(self._counts),
                count=self.count,
                total=self.total,
                min=self.min,
                max=self.max,
                exemplars=tuple(
                    (idx, tid, val)
                    for idx, (tid, val) in sorted(self._exemplars.items())
                ),
            )

    def merge(self, other: HistogramSnapshot) -> None:
        """Fold a snapshot in (:meth:`HistogramSnapshot.merge` semantics:
        counts add, ``other``'s exemplars win per bucket)."""
        if other.scheme != self.scheme:
            raise ValueError("cannot merge histograms with different schemes")
        with self._lock:
            for idx, n in enumerate(other.counts):
                self._counts[idx] += n
            self._exemplars.update(other.exemplar_map())
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def quantile(self, q: float) -> Optional[float]:
        return self.snapshot().quantile(q)

    def percentiles(
        self, qs: Sequence[float] = (0.50, 0.90, 0.95, 0.99)
    ) -> Dict[str, Optional[float]]:
        return self.snapshot().percentiles(qs)

    def to_dict(self) -> Dict[str, Any]:
        return self.snapshot().to_dict()

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * self.scheme.num_buckets
            self._exemplars.clear()
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = -math.inf
