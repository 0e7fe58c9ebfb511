"""Streaming histograms: accuracy, merge algebra, and journal round-trip."""

import math

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.live.hist import (
    DEFAULT_SCHEME,
    BucketScheme,
    HistogramSnapshot,
    StreamingHistogram,
    merge_snapshots,
)

#: The scheme guarantees sqrt(growth) - 1 relative error per bucket
#: (~2.5% at growth 1.05); the quantile-vs-numpy comparison also absorbs
#: the rank-interpolation difference, hence the looser bound.
RTOL = 0.06


def _filled(values):
    hist = StreamingHistogram()
    for v in values:
        hist.observe(float(v))
    return hist


def test_quantiles_match_numpy_percentile():
    rng = np.random.default_rng(42)
    values = rng.lognormal(mean=3.0, sigma=1.2, size=20_000)
    hist = _filled(values)
    for q in (0.50, 0.90, 0.95, 0.99):
        got = hist.quantile(q)
        want = float(np.percentile(values, q * 100))
        assert got == pytest.approx(want, rel=RTOL), f"q={q}"


def test_quantiles_match_numpy_on_uniform_and_bimodal():
    rng = np.random.default_rng(7)
    uniform = rng.uniform(0.5, 500.0, size=10_000)
    # a 50/50 bimodal: q=0.5 sits exactly on the discontinuity, where
    # numpy interpolates across the gap while a histogram (correctly)
    # answers from one mode — so probe inside each mode instead.
    bimodal = np.concatenate([
        rng.normal(10.0, 1.0, size=5_000),
        rng.normal(900.0, 30.0, size=5_000),
    ])
    for values, qs in (
        (uniform, (0.50, 0.95, 0.99)),
        (bimodal, (0.25, 0.90, 0.99)),
    ):
        hist = _filled(values)
        for q in qs:
            want = float(np.percentile(values, q * 100))
            assert hist.quantile(q) == pytest.approx(want, rel=RTOL)


def test_quantile_clamped_to_observed_range():
    hist = _filled([5.0, 5.0, 5.0])
    snap = hist.snapshot()
    assert snap.quantile(0.0) >= 5.0 * (1 - RTOL)
    assert snap.quantile(1.0) <= 5.0
    assert snap.quantile(1.0) >= snap.min


def test_empty_histogram():
    snap = HistogramSnapshot.empty()
    assert snap.count == 0
    assert snap.quantile(0.5) is None
    assert snap.mean == 0.0
    # the Prometheus +Inf bucket survives emptiness
    assert snap.cumulative_buckets() == [(math.inf, 0)]


def test_merge_is_associative_and_order_free():
    rng = np.random.default_rng(3)
    parts = [
        _filled(rng.lognormal(1.0, 0.8, size=500)).snapshot()
        for _ in range(3)
    ]
    a, b, c = parts
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert merge_snapshots([c, a, b]) == left


def test_merge_equals_histogram_of_concatenation():
    rng = np.random.default_rng(8)
    xs = rng.uniform(1, 100, size=1000)
    ys = rng.uniform(50, 5000, size=1000)
    merged = _filled(xs).snapshot().merge(_filled(ys).snapshot())
    whole = _filled(np.concatenate([xs, ys])).snapshot()
    assert merged.counts == whole.counts
    assert merged.count == whole.count
    assert merged.total == pytest.approx(whole.total)
    assert merged.min == whole.min and merged.max == whole.max


def test_merge_rejects_mismatched_schemes():
    a = StreamingHistogram().snapshot()
    b = StreamingHistogram(BucketScheme(least=1.0)).snapshot()
    with pytest.raises(ValueError, match="scheme"):
        a.merge(b)
    with pytest.raises(ValueError, match="scheme"):
        StreamingHistogram().merge(b)


def test_live_histogram_folds_a_snapshot_in_like_snapshot_merge():
    live, other = StreamingHistogram(), StreamingHistogram()
    live.observe(3.0, exemplar="t-old")
    other.observe(3.0, exemplar="t-new")
    other.observe(700.0)
    expected = live.snapshot().merge(other.snapshot())
    live.merge(other.snapshot())
    assert live.snapshot() == expected
    live.merge(StreamingHistogram().snapshot())  # folding nothing is a no-op
    assert live.snapshot() == expected


def test_delta_recovers_the_interval():
    hist = StreamingHistogram()
    for v in (1.0, 2.0, 4.0):
        hist.observe(v)
    earlier = hist.snapshot()
    for v in (100.0, 200.0):
        hist.observe(v)
    delta = hist.snapshot().delta(earlier)
    assert delta.count == 2
    assert delta.total == pytest.approx(300.0)
    # only the interval's buckets remain
    assert sum(delta.counts) == 2


def test_cumulative_buckets_are_monotone_and_end_at_inf():
    rng = np.random.default_rng(5)
    snap = _filled(rng.lognormal(2.0, 1.0, size=2000)).snapshot()
    buckets = snap.cumulative_buckets()
    bounds = [b for b, _ in buckets]
    counts = [c for _, c in buckets]
    assert bounds == sorted(bounds)
    assert counts == sorted(counts)
    assert math.isinf(bounds[-1]) and counts[-1] == snap.count


def test_to_dict_round_trips_through_from_dict():
    rng = np.random.default_rng(9)
    snap = _filled(rng.lognormal(0.5, 1.5, size=3000)).snapshot()
    back = HistogramSnapshot.from_dict(snap.to_dict())
    assert back == snap


def test_to_dict_is_superset_of_plain_histogram_shape():
    snap = _filled([1.0, 10.0, 100.0]).snapshot()
    d = snap.to_dict()
    for key in ("count", "sum", "min", "max", "mean"):
        assert key in d
    for key in ("p50", "p90", "p95", "p99"):
        assert key in d


def test_underflow_and_overflow_buckets():
    hist = StreamingHistogram()
    hist.observe(-5.0)   # negatives land in bucket 0
    hist.observe(0.0)
    hist.observe(1e12)   # beyond the top bound lands in the last bucket
    snap = hist.snapshot()
    assert snap.counts[0] == 2
    assert snap.counts[-1] == 1


def test_registry_stream_hist_shares_instances_and_resets():
    with_labels = obs_metrics.stream_hist("serve.latency_ms", kind="ok")
    again = obs_metrics.stream_hist("serve.latency_ms", kind="ok")
    assert with_labels is again
    with_labels.observe(3.0)
    rendered = obs_metrics.REGISTRY.snapshot()
    key = 'serve.latency_ms{kind="ok"}'
    assert rendered[key]["count"] == 1
    assert "p50" in rendered[key]
    obs_metrics.REGISTRY.reset()
    assert obs_metrics.stream_hist("serve.latency_ms", kind="ok").count == 0
