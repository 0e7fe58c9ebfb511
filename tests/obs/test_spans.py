"""Span nesting, timing monotonicity, and summaries."""

import threading
import time

from repro import obs
from repro.obs import spans


def test_nesting_records_parent_and_depth():
    obs.enable()
    with obs.span("outer"):
        assert spans.current_span_name() == "outer"
        with obs.span("inner"):
            assert spans.current_span_name() == "inner"
    assert spans.current_span_name() is None
    recs = {r.name: r for r in spans.records()}
    assert recs["inner"].parent == "outer"
    assert recs["inner"].depth == 1
    assert recs["outer"].parent is None
    assert recs["outer"].depth == 0


def test_inner_span_finishes_first_and_nests_in_time():
    obs.enable()
    with obs.span("outer"):
        time.sleep(0.002)
        with obs.span("inner"):
            time.sleep(0.002)
        time.sleep(0.002)
    recs = spans.records()
    assert [r.name for r in recs] == ["inner", "outer"]
    inner, outer = recs
    assert inner.duration > 0
    assert outer.duration >= inner.duration
    assert outer.start <= inner.start
    assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9


def test_attrs_are_kept():
    obs.enable()
    with obs.span("cg.hub_query", hub=17, query="SSSP"):
        pass
    (rec,) = spans.records()
    assert rec.attrs == {"hub": 17, "query": "SSSP"}


def test_exception_still_closes_span():
    obs.enable()
    try:
        with obs.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert spans.current_span_name() is None
    assert [r.name for r in spans.records()] == ["failing"]


def test_summary_rolls_up_per_name():
    obs.enable()
    for _ in range(3):
        with obs.span("repeated"):
            pass
    rollup = spans.summary()
    assert rollup["repeated"]["count"] == 3
    assert rollup["repeated"]["total_s"] >= rollup["repeated"]["max_s"]
    assert "repeated" in spans.render_summary()


def test_records_are_a_bounded_window_but_the_summary_stays_exact():
    """A long-lived traced service must not grow without bound: records()
    keeps the most recent window, summary() still counts every span."""
    obs.enable()
    opened = spans.RECORDS_WINDOW + 37
    for i in range(opened):
        with obs.span("even" if i % 2 == 0 else "odd", i=i):
            pass
    recs = spans.records()
    assert len(recs) == spans.RECORDS_WINDOW
    assert recs[-1].attrs["i"] == opened - 1  # most recent kept
    assert recs[0].attrs["i"] == opened - spans.RECORDS_WINDOW
    rollup = spans.summary()
    assert rollup["even"]["count"] == (opened + 1) // 2
    assert rollup["odd"]["count"] == opened // 2
    assert rollup["even"]["min_s"] <= rollup["even"]["max_s"]
    spans.reset()
    assert spans.records() == [] and spans.summary() == {}


def test_threads_have_independent_stacks():
    obs.enable()
    seen = {}

    def worker(name):
        with obs.span(name):
            time.sleep(0.005)
            seen[name] = spans.current_span_name()

    threads = [
        threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {f"t{i}": f"t{i}" for i in range(4)}
    recs = spans.records()
    assert len(recs) == 4
    assert all(r.depth == 0 and r.parent is None for r in recs)
