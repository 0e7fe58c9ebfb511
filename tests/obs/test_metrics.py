"""Metrics registry: identity, labels, aggregation, rendering."""

from repro.obs import metrics
from repro.obs.metrics import REGISTRY, Histogram, format_metric


def test_counter_identity_is_name_plus_labels():
    a = REGISTRY.counter("engine.edges_scanned", phase="core")
    b = REGISTRY.counter("engine.edges_scanned", phase="core")
    c = REGISTRY.counter("engine.edges_scanned", phase="completion")
    a.inc(10)
    b.inc(5)
    c.inc(1)
    assert a is b
    assert a is not c
    assert a.value == 15


def test_aggregate_sums_across_label_sets():
    REGISTRY.counter("work", phase="a").inc(3)
    REGISTRY.counter("work", phase="b").inc(4)
    REGISTRY.counter("work").inc(1)
    REGISTRY.counter("other").inc(100)
    assert REGISTRY.aggregate("work") == 8


def test_none_labels_are_dropped():
    bare = REGISTRY.counter("m", phase=None)
    assert bare is REGISTRY.counter("m")
    bare.inc()
    assert "m" in REGISTRY.snapshot()


def test_gauge_keeps_last_value():
    g = REGISTRY.gauge("twophase.impacted", query="SSSP")
    g.set(100)
    g.set(42)
    assert g.value == 42


def test_histogram_statistics():
    h = Histogram()
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 6.0
    assert h.min == 1.0
    assert h.max == 3.0
    assert h.mean == 2.0


def test_snapshot_renders_prometheus_style_keys():
    REGISTRY.counter("engine.edges_scanned", phase="core").inc(7)
    snap = REGISTRY.snapshot()
    assert snap['engine.edges_scanned{phase="core"}'] == 7


def test_format_metric_sorts_labels():
    key = format_metric("m", (("a", "1"), ("b", "2")))
    assert key == 'm{a="1",b="2"}'


def test_render_table_and_reset():
    REGISTRY.counter("c").inc(2)
    REGISTRY.stream_hist("h").observe(1.5)
    table = REGISTRY.render_table()
    assert "c" in table and "count=1" in table
    REGISTRY.reset()
    assert REGISTRY.snapshot() == {}
    assert REGISTRY.render_table() == "no metrics recorded"


def test_module_level_helpers_share_the_registry():
    metrics.counter("shared").inc()
    assert REGISTRY.aggregate("shared") == 1
    metrics.gauge("g").set(1.0)
    metrics.stream_hist("hh").observe(2.0)
    assert metrics.names(REGISTRY.snapshot()) >= {"shared", "g", "hh"}
