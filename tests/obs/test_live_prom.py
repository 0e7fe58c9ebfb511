"""Prometheus text exposition: render/parse round-trip and dedupe rules."""

import math

import pytest

from repro.obs.live import prom
from repro.obs.live.hist import StreamingHistogram


def test_counter_gets_total_suffix_and_parses_back():
    text = prom.render([
        ("counter", "serve.admitted", (), 7),
        ("gauge", "serve.queue_depth", (), 3),
    ])
    parsed = prom.parse(text)
    assert parsed["serve_admitted_total"]["serve_admitted_total"] == 7
    assert parsed["serve_queue_depth"]["serve_queue_depth"] == 3
    assert "# TYPE serve_admitted_total counter" in text
    assert "# TYPE serve_queue_depth gauge" in text


def test_labels_render_and_round_trip():
    text = prom.render([
        ("counter", "serve.rejected", (("reason", "queue_full"),), 4),
        ("counter", "serve.rejected", (("reason", "shutdown"),), 1),
    ])
    parsed = prom.parse(text)
    series = parsed["serve_rejected_total"]
    assert series['serve_rejected_total{reason="queue_full"}'] == 4
    assert series['serve_rejected_total{reason="shutdown"}'] == 1


def test_label_values_are_escaped():
    text = prom.render([
        ("gauge", "serve.queue_depth", (("note", 'say "hi"\nbye'),), 1),
    ])
    assert '\\"hi\\"' in text
    assert "\\n" in text
    prom.parse(text)  # still a valid document


def test_stream_hist_renders_cumulative_buckets():
    hist = StreamingHistogram()
    for v in (1.0, 5.0, 5.0, 200.0):
        hist.observe(v)
    text = prom.render([("stream_hist", "serve.latency_ms", (), hist)])
    parsed = prom.parse(text)
    buckets = parsed["serve_latency_ms_bucket"]
    # cumulative and capped by the +Inf bucket
    values = list(buckets.values())
    assert values == sorted(values)
    assert buckets['serve_latency_ms_bucket{le="+Inf"}'] == 4
    assert parsed["serve_latency_ms_count"]["serve_latency_ms_count"] == 4
    assert parsed["serve_latency_ms_sum"]["serve_latency_ms_sum"] == (
        pytest.approx(211.0)
    )


def test_dotted_names_sanitize():
    assert prom.sanitize("obs.live.span_ms") == "obs_live_span_ms"
    assert prom.sanitize("9lives") == "_9lives"


def test_format_value_specials():
    assert prom.format_value(math.inf) == "+Inf"
    assert prom.format_value(-math.inf) == "-Inf"
    assert prom.format_value(math.nan) == "NaN"
    assert prom.format_value(3.0) == "3"
    assert prom.format_value(True) == "1"


def test_first_source_wins_on_family_kind_collision():
    text = prom.render([
        ("counter", "serve.completed", (), 5),
        # a later source disagreeing on kind must not fork the family
        ("gauge", "serve.completed_total", (), 99),
    ])
    parsed = prom.parse(text)
    assert parsed["serve_completed_total"]["serve_completed_total"] == 5


def test_duplicate_series_dropped_first_wins():
    text = prom.render([
        ("gauge", "serve.queue_depth", (), 3),
        ("gauge", "serve.queue_depth", (), 8),
    ])
    parsed = prom.parse(text)
    assert parsed["serve_queue_depth"]["serve_queue_depth"] == 3


def test_parse_rejects_malformed_documents():
    with pytest.raises(ValueError, match="TYPE"):
        prom.parse("# TYPE broken\nx 1\n")
    with pytest.raises(ValueError, match="malformed sample"):
        prom.parse("# TYPE x gauge\nx one two three\n")
    with pytest.raises(ValueError, match="no # TYPE"):
        prom.parse("orphan_series 3\n")
    with pytest.raises(ValueError):
        prom.parse("# TYPE x gauge\nx notanumber\n")
