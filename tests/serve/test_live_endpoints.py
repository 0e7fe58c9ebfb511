"""The service's live ops plane: /metrics, /healthz, /statz, ``obs top``.

Every scrape assertion runs against a real ``MetricsServer`` bound to an
ephemeral port with a live ``QueryService`` behind it, and every test
closes with the chaos invariant ``lost == 0``.
"""

import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import obs
from repro.harness.cli import main
from repro.obs.live import prom
from repro.resilience import faults
from repro.serve import QueryService, ServiceConfig


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def service(g, cg, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("queue_capacity", 64)
    return QueryService(g, cg, ServiceConfig(**kw))


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition_with_serve_series(
        self, serve_graph, serve_cg
    ):
        with service(serve_graph, serve_cg) as svc:
            exporter = svc.start_exporter(port=0)
            for s in range(6):
                svc.submit("SSSP", source=s)
            assert svc.drain(timeout=60.0)
            status, body = _get(exporter.url("/metrics"))
            assert status == 200
            parsed = prom.parse(body)  # raises on malformed output
            assert parsed["serve_submitted_total"][
                "serve_submitted_total"
            ] == 6
            assert parsed["serve_completed_total"][
                "serve_completed_total"
            ] >= 1
            # the full latency distribution is scrapable
            assert parsed["serve_latency_ms_count"][
                "serve_latency_ms_count"
            ] >= 1
            assert any(
                k.endswith('le="+Inf"}')
                for k in parsed["serve_latency_ms_bucket"]
            )
            # process runtime gauges ride along
            assert parsed["proc_rss_bytes"]["proc_rss_bytes"] > 0
            assert parsed["proc_threads"]["proc_threads"] >= 1
        assert svc.stats().lost == 0

    def test_family_names_do_not_depend_on_the_telemetry_switch(
        self, serve_graph, serve_cg
    ):
        """The service's series come from its always-on tally, so turning
        telemetry on adds engine/obs families but leaves these alone."""

        def scrape():
            with service(serve_graph, serve_cg) as svc:
                exporter = svc.start_exporter(port=0)
                for s in range(4):
                    svc.submit("SSSP", source=s)
                assert svc.drain(timeout=60.0)
                _, body = _get(exporter.url("/metrics"))
            assert svc.stats().lost == 0
            return {
                family for family in prom.parse(body)
                if family.startswith(("serve_", "evolve_"))
            }

        off = scrape()
        with obs.telemetry():
            on = scrape()
        obs.reset()
        assert "serve_completed_total" in off
        assert on == off

    def test_exporter_stops_with_service_close(self, serve_graph, serve_cg):
        svc = service(serve_graph, serve_cg)
        exporter = svc.start_exporter(port=0)
        url = exporter.url("/metrics")
        _get(url)
        svc.close()
        with pytest.raises(Exception):
            _get(url, timeout=0.5)
        assert svc.stats().lost == 0

    def test_start_exporter_is_idempotent(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg) as svc:
            first = svc.start_exporter(port=0)
            assert svc.start_exporter(port=0) is first


class TestHealthz:
    def test_healthy_while_open_unhealthy_after_close(
        self, serve_graph, serve_cg
    ):
        svc = service(serve_graph, serve_cg).start()
        exporter = svc.start_exporter(port=0)
        svc.submit("SSSP", source=0).result(timeout=30.0)
        status, body = _get(exporter.url("/healthz"))
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["workers_alive"] >= 1
        svc.close()
        healthy, detail = svc.healthz()
        assert healthy is False
        assert svc.stats().lost == 0


class TestStatz:
    def test_statz_document(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg) as svc:
            exporter = svc.start_exporter(port=0)
            svc.submit("SSSP", source=0)
            assert svc.drain(timeout=60.0)
            status, body = _get(exporter.url("/statz"))
            assert status == 200
            doc = json.loads(body)
            assert doc["submitted"] == 1
            assert doc["lost"] == 0
        assert svc.stats().lost == 0


#: ``ServiceStats.to_dict()`` feeds /statz, the ``serve.stats`` journal
#: event and ``obs report``: the key list (and order) is an interface.
STATS_KEYS = [
    "submitted", "admitted", "completed", "degraded", "shed_completions",
    "failed", "poisoned", "rejected_queue_full", "rejected_deadline",
    "rejected_shutdown", "requeued", "worker_restarts", "breaker_trips",
    "breaker_state", "queue_depth", "latency_p50_ms", "latency_p95_ms",
    "stale_answers", "graph_epoch", "lost",
]


class TestServiceStatsPercentiles:
    def test_to_dict_keys_are_stable(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg) as svc:
            svc.submit("SSSP", source=0).result(timeout=30.0)
        assert list(svc.stats().to_dict()) == STATS_KEYS

    def test_percentiles_cover_the_full_run(self, serve_graph, serve_cg):
        """The streaming histogram sees every completion, not a window."""
        with service(serve_graph, serve_cg) as svc:
            for i in range(40):
                svc.submit("SSSP", source=i % 16)
            assert svc.drain(timeout=120.0)
        stats = svc.stats()
        served = stats.completed + stats.degraded
        snap = svc.latency_snapshot()
        assert snap.count == served  # full-run coverage, nothing dropped
        assert stats.latency_p50_ms == pytest.approx(snap.quantile(0.50))
        assert stats.latency_p95_ms == pytest.approx(snap.quantile(0.95))
        assert snap.quantile(0.50) <= snap.quantile(0.95) <= snap.max
        assert stats.lost == 0

    def test_wait_histogram_populates(self, serve_graph, serve_cg):
        with service(serve_graph, serve_cg, workers=1) as svc:
            for i in range(8):
                svc.submit("SSSP", source=i)
            assert svc.drain(timeout=60.0)
        assert svc.wait_snapshot().count >= 1
        assert svc.stats().lost == 0


class TestConcurrentScrapes:
    def test_parallel_scrapes_under_load_stay_valid(
        self, serve_graph, serve_cg
    ):
        """Scrapers hammering /metrics while requests execute must always
        see a parseable, internally consistent exposition — rendering
        snapshots under the registry lock, never a torn read."""
        with service(serve_graph, serve_cg) as svc:
            exporter = svc.start_exporter(port=0)
            stop = threading.Event()
            errors = []
            scrapes = [0]

            def scraper():
                while not stop.is_set():
                    try:
                        status, body = _get(exporter.url("/metrics"))
                        assert status == 200
                        prom.parse(body)  # raises on malformed exposition
                        scrapes[0] += 1
                    except Exception as exc:  # pragma: no cover - failure path
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=scraper) for _ in range(4)]
            for t in threads:
                t.start()
            for i in range(24):
                svc.submit("SSSP", source=i % 16)
            assert svc.drain(timeout=120.0)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            assert not errors
            assert scrapes[0] >= 4  # every scraper got at least one pass
            # the settled exposition accounts for the whole run
            _, body = _get(exporter.url("/metrics"))
            parsed = prom.parse(body)
            assert parsed["serve_submitted_total"][
                "serve_submitted_total"
            ] == 24
        assert svc.stats().lost == 0


class TestObsTop:
    def test_once_prints_service_and_latency(
        self, serve_graph, serve_cg, capsys
    ):
        with service(serve_graph, serve_cg) as svc:
            exporter = svc.start_exporter(port=0)
            for s in range(4):
                svc.submit("SSSP", source=s)
            assert svc.drain(timeout=60.0)
            rc = main(["obs", "top", f"127.0.0.1:{exporter.port}", "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service  submitted=4" in out
        assert "latency  p50=" in out, out
        assert svc.stats().lost == 0

    def test_failing_statz_exits_2(self, serve_graph, serve_cg, capsys):
        def broken():
            raise RuntimeError("statz source down")

        with service(serve_graph, serve_cg) as svc:
            exporter = svc.start_exporter(port=0)
            exporter._statz = broken  # the exporter answers 500
            rc = main(["obs", "top", f"127.0.0.1:{exporter.port}", "--once"])
        assert rc == 2
        assert "/statz" in capsys.readouterr().err
        assert svc.stats().lost == 0

    def test_non_json_statz_exits_2(self, capsys):
        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                body = b"not json" if self.path == "/statz" else b"{}"
                if self.path == "/metrics":
                    body = b""
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            rc = main(["obs", "top", f"{host}:{port}", "--once"])
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5.0)
        assert rc == 2
        assert "malformed /statz" in capsys.readouterr().err
