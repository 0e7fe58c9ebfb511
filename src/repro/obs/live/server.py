"""The scrape endpoint: ``/metrics``, ``/healthz``, ``/statz`` over stdlib HTTP.

:class:`MetricsServer` binds a ``ThreadingHTTPServer`` on localhost and
drives it from one daemon thread so a scraper (Prometheus, ``obs top``,
the CI smoke step) can watch any repro process — a CLI run or a
:class:`~repro.serve.service.QueryService` — without the process
cooperating beyond ``server.start()``:

* ``/metrics`` — the whole metrics registry plus process runtime gauges
  and any extra collectors, in Prometheus text exposition;
* ``/healthz`` — liveness JSON (HTTP 503 when the health callback says
  the process is unhealthy, e.g. a draining service);
* ``/statz`` — an arbitrary JSON status document (the service wires
  ``ServiceStats.to_dict()`` + worker and trace-store state here).

The accept loop declares the ``obs.live.exporter.serve`` fault site; an
injected fault is counted (``obs.live.exporter.errors``) and the loop
keeps serving — the exporter must never take the workload down with it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.live import proc, prom
from repro.resilience.faults import InjectedFault, fault_point

#: Returns exporter rows merged into /metrics after the registry's.
Collector = Callable[[], List[prom.Row]]
#: Returns (healthy, detail) for /healthz.
HealthFn = Callable[[], Tuple[bool, Dict[str, object]]]
#: Returns the /statz JSON document.
StatzFn = Callable[[], Dict[str, object]]


def _default_health() -> Tuple[bool, Dict[str, object]]:
    return True, {}


class MetricsServer:
    """Serve live telemetry from a daemon thread; ``stop()`` to halt."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        collectors: Optional[Sequence[Collector]] = None,
        healthz: Optional[HealthFn] = None,
        statz: Optional[StatzFn] = None,
        track_gc: bool = True,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._collectors: List[Collector] = list(collectors or ())
        self._healthz = healthz or _default_health
        self._statz = statz
        self._track_gc = track_gc
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("MetricsServer is not started")
        return self._httpd.server_address[1]

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self._host}:{self.port}{path}"

    # ------------------------------------------------------------------
    def add_collector(self, collector: Collector) -> None:
        # Collectors are registered before start(); the append itself is
        # atomic under the GIL and scrapes only iterate the list.
        self._collectors.append(collector)  # repro: noqa RC101 — see above

    def render_metrics(self) -> str:
        """The /metrics document: collectors, registry, process gauges.

        Collectors render *before* the registry so a live service's
        tally wins the family-dedupe over the totals that already-closed
        services folded into the registry under the same names.
        """
        rows: List[prom.Row] = []
        for collector in self._collectors:
            rows.extend(collector())
        rows.extend(obs_metrics.REGISTRY.collect())
        rows.extend(proc.collect())
        return prom.render(rows)

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._thread is not None:
            return self
        if self._track_gc:
            proc.track_gc(True)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: object) -> None:
                pass  # scrapes must not spam the process's stderr

            def do_GET(self) -> None:
                server._handle(self)

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._httpd.timeout = 0.2  # bounds stop() latency
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._serve_loop,
            args=(self._httpd,),
            name="obs-live-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def _serve_loop(self, httpd: ThreadingHTTPServer) -> None:
        """Accept loop with a survivable fault site (chaos CI kills here).

        The server is passed in by ``start()`` rather than re-read from
        ``self._httpd``: ``stop()`` clears that field (and closes the
        socket) from another thread, so reading it here would race —
        between the stop-flag check and the accept the field can become
        ``None`` or a closed socket.
        """
        while not self._stop.is_set():
            try:
                fault_point("obs.live.exporter.serve")
                httpd.handle_request()
            except InjectedFault:
                # The exporter absorbs injected kills and keeps serving:
                # losing a scrape must never lose the workload.
                obs_metrics.counter("obs.live.exporter.errors").inc()
            except OSError:
                if self._stop.is_set():
                    return  # stop() closed the socket under us
                raise

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        if self._httpd is not None:
            self._httpd.server_close()
        self._thread = None
        self._httpd = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                obs_metrics.counter("obs.live.exporter.scrapes").inc()
                body = self.render_metrics().encode("utf-8")
                self._reply(handler, 200, prom.CONTENT_TYPE, body)
            elif path == "/healthz":
                healthy, detail = self._healthz()
                doc = {"status": "ok" if healthy else "unhealthy", **detail}
                self._reply_json(handler, 200 if healthy else 503, doc)
            elif path == "/statz":
                if self._statz is None:
                    self._reply_json(
                        handler, 404, {"error": "no statz source configured"}
                    )
                else:
                    self._reply_json(handler, 200, self._statz())
            else:
                self._reply_json(
                    handler, 404,
                    {"error": f"unknown path {path!r}",
                     "paths": ["/metrics", "/healthz", "/statz"]},
                )
        except Exception:  # repro: noqa RC004 — exporter boundary: a broken collector must not kill the scrape thread
            obs_metrics.counter("obs.live.exporter.errors").inc()
            try:
                self._reply_json(
                    handler, 500, {"error": "internal exporter error"}
                )
            except OSError:
                pass  # client already hung up

    @staticmethod
    def _reply(
        handler: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: bytes,
    ) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    @classmethod
    def _reply_json(
        cls,
        handler: BaseHTTPRequestHandler,
        status: int,
        doc: Dict[str, object],
    ) -> None:
        body = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
        cls._reply(handler, status, "application/json", body)
