"""Live ops surface: a tiny HTTP endpoint over the telemetry globals.

``repro serve --http-port N`` starts one of these next to the TCP job
server, giving operators the paper's hypervisor-counter experience —
look at the fleet without stopping it:

* ``GET /metrics``       — Prometheus text exposition of the registry
  (counters, gauges, histograms, and the rolling-window aggregates);
* ``GET /healthz``       — JSON liveness: service state, queue depths,
  and per-chip breaker states (200 while running, 503 once draining);
* ``GET /traces/recent`` — recent span trees grouped by *wire* trace id
  (one tree per client request, worker spans included);
* ``GET /flight``        — the flight recorder ring, as a dump would
  render it;
* ``GET /ops``           — one JSON aggregate (service stats + window
  summaries + breakers) built for ``repro top``.

Stdlib-only (``http.server``), threaded, and read-only: nothing here
mutates the service.  The handler trusts nothing from the request but
the path.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .export import spans_to_trees
from .flight import DEFAULT_CAPACITY, FLIGHT
from .metrics import REGISTRY, RollingWindow
from .trace import TRACE

#: Trees returned by /traces/recent (most recent first).
RECENT_TRACE_LIMIT = 50


def _breaker_states(service) -> dict:
    """Per-chip breaker states off the service's pool, best-effort."""
    pool = getattr(service, "pool", None)
    health = getattr(pool, "health", None)
    if health is None:
        return {}
    try:
        return {str(chip): health.state(chip).name
                for chip in range(getattr(pool, "chips", 0))}
    except Exception:  # pragma: no cover - introspection only
        return {}


def _service_stats(service) -> dict:
    stats = service.stats()
    return {
        "state": stats.state,
        "accepted": stats.accepted,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "expired": stats.expired,
        "failed": stats.failed,
        "queued": stats.queued,
        "queued_bytes": stats.queued_bytes,
        "bytes_in": stats.bytes_in,
        "bytes_out": stats.bytes_out,
        "batches": stats.batches,
        "per_class": stats.per_class,
        "per_tenant": stats.per_tenant,
    }


def _window_summaries() -> dict:
    """Every rolling-window family's per-label summaries.

    Shape: ``{metric_name: {"k=v,...": {count, rate_per_s, mean, p50,
    p99, max}}}`` — keyed by a flat label string so ``repro top`` (and
    any shell scraper) can sort and render rows without re-deriving the
    label set.
    """
    out: dict = {}
    for name in REGISTRY.names():
        metric = REGISTRY.get(name)
        if not isinstance(metric, RollingWindow):
            continue
        rows: dict = {}
        for row in metric.snapshot_values():
            labels = row.get("labels") or {}
            key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            rows[key] = {k: v for k, v in row.items() if k != "labels"}
        out[name] = rows
    return out


class OpsServer:
    """The ops endpoint; binds on start(), serves on a daemon thread."""

    def __init__(self, service=None, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.started_at = time.time()

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    def start(self) -> "OpsServer":
        ops = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: object) -> None:
                pass  # operators read /metrics, not an access log

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    status, content_type, body = ops._respond(self.path)
                except Exception as exc:  # never kill the plane
                    status, content_type = 500, "text/plain"
                    body = f"ops endpoint error: {exc}".encode()
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                          Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-ops-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- responses -----------------------------------------------------------

    def _respond(self, path: str) -> tuple[int, str, bytes]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4", \
                REGISTRY.to_prometheus().encode()
        if path == "/healthz":
            return self._healthz()
        if path == "/traces/recent":
            trees = spans_to_trees(TRACE.finished())[:RECENT_TRACE_LIMIT]
            return 200, "application/json", _json(
                {"traces": trees, "dropped_spans": TRACE.dropped})
        if path == "/flight":
            return 200, "application/json", _json({
                "enabled": FLIGHT.enabled,
                "capacity": DEFAULT_CAPACITY,
                "dumps_written": FLIGHT.dumps_written,
                "records": FLIGHT.snapshot(),
            })
        if path == "/ops":
            doc = {
                "uptime_s": round(time.time() - self.started_at, 3),
                "windows": _window_summaries(),
            }
            if self.service is not None:
                doc["service"] = _service_stats(self.service)
                doc["breakers"] = _breaker_states(self.service)
            return 200, "application/json", _json(doc)
        return 404, "text/plain", \
            b"have: /metrics /healthz /traces/recent /flight /ops"

    def _healthz(self) -> tuple[int, str, bytes]:
        doc: dict = {"status": "ok"}
        status = 200
        if self.service is not None:
            stats = self.service.stats()
            doc["service_state"] = stats.state
            doc["queued"] = stats.queued
            doc["in_service"] = stats.in_service
            doc["breakers"] = _breaker_states(self.service)
            if stats.state != "running":
                doc["status"] = "draining"
                status = 503
        return status, "application/json", _json(doc)


def _json(doc: dict) -> bytes:
    return json.dumps(doc, indent=1, sort_keys=True).encode()
