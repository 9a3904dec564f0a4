"""Ops plane: HTTP endpoints, the stats scraper, and ``repro top``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.cli import main, render_top
from repro.deflate.inflate import inflate
from repro.obs.context import TraceContext
from repro.obs.flight import DEFAULT_CAPACITY, FLIGHT
from repro.obs.http import OpsServer
from repro.obs.trace import TRACE
from repro.service import ServiceClient
from repro.workloads.generators import generate


class FakeStats:
    state = "running"
    accepted = 3
    completed = 2
    rejected = 1
    expired = 0
    failed = 0
    queued = 1
    queued_bytes = 512
    bytes_in = 4096
    bytes_out = 1024
    batches = 2
    per_class = {"BULK": 3}
    per_tenant = {"t0": 3}
    in_service = 0


class FakeService:
    pool = None

    def __init__(self):
        self._stats = FakeStats()

    def stats(self):
        return self._stats


def _get(base: str, path: str) -> tuple[int, str, bytes]:
    try:
        with urllib.request.urlopen(base + path, timeout=10.0) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers["Content-Type"], err.read()


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


@pytest.fixture
def served(telemetry):
    service = FakeService()
    with OpsServer(service=service) as ops:
        yield f"http://127.0.0.1:{ops.port}", service, ops


class TestEndpoints:
    def test_metrics_is_prometheus_text(self, served):
        base, _, _ = served
        obs.registry().counter(
            "repro_service_requests_total", "requests").inc(1, op="c")
        status, ctype, body = _get(base, "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "repro_service_requests_total" in body.decode()

    def test_healthz_running(self, served):
        base, _, _ = served
        status, ctype, body = _get(base, "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["service_state"] == "running"
        assert doc["queued"] == 1

    def test_healthz_draining_is_503(self, served):
        base, service, _ = served
        service._stats.state = "draining"
        status, _, body = _get(base, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"

    def test_traces_recent_groups_by_wire_id(self, served):
        base, _, _ = served
        ctx = TraceContext.new()
        with TRACE.span("client.request", ctx=ctx):
            with TRACE.span("pool.route"):
                pass
        status, _, body = _get(base, "/traces/recent")
        assert status == 200
        doc = json.loads(body)
        trees = [t for t in doc["traces"] if t["trace_id"] == ctx.trace_id]
        assert len(trees) == 1
        (root,) = trees[0]["roots"]
        assert root["name"] == "client.request"
        assert [c["name"] for c in root["children"]] == ["pool.route"]
        assert doc["dropped_spans"] == 0

    def test_flight_exposes_ring(self, served):
        base, _, _ = served
        FLIGHT.reset()
        FLIGHT.enable()
        try:
            FLIGHT.record("service.ok", id=7)
            status, _, body = _get(base, "/flight")
            doc = json.loads(body)
            assert status == 200
            assert doc["enabled"] is True
            assert doc["capacity"] == DEFAULT_CAPACITY
            assert any(r["kind"] == "service.ok"
                       for r in doc["records"])
        finally:
            FLIGHT.reset()

    def test_ops_aggregate(self, served):
        base, _, _ = served
        obs.registry().window(
            "repro_service_latency_window_seconds",
            "request latency").observe(0.25, qos="BULK")
        status, _, body = _get(base, "/ops")
        doc = json.loads(body)
        assert status == 200
        assert doc["uptime_s"] >= 0
        assert doc["service"]["accepted"] == 3
        assert doc["service"]["per_tenant"] == {"t0": 3}
        assert doc["breakers"] == {}
        window = doc["windows"]["repro_service_latency_window_seconds"]
        (labels, summary), = window.items()
        assert "BULK" in labels
        assert summary["count"] == 1

    def test_unknown_path_is_404(self, served):
        base, _, _ = served
        status, _, body = _get(base, "/nope")
        assert status == 404
        assert b"/metrics" in body

    def test_serverless_ops_plane_still_serves(self, telemetry):
        with OpsServer() as ops:
            base = f"http://127.0.0.1:{ops.port}"
            assert _get(base, "/healthz")[0] == 200
            doc = json.loads(_get(base, "/ops")[2])
            assert "service" not in doc

    def test_a_served_process_answers_on_its_ops_plane(self):
        """``repro serve --http-port 0`` as a child process: healthy,
        counting the job it served, and exporting that job's trace under
        the client's wire id, through the pool into a worker."""
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--http-port", "0", "--backend", "software",
             "--exec-workers", "2", "--duration-s", "60"],
            stdout=subprocess.PIPE, text=True)
        try:
            ports = {}

            def read_ports() -> None:
                for line in server.stdout:
                    for name, pattern in (
                            ("tcp", r"serving on [\d.]+:(\d+)"),
                            ("http", r"ops on http://[\d.]+:(\d+)")):
                        if match := re.search(pattern, line):
                            ports[name] = int(match.group(1))
                    if "http" in ports:
                        return

            # Read on a thread: a child that hangs before announcing its
            # ports fails the test instead of hanging the run.
            reader = threading.Thread(target=read_ports, daemon=True)
            reader.start()
            reader.join(timeout=60)
            assert "http" in ports, f"no ports announced: {ports}"
            base = f"http://127.0.0.1:{ports['http']}"
            status, _, body = _get(base, "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

            payload = generate("markov_text", 65536, seed=23)
            with ServiceClient(port=ports["tcp"]) as client:
                result = client.compress(payload, fmt="raw")
            assert inflate(result.output) == payload
            wire_id = result.traceparent.split("-")[1]
            assert b"repro_service_requests_total" in _get(base, "/metrics")[2]

            doc = json.loads(_get(base, "/traces/recent")[2])
            (tree,) = [t for t in doc["traces"] if t["trace_id"] == wire_id]
            names, nodes = set(), list(tree["roots"])
            while nodes:
                node = nodes.pop()
                names.add(node["name"])
                nodes += node.get("children", ())
            assert {"service.request", "pool.route", "worker.job",
                    "backend.submit"} <= names, names
        finally:
            server.terminate()
            try:
                server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.communicate()


class TestCli:
    def test_stats_url_scrapes_ops_plane(self, served, capsys):
        base, _, _ = served
        assert main(["stats", "--url", base, "--format", "both"]) == 0
        out = capsys.readouterr().out
        assert '"uptime_s"' in out          # /ops JSON
        assert "# TYPE" in out or "repro_" in out or out  # /metrics text

    def test_top_once(self, served, capsys):
        base, _, _ = served
        assert main(["top", "--url", base, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "accepted 3" in out

    def test_stats_url_unreachable_is_clean_error(self, capsys):
        assert main(["stats", "--url", "http://127.0.0.1:9",
                     "--format", "json"]) != 0

    def test_render_top_includes_breakers_and_windows(self):
        ops_doc = {
            "uptime_s": 12.0,
            "service": {"state": "running", "accepted": 5,
                        "completed": 5, "rejected": 0, "expired": 0,
                        "queued": 0},
            "breakers": {"0": "CLOSED", "1": "OPEN"},
            "windows": {"repro_service_latency_window_seconds": {
                "qos=BULK": {"count": 4, "rate_per_s": 1.0,
                             "mean": 0.2, "p50": 0.1, "p99": 0.4,
                             "max": 0.5}}},
        }
        screen = render_top(ops_doc, "http://x")
        assert "chip0:CLOSED" in screen and "chip1:OPEN" in screen
        assert "repro_service_latency_window_seconds" in screen
        assert "qos=BULK" in screen
