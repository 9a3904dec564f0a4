"""Observability layer: spans, metrics, exporters, and overhead guards."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro import obs
from repro.backend import AcceleratorPool
from repro.backend.nx_async import NxAsyncBackend
from repro.cli import main
from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate
from repro.nx.params import POWER9
from repro.nx.selftest import run_selftest
from repro.obs.export import spans_to_chrome_trace, spans_to_jsonl
from repro.obs.metrics import (LATENCY_BUCKETS, MetricsRegistry,
                               record_job)
from repro.obs.trace import NULL_SPAN, TRACE, Tracer


@pytest.fixture
def telemetry():
    """Enable the global obs layer for one test, then restore it."""
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


def _roots(tracer):
    return [s for s in tracer.finished() if s.parent_id is None]


def _children(tracer, span):
    return [s for s in tracer.finished()
            if s.parent_id == span.span_id]


# -- span tree shape ---------------------------------------------------------

class TestSpanTree:
    def test_compress_job_span_hierarchy(self, telemetry, text_20k):
        backend = NxAsyncBackend(POWER9)
        try:
            backend.compress(text_20k)
        finally:
            backend.close()
        tracer = obs.tracer()
        roots = _roots(tracer)
        assert [r.name for r in roots] == ["backend.submit"]
        root = roots[0]
        assert root.attrs["op"] == "compress"
        child_names = {s.name for s in _children(tracer, root)}
        assert {"vas.paste", "engine.run", "csb.complete"} <= child_names
        (engine_run,) = [s for s in _children(tracer, root)
                         if s.name == "engine.run"]
        engine_children = {s.name for s in _children(tracer, engine_run)}
        assert {"engine.match", "engine.huffman",
                "engine.emit"} <= engine_children

    def test_faulting_job_records_fault_and_resubmit(self, telemetry,
                                                     text_20k):
        # Mirrors test_driver's seed scan: find a run where at least one
        # translation fault fires, then check the span-level record of
        # the retry agrees with the driver's own accounting.
        for seed in range(40):
            obs.tracer().reset()
            backend = NxAsyncBackend(POWER9, fault_probability=0.05,
                                     seed=seed)
            try:
                result = backend.compress(text_20k)
            finally:
                backend.close()
            if result.stats.translation_faults:
                break
        else:
            pytest.fail("no fault fired across seeds")

        tracer = obs.tracer()
        completes = [s for s in tracer.finished() if s.name == "csb.complete"]
        assert len(completes) == result.stats.submissions
        fault_events = [e for s in completes for e in s.events
                        if e.name == "fault.translation"]
        resubmits = [e for s in completes for e in s.events
                     if e.name == "resubmit"]
        assert len(fault_events) == result.stats.translation_faults
        assert len(resubmits) >= len(fault_events)
        assert all("address" in e.attrs for e in fault_events)
        # The job still succeeded: exactly one submit root, no fallback.
        assert not result.stats.fallback_to_software
        assert len(_roots(tracer)) == 1

    def test_pool_route_span_and_dispatch_metrics(self, telemetry,
                                                  text_20k):
        with AcceleratorPool(POWER9, chips=2, policy="round_robin") as pool:
            pool.compress(text_20k)
            pool.compress(text_20k)
        tracer = obs.tracer()
        routes = [s for s in tracer.finished() if s.name == "pool.route"]
        assert len(routes) == 2
        assert {s.attrs["chip"] for s in routes} == {0, 1}
        assert all(s.attrs["policy"] == "round_robin" for s in routes)
        counter = obs.registry().get("repro_pool_dispatch_total")
        assert counter is not None
        assert counter.value(chip="0") == 1.0
        assert counter.value(chip="1") == 1.0

    def test_api_span_is_the_root_for_sessions(self, telemetry,
                                               text_20k):
        from repro.core.api import NxGzip

        with NxGzip(POWER9) as session:
            session.compress(text_20k)
        tracer = obs.tracer()
        roots = _roots(tracer)
        assert [r.name for r in roots] == ["api.compress"]
        child_names = {s.name for s in _children(tracer, roots[0])}
        assert "backend.submit" in child_names


# -- metrics registry --------------------------------------------------------

class TestMetrics:
    def test_histogram_bucket_edges_are_inclusive(self):
        reg = MetricsRegistry()
        hist = reg.histogram("x_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 9.0):
            hist.observe(value)
        state = hist.state()
        # le-style buckets: a value equal to an edge lands in that edge's
        # bucket; 9.0 overflows to +Inf.
        assert state.counts == [2, 2, 1, 1]
        assert state.count == 6
        assert state.sum == pytest.approx(18.0)

    def test_prometheus_histogram_is_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_t_seconds", "help text",
                             buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            hist.observe(value, op="compress")
        text = reg.to_prometheus()
        assert '# TYPE repro_t_seconds histogram' in text
        assert 'repro_t_seconds_bucket{op="compress",le="1"} 1' in text
        assert 'repro_t_seconds_bucket{op="compress",le="2"} 2' in text
        assert 'repro_t_seconds_bucket{op="compress",le="+Inf"} 3' in text
        assert 'repro_t_seconds_count{op="compress"} 3' in text

    def test_json_snapshot_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "things").inc(3, chip="0")
        reg.gauge("repro_x_depth").set(2.5)
        reg.histogram("repro_x_seconds",
                      buckets=LATENCY_BUCKETS).observe(1e-4)
        snap = json.loads(reg.to_json())
        assert snap == reg.snapshot()
        assert snap["repro_x_total"]["type"] == "counter"
        assert snap["repro_x_total"]["values"] == [
            {"labels": {"chip": "0"}, "value": 3.0}]
        assert snap["repro_x_seconds"]["bucket_edges"] \
            == list(LATENCY_BUCKETS)

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(TypeError, match="counter"):
            reg.gauge("repro_x_total")

    def test_record_job_folds_all_families(self):
        # record_job writes to the global registry (only while it is
        # on); swap a fresh family dict in so the test observes exactly
        # what one call creates.
        registry = obs.registry()
        saved = registry._metrics, registry.enabled
        registry._metrics = {}
        registry.enabled = True
        try:
            record_job("backend", op="compress", nbytes_in=1000,
                       nbytes_out=250, seconds=1e-3, faults=2,
                       fallback=True, backend="nx")
            names = set(registry.names())
            faults = registry.get("repro_backend_faults_total")
            assert faults.value(backend="nx") == 2.0
            ratio = registry.get("repro_backend_ratio")
            assert ratio.state(backend="nx").count == 1
        finally:
            registry._metrics, registry.enabled = saved
        assert "repro_backend_requests_total" in names
        assert "repro_backend_bytes_in_total" in names
        assert "repro_backend_job_seconds" in names
        assert "repro_backend_fallbacks_total" in names

    def test_selftest_publishes_pass_gauge(self, telemetry):
        report = run_selftest(POWER9)
        assert report.passed
        gauge = obs.registry().get("repro_nx_selftest_pass")
        assert gauge is not None
        assert gauge.value(machine=POWER9.name, engine="compress") == 1.0
        assert gauge.value(machine=POWER9.name, engine="decompress") == 1.0


# -- exporters ---------------------------------------------------------------

class TestExport:
    def test_chrome_trace_schema(self, telemetry, text_20k, tmp_path):
        backend = NxAsyncBackend(POWER9)
        try:
            backend.compress(text_20k)
        finally:
            backend.close()
        path = obs.export_chrome_trace(tmp_path / "run.trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for event in events:
            assert isinstance(event["name"], str)
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert "span_id" in event["args"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"backend.submit", "vas.paste", "engine.run",
                "csb.complete"} <= names
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)

    def test_spans_jsonl_one_object_per_line(self, telemetry):
        with TRACE.span("a", nbytes=1):
            pass
        with TRACE.span("b"):
            pass
        lines = spans_to_jsonl(TRACE.finished()).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a"
        assert first["attrs"] == {"nbytes": 1}
        assert first["duration_s"] >= 0

    def test_chrome_trace_instant_events(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("csb.complete") as span:
            span.event("fault.translation", address=4096)
        doc = spans_to_chrome_trace(tracer.finished(),
                                    tracer.epoch_perf_s)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "fault.translation"
        assert instants[0]["args"] == {"address": 4096}


# -- disabled-path cost and parity -------------------------------------------

class TestDisabledPath:
    def test_disabled_span_is_shared_null_singleton(self):
        assert not obs.tracing_enabled()
        assert TRACE.span("engine.run", nbytes=1) is NULL_SPAN
        assert TRACE.span("anything") is NULL_SPAN
        assert NULL_SPAN.set(x=1) is NULL_SPAN
        NULL_SPAN.event("fault.translation")  # no-op, must not raise
        assert TRACE.finished() == []

    def test_disabled_span_allocates_nothing_in_tracer(self):
        assert not obs.tracing_enabled()
        TRACE.span("warmup")  # pay any lazy initialisation up front
        tracemalloc.start()
        try:
            for _ in range(200):
                TRACE.span("engine.run", nbytes=1)
                TRACE.event("fault.translation", address=0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        from repro.obs import trace as trace_module
        in_tracer = snapshot.filter_traces(
            [tracemalloc.Filter(True, trace_module.__file__)])
        assert sum(s.size for s in in_tracer.statistics("lineno")) == 0

    def test_golden_parity_with_tracing_on_and_off(self, text_20k,
                                                   json_20k):
        for payload in (text_20k, json_20k, b"", b"x" * 5):
            obs.disable()
            plain = deflate(payload, level=6).data
            obs.enable()
            try:
                traced = deflate(payload, level=6).data
            finally:
                obs.disable()
                obs.reset()
            assert traced == plain
            assert inflate(plain) == payload


# -- CLI ---------------------------------------------------------------------

class TestCli:
    @pytest.fixture
    def sample_file(self, tmp_path, text_20k):
        path = tmp_path / "sample.txt"
        path.write_bytes(text_20k)
        return path

    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        yield
        obs.disable()
        obs.reset()

    def test_trace_flag_writes_chrome_trace(self, sample_file, tmp_path,
                                            capsys):
        out = tmp_path / "cli.trace.json"
        assert main(["--trace", "--trace-out", str(out),
                     "compress", str(sample_file)]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert {"pool.route", "backend.submit", "vas.paste",
                "engine.run", "csb.complete"} <= names
        assert out.with_suffix(".spans.jsonl").exists()
        assert "trace:" in capsys.readouterr().out

    def test_metrics_flag_prints_prometheus(self, sample_file, capsys):
        assert main(["--metrics", "compress", str(sample_file)]) == 0
        captured = capsys.readouterr().out
        assert "repro_backend_requests_total" in captured
        assert "repro_pool_dispatch_total" in captured
        assert "repro_backend_job_seconds_bucket" in captured

    def test_stats_command_prints_json_and_prometheus(self, capsys):
        assert main(["stats", "--machine", "POWER9"]) == 0
        captured = capsys.readouterr().out
        assert "repro_nx_selftest_pass" in captured
        # --format both: JSON object plus Prometheus exposition text.
        assert '"repro_nx_selftest_pass"' in captured
        assert "# TYPE repro_nx_selftest_pass gauge" in captured
