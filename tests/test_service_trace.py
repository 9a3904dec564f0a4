"""End-to-end distributed tracing across client, service, and workers.

The acceptance path for the observability plane: one job submitted
through :class:`ServiceClient` against a served fleet with process
workers must come out of the exporter as a *single* trace tree —
client → service.request → pool.route → worker.job → kernel — under
the client's wire trace id, and the exec layer must fold worker
telemetry exactly once even when a worker crashes mid-job and
the job is resubmitted.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.deflate.inflate import inflate
from repro.exec import ProcessWorkerPool, shutdown_default_pool
from repro.obs.export import spans_to_trees
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE
from repro.service import ServiceClient
from repro.service.core import CompressionService
from repro.service.server import serve
from repro.workloads.generators import generate

#: Span names the single served trace must nest, client to kernel.
CHAIN = {"client.request", "service.request", "pool.route",
         "worker.job", "backend.submit"}


def crash_once_counting(marker: str, value: object = None) -> object:
    """Worker fn: bump a counter, crash on the first call, then succeed.

    The first call's counter increment dies with the worker process
    (its completion record is never sent), so the parent must see the
    counter exactly once — from the successful resubmission — if the
    fold-once guarantee holds.
    """
    from repro.obs.metrics import REGISTRY
    REGISTRY.counter("repro_exec_probe_calls_total",
                     "test worker invocations").inc(1)
    if os.path.exists(marker):
        return value
    with open(marker, "w"):
        pass
    os._exit(13)


#: Submitted by its fully qualified ``module:attr`` name — workers
#: import it themselves; nothing to register.
PROBE_FN = "tests.test_service_trace:crash_once_counting"


def _names(node: dict, out: set) -> set:
    out.add(node["name"])
    for child in node.get("children", ()):
        _names(child, out)
    return out


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


class TestServedTrace:
    def test_single_wire_trace_client_to_worker(self, telemetry):
        """The acceptance criterion: one tree, one root, whole chain."""
        payload = generate("markov_text", 40000, seed=11)
        service = CompressionService(machine="POWER9", chips=1,
                                     backend="software", exec_workers=2)
        server = serve(service)
        try:
            with ServiceClient(port=server.port) as client:
                result = client.compress(payload, fmt="raw")
            assert inflate(result.output) == payload
            assert result.traceparent is not None
            wire_id = result.traceparent.split("-")[1]

            trees = [t for t in spans_to_trees(TRACE.finished())
                     if t["trace_id"] == wire_id]
            assert len(trees) == 1, "client job must form one trace"
            tree = trees[0]
            assert len(tree["roots"]) == 1, \
                "every hop must re-parent under the client span"
            root = tree["roots"][0]
            assert root["name"] == "client.request"
            names = _names(root, set())
            assert CHAIN <= names, f"missing {CHAIN - names}"
        finally:
            server.shutdown()
            service.close()
            shutdown_default_pool()

    def test_malformed_traceparent_still_serves(self, telemetry):
        """A garbage wire header degrades to a local trace, never an
        error (tolerant-reader rule from docs/protocol.md)."""
        payload = generate("json_records", 9000, seed=3)
        with CompressionService(chips=1, backend="software") as svc:
            ticket = svc.submit("compress", payload, fmt="raw",
                                traceparent="not-a-traceparent")
            assert inflate(ticket.wait(30.0).output) == payload


class TestFoldExactlyOnce:
    def test_crash_retry_folds_spans_and_counters_once(self, telemetry,
                                                       tmp_path):
        """After a worker crash + resubmit, exactly one worker.job span
        and exactly one counter increment reach the parent."""
        pool = ProcessWorkerPool(2, name="test-fold-once")
        try:
            (value,) = pool.run_batch(
                [(PROBE_FN,
                  {"marker": str(tmp_path / "latch"), "value": 42})],
                timeout_s=120.0, metrics=True)
            assert value == 42
            jobs = [s for s in TRACE.finished() if s.name == "worker.job"]
            assert len(jobs) == 1, \
                f"expected one folded worker.job, got {len(jobs)}"
            counter = obs.registry().get("repro_exec_probe_calls_total")
            assert counter is not None
            (sample,) = counter.snapshot_values()
            assert sample["value"] == 1
        finally:
            pool.shutdown()

    def test_merge_snapshot_adds_counters(self):
        """merge_snapshot is additive — exactly-once therefore depends
        on the exec layer folding each completion record once, which
        the crash test above exercises end to end."""
        src = MetricsRegistry()
        src.enabled = True
        src.counter("repro_exec_probe_calls_total", "calls").inc(3)
        snap = src.snapshot()
        dst = MetricsRegistry()
        dst.enabled = True
        dst.merge_snapshot(snap)
        dst.merge_snapshot(snap)
        (sample,) = dst.get(
            "repro_exec_probe_calls_total").snapshot_values()
        assert sample["value"] == 6

    def test_nested_relayed_spans_keep_structure_across_fold(
            self, telemetry):
        """A worker's nested span dump folds into the parent with its
        internal parent/child edges intact and fresh local ids."""
        worker = obs.trace.Tracer()
        worker.enable()
        with worker.span("worker.job", pid=1):
            with worker.span("backend.submit"):
                with worker.span("deflate.kernel"):
                    pass
        records = [span.to_dict() for span in worker.finished()]
        with TRACE.span("pool.route") as route:
            pass
        folded = TRACE.fold(records, parent=route)
        by_name = {span.name: span for span in folded}
        assert by_name["worker.job"].parent_id == route.span_id
        assert by_name["backend.submit"].parent_id == \
            by_name["worker.job"].span_id
        assert by_name["deflate.kernel"].parent_id == \
            by_name["backend.submit"].span_id
        old_ids = {record["span_id"] for record in records}
        assert all(span.span_id not in old_ids for span in folded), \
            "folded spans must take fresh local ids"
