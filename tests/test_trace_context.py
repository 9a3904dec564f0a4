"""Wire trace context: parsing, propagation, folding, tree building."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.context import TraceContext
from repro.obs.export import spans_to_trees
from repro.obs.trace import TRACE


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


class TestTraceContext:
    def test_new_has_valid_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16)
        int(ctx.span_id, 16)
        assert ctx.parent_id is None

    def test_child_keeps_trace_links_parent(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id
        assert child.parent_id == parent.span_id

    def test_traceparent_roundtrip(self):
        ctx = TraceContext.new()
        parsed = TraceContext.parse(ctx.to_traceparent())
        assert parsed == ctx

    @pytest.mark.parametrize("header", [
        None, "", "garbage", "00-short-short-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero span
        "00-" + "G" * 32 + "-" + "1" * 16 + "-01",   # non-hex
        "xx-" + "a" * 32 + "-" + "1" * 16 + "-01",   # bad version
    ])
    def test_malformed_headers_never_raise(self, header):
        assert TraceContext.parse(header) is None

    def test_dict_roundtrip(self):
        ctx = TraceContext.new().child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        assert TraceContext.from_dict(None) is None


class TestSpanContext:
    def test_span_carries_and_serializes_ctx(self, telemetry):
        ctx = TraceContext.new()
        with TRACE.span("client.request", ctx=ctx):
            pass
        (span,) = [s for s in TRACE.finished() if s.name == "client.request"]
        assert span.ctx == ctx
        assert span.to_dict()["ctx"] == ctx.to_dict()

    def test_plain_span_has_no_ctx(self, telemetry):
        with TRACE.span("plain"):
            pass
        (span,) = [s for s in TRACE.finished() if s.name == "plain"]
        assert span.ctx is None
        assert "ctx" not in span.to_dict()

    def test_current_ctx_finds_nearest_carrier(self, telemetry):
        ctx = TraceContext.new()
        assert TRACE.current_ctx() is None
        with TRACE.span("outer", ctx=ctx):
            with TRACE.span("inner"):
                assert TRACE.current_ctx() == ctx
        assert TRACE.current_ctx() is None

    def test_fold_restores_ctx(self, telemetry):
        ctx = TraceContext.new()
        with TRACE.span("worker.job", ctx=ctx):
            pass
        records = [span.to_dict() for span in TRACE.finished()]
        obs.reset()
        folded = TRACE.fold(records)
        assert folded[0].ctx == ctx


class TestSpansToTrees:
    def test_local_hierarchy_one_tree(self, telemetry):
        with TRACE.span("a"):
            with TRACE.span("b"):
                pass
        (tree,) = spans_to_trees(TRACE.finished())
        assert tree["trace_id"].startswith("local-")
        (root,) = tree["roots"]
        assert root["name"] == "a"
        assert [c["name"] for c in root["children"]] == ["b"]

    def test_wire_context_merges_separate_local_traces(self, telemetry):
        """A client span and a detached server span with a child ctx
        come out as one nested tree keyed by the wire trace id."""
        client_ctx = TraceContext.new()
        with TRACE.span("client.request", ctx=client_ctx):
            pass
        server_span = TRACE.span_detached(
            "service.request", traceparent=client_ctx.to_traceparent())
        with TRACE.adopt(server_span):
            with TRACE.span("pool.route"):
                pass
        server_span.end()
        trees = spans_to_trees(TRACE.finished())
        assert len(trees) == 1
        tree = trees[0]
        assert tree["trace_id"] == client_ctx.trace_id
        (root,) = tree["roots"]
        assert root["name"] == "client.request"
        (service,) = root["children"]
        assert service["name"] == "service.request"
        assert [c["name"] for c in service["children"]] == ["pool.route"]

    def test_unrelated_traces_stay_separate(self, telemetry):
        with TRACE.span("one", ctx=TraceContext.new()):
            pass
        with TRACE.span("two", ctx=TraceContext.new()):
            pass
        assert len(spans_to_trees(TRACE.finished())) == 2

    def test_folded_worker_spans_join_wire_tree(self, telemetry):
        """Worker span dicts folded under a local parent join the same
        wire tree as the request that spawned them (the exec path)."""
        req_ctx = TraceContext.new()
        req = TRACE.span_detached("service.request",
                                  traceparent=req_ctx.to_traceparent())
        with TRACE.adopt(req):
            with TRACE.span("pool.route") as route:
                pass
        req.end()
        # Simulate a worker: its own tracer, a ctx-stamped root span.
        worker = obs.trace.Tracer()
        worker.enable()
        worker_ctx = TraceContext.parse(
            req.ctx.to_traceparent()).child()
        with worker.span("worker.job", ctx=worker_ctx):
            with worker.span("deflate.kernel"):
                pass
        records = [span.to_dict() for span in worker.finished()]
        TRACE.fold(records, parent=route)
        (tree,) = spans_to_trees(TRACE.finished())
        assert tree["trace_id"] == req_ctx.trace_id
        (root,) = tree["roots"]
        (route_node,) = root["children"]
        assert route_node["name"] == "pool.route"
        (job,) = route_node["children"]
        assert job["name"] == "worker.job"
        assert [c["name"] for c in job["children"]] == ["deflate.kernel"]
