"""Low-overhead hierarchical span tracing for accelerator jobs.

One :class:`Span` covers one timed region of one job's journey through
the stack; spans nest via a per-thread stack, so the instrumented call
chain — ``api.compress`` → ``pool.route`` → ``backend.submit`` →
``vas.paste`` → ``engine.run`` → ``csb.complete`` — comes out as a tree
without any layer knowing about any other.  Fault retries, software
fallbacks, and paste rejections attach to the innermost open span as
*events* (point-in-time annotations), mirroring how the paper's
engineers attributed per-job latency to queueing, DMA, and fault
service.

Cost model: the module-level :data:`TRACE` singleton starts disabled,
and the switch is the tracer's alone: every site calls :meth:`Tracer.span`
(``with TRACE.span(...) as span``) or :meth:`Tracer.event`
unconditionally, and while disabled ``span`` returns the shared
allocation-free :data:`NULL_SPAN` and ``event`` returns at once.  A
disabled span with keyword attributes and one ``set`` costs ~1.1 us
against ~0.02 us for the attribute test it replaced (Python 3.11.7,
median of ``timeit`` repeats on a 2-CPU x86-64 VM); work only a trace
reads, such as parsing a wire ``traceparent``, happens inside the
tracer, so a disabled site does none of it.  Timing uses
``perf_counter`` so span durations are wall-clock and monotonic; the
``perf_counter`` captured at enable time is the exporters' zero.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .context import TraceContext

#: Finished-span ring limit: tracing a long run must not grow without
#: bound, so beyond this the oldest spans are dropped (and counted).
DEFAULT_MAX_SPANS = 100_000


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (fault, resubmit, ...)."""

    name: str
    timestamp_s: float
    attrs: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "ts_s": self.timestamp_s,
                "attrs": self.attrs}


class Span:
    """One timed region of one job; nests under the thread's open span."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "end_s", "attrs", "events", "ctx", "_tracer")

    def __init__(self, name: str, trace_id: int, span_id: int,
                 parent_id: int | None, start_s: float,
                 tracer: "Tracer",
                 ctx: TraceContext | None = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s = 0.0
        self.attrs: dict = {}
        self.events: list[SpanEvent] = []
        self.ctx = ctx
        self._tracer = tracer

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def set(self, **attrs: object) -> "Span":
        """Attach result attributes (bytes out, modelled seconds, ...)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point annotation (fault, resubmit, fallback, ...)."""
        self.events.append(SpanEvent(name=name,
                                     timestamp_s=time.perf_counter(),
                                     attrs=attrs))

    def to_dict(self) -> dict:
        """JSON-able form (the JSON-lines exporter writes one per line)."""
        out = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "events": [event.to_dict() for event in self.events],
        }
        if self.ctx is not None:
            out["ctx"] = self.ctx.to_dict()
        return out

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end_s = time.perf_counter()
        self._tracer._finish(self)

    def end(self) -> None:
        """Finish explicitly (detached spans that outlive a scope)."""
        self.__exit__(None, None, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, parent={self.parent_id})")


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def end(self) -> None:
        pass


#: The single no-op span every disabled-path ``span()`` call returns.
NULL_SPAN = _NullSpan()


class Tracer:
    """Produces spans and collects the finished ones.

    The global :data:`TRACE` instance is what the stack instruments
    against; independent instances (e.g. a bench's private stage
    recorder) are fully supported and never touch global state.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.dropped = 0
        self.epoch_perf_s = 0.0       # perf_counter() at enable
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_trace = 1
        self._next_span = 1

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.epoch_perf_s = time.perf_counter()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop collected spans (keeps the enabled flag as-is)."""
        with self._lock:
            self.spans = []
            self.dropped = 0
        self._local.stack = []

    # -- span production ---------------------------------------------------

    def span(self, name: str, ctx: TraceContext | None = None,
             **attrs: object) -> Span | _NullSpan:
        """Open a span under the thread's current one; use as a context
        manager.  Returns :data:`NULL_SPAN` while disabled."""
        if not self.enabled:
            return NULL_SPAN
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
            if stack:
                parent = stack[-1]
                trace_id = parent.trace_id
                parent_id = parent.span_id
            else:
                trace_id = self._next_trace
                self._next_trace += 1
                parent_id = None
        span = Span(name=name, trace_id=trace_id, span_id=span_id,
                    parent_id=parent_id, start_s=time.perf_counter(),
                    tracer=self, ctx=ctx)
        if attrs:
            span.attrs.update(attrs)
        stack.append(span)
        return span

    def span_detached(self, name: str, traceparent: str | None = None,
                      **attrs: object) -> Span | _NullSpan:
        """A span that is *not* bound to any thread's stack.

        Request lifecycles that cross threads — a service job enqueued
        on a client-handler thread and fulfilled on the dispatcher —
        cannot use the per-thread nesting model: the span must open on
        one thread and close on another.  A detached span has an
        fresh trace and never appears on a stack; finishing it only
        files it with the collected spans.  It joins the wire trace the
        caller's ``traceparent`` header names (as a child context of
        it), or roots a fresh one when that is absent or malformed.
        An attribute given as None is left off.
        """
        if not self.enabled:
            return NULL_SPAN
        parsed = TraceContext.parse(traceparent)
        ctx = parsed.child() if parsed else TraceContext.new()
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
            trace_id = self._next_trace
            self._next_trace += 1
        span = Span(name=name, trace_id=trace_id, span_id=span_id,
                    parent_id=None, start_s=time.perf_counter(),
                    tracer=self, ctx=ctx)
        span.attrs.update((key, value) for key, value in attrs.items()
                          if value is not None)
        return span

    def adopt(self, span: "Span | _NullSpan") -> "_Adoption":
        """Make ``span`` this thread's innermost span for a scope.

        Used by a worker executing someone else's detached span: while
        adopted, new spans opened on this thread nest under it, so e.g.
        ``pool.route`` comes out as a child of the ``service.request``
        span even though the request was created on another thread.
        Adoption does not finish the span — the owner still exits it.
        """
        return _Adoption(self, span)

    def event(self, name: str, **attrs: object) -> None:
        """Annotate the innermost open span (no-op with none open)."""
        if not self.enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].event(name, **attrs)

    def current_ctx(self) -> TraceContext | None:
        """The nearest enclosing span's wire context, if any.

        Walks this thread's open-span stack innermost-first; used at
        process-boundary submission points (exec descriptors) to carry
        the wire trace id onward.  Only called on traced paths.
        """
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        for span in reversed(stack):
            if span.ctx is not None:
                return span.ctx
        return None

    def _finish(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # mis-nested exit: unwind to it
            while stack and stack.pop() is not span:
                pass
        with self._lock:
            if len(self.spans) >= DEFAULT_MAX_SPANS:
                del self.spans[0]
                self.dropped += 1
            self.spans.append(span)

    # -- cross-process folding ---------------------------------------------

    def fold(self, span_dicts: list[dict],
             parent: "Span | None" = None) -> list[Span]:
        """Graft spans recorded in another process into this tracer.

        ``span_dicts`` is a list of :meth:`Span.to_dict` records (the
        form worker completion records carry).  Every span gets fresh
        ids from this tracer so they cannot collide with local ones,
        but the parent/child structure *within* the batch is preserved;
        spans whose parent is not in the batch (the worker's roots)
        attach under ``parent`` when given, else start a fresh trace.

        Timestamps are kept as-is: ``perf_counter`` is
        ``CLOCK_MONOTONIC`` on Linux, which is shared across processes
        on the same host, so worker span times line up with local ones.
        """
        if not self.enabled or not span_dicts:
            return []
        if parent is not None and isinstance(parent, Span):
            trace_id = parent.trace_id
            root_parent = parent.span_id
        else:
            with self._lock:
                trace_id = self._next_trace
                self._next_trace += 1
            root_parent = None
        id_map: dict[int, int] = {}
        with self._lock:
            for record in span_dicts:
                id_map[record["span_id"]] = self._next_span
                self._next_span += 1
        folded: list[Span] = []
        for record in span_dicts:
            old_parent = record.get("parent_id")
            parent_id = id_map.get(old_parent, root_parent) \
                if old_parent is not None else root_parent
            span = Span(name=record["name"], trace_id=trace_id,
                        span_id=id_map[record["span_id"]],
                        parent_id=parent_id,
                        start_s=record["start_s"], tracer=self,
                        ctx=TraceContext.from_dict(record.get("ctx")))
            span.end_s = record["start_s"] + record["duration_s"]
            span.attrs = dict(record.get("attrs") or {})
            span.events = [
                SpanEvent(name=event["name"], timestamp_s=event["ts_s"],
                          attrs=dict(event.get("attrs") or {}))
                for event in record.get("events") or []]
            folded.append(span)
        with self._lock:
            for span in folded:
                if len(self.spans) >= DEFAULT_MAX_SPANS:
                    del self.spans[0]
                    self.dropped += 1
                self.spans.append(span)
        return folded

    # -- inspection --------------------------------------------------------

    def finished(self) -> list[Span]:
        """Completed spans."""
        with self._lock:
            return list(self.spans)


class _Adoption:
    """Context manager pushing a foreign span onto this thread's stack."""

    __slots__ = ("_tracer", "_span", "_pushed")

    def __init__(self, tracer: Tracer, span: Span | _NullSpan) -> None:
        self._tracer = tracer
        self._span = span
        self._pushed = False

    def __enter__(self) -> Span | _NullSpan:
        if isinstance(self._span, Span):
            local = self._tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(self._span)
            self._pushed = True
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        if self._pushed:
            stack = getattr(self._tracer._local, "stack", None)
            if stack and stack[-1] is self._span:
                stack.pop()
            elif stack and self._span in stack:
                stack.remove(self._span)


#: The process-global tracer every instrumented layer calls.
TRACE = Tracer()
