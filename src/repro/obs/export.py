"""Span exporters: JSON-lines log and Chrome ``trace_event`` JSON.

The Chrome format is the one Perfetto / ``chrome://tracing`` opens
directly: complete events (``ph: "X"``) with microsecond timestamps,
one timeline row per trace (job), plus instant events (``ph: "i"``) for
the span annotations — so an exec-pool batch or DES run renders as the
familiar flame chart with faults and resubmits visible as markers.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from .trace import TRACE, Span, Tracer

#: Process name Perfetto shows for the repro timeline.
PROCESS_NAME = "repro"


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in span-finish order."""
    return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                   for span in spans)


def write_spans_jsonl(spans: Iterable[Span],
                      path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(spans_to_jsonl(spans))
    return path


def spans_to_chrome_trace(spans: Iterable[Span],
                          epoch_perf_s: float = 0.0) -> dict:
    """Build a ``trace_event`` JSON document from finished spans.

    ``epoch_perf_s`` (the tracer's enable-time ``perf_counter``) rebases
    timestamps so the trace starts near zero.  Each trace id becomes one
    thread row, so concurrent jobs stack as parallel timelines.
    """
    events: list[dict] = []
    tids: set[int] = set()
    for span in spans:
        ts_us = (span.start_s - epoch_perf_s) * 1e6
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.attrs)
        tids.add(span.trace_id)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": ts_us,
            "dur": span.duration_s * 1e6,
            "pid": 1,
            "tid": span.trace_id,
            "args": args,
        })
        for event in span.events:
            events.append({
                "name": event.name,
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": (event.timestamp_s - epoch_perf_s) * 1e6,
                "pid": 1,
                "tid": span.trace_id,
                "args": dict(event.attrs),
            })
    meta = [{"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": PROCESS_NAME}}]
    meta.extend({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": f"job {tid}"}} for tid in sorted(tids))
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def spans_to_trees(spans: Iterable[Span]) -> list[dict]:
    """Group finished spans into one tree per *wire* trace.

    Local trace ids are process-private; the wire identity is the
    :class:`~repro.obs.context.TraceContext` stamped on trace roots by
    the propagation layer (client request spans, the service's adopted
    request spans, worker job roots).  This builder:

    1. groups spans by local trace id and stamps each group with the
       wire trace id of any context-carrying span in it (groups with no
       context stay under a synthetic ``local-<id>`` trace);
    2. merges groups sharing a wire trace id, re-linking each group's
       roots to the span whose wire ``span_id`` matches their context's
       ``parent_id`` — so a client span, the server's request span, and
       folded worker spans come out as *one* nested tree even though
       each was a separate local trace.

    Returns one ``{"trace_id", "spans", "roots"}`` dict per trace, most
    recently started first; each node is a span dict plus ``children``.
    """
    spans = list(spans)
    # 1. wire trace id per local group.
    wire_of_local: dict[int, str] = {}
    for span in spans:
        if span.ctx is not None:
            wire_of_local.setdefault(span.trace_id, span.ctx.trace_id)
    nodes: dict[int, dict] = {}
    groups: dict[str, list[Span]] = {}
    for span in spans:
        wire = wire_of_local.get(span.trace_id,
                                 f"local-{span.trace_id}")
        groups.setdefault(wire, []).append(span)
        node = span.to_dict()
        node["children"] = []
        nodes[span.span_id] = node
    # 2. link: local edges first, then wire edges for local roots.
    trees: list[dict] = []
    for wire, members in groups.items():
        by_wire_span = {span.ctx.span_id: span for span in members
                        if span.ctx is not None}
        local_ids = {span.span_id for span in members}
        roots: list[dict] = []
        for span in sorted(members, key=lambda s: s.start_s):
            parent = None
            if span.parent_id in local_ids:
                parent = nodes[span.parent_id]
            elif span.ctx is not None and span.ctx.parent_id is not None:
                owner = by_wire_span.get(span.ctx.parent_id)
                if owner is not None and owner is not span:
                    parent = nodes[owner.span_id]
            if parent is not None:
                parent["children"].append(nodes[span.span_id])
            else:
                roots.append(nodes[span.span_id])
        trees.append({
            "trace_id": wire,
            "spans": len(members),
            "start_s": min(span.start_s for span in members),
            "roots": roots,
        })
    trees.sort(key=lambda tree: tree["start_s"], reverse=True)
    return trees


def write_chrome_trace(tracer_or_spans: Tracer | Iterable[Span],
                       path: str | pathlib.Path) -> pathlib.Path:
    """Write a Perfetto-openable trace; accepts a tracer or raw spans."""
    if isinstance(tracer_or_spans, Tracer):
        spans = tracer_or_spans.finished()
        epoch = tracer_or_spans.epoch_perf_s
    else:
        spans = list(tracer_or_spans)
        epoch = min((span.start_s for span in spans), default=0.0)
    path = pathlib.Path(path)
    path.write_text(json.dumps(spans_to_chrome_trace(spans, epoch),
                               indent=None, sort_keys=True))
    return path


def export_chrome_trace(path: str | pathlib.Path) -> pathlib.Path:
    """Write the global tracer's spans as Perfetto-openable JSON."""
    return write_chrome_trace(TRACE, path)


def export_spans_jsonl(path: str | pathlib.Path) -> pathlib.Path:
    """Write the global tracer's spans as a JSON-lines log."""
    return write_spans_jsonl(TRACE.finished(), path)
