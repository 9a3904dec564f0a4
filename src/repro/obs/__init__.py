"""End-to-end job telemetry: spans, metrics, and trace export.

The observability layer the ROADMAP's production north star needs:

* :mod:`repro.obs.trace` — hierarchical spans following every job across
  the stack (``api.compress`` → ``pool.route`` → ``backend.submit`` →
  ``vas.paste`` → ``engine.run`` → ``csb.complete``), with fault /
  resubmit / fallback events as annotations;
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and fixed-bucket histograms, snapshot-able as JSON and
  Prometheus text;
* :mod:`repro.obs.export` — JSON-lines span log and Chrome
  ``trace_event`` JSON (opens directly in Perfetto).

Telemetry is **off by default**.  Each sink owns its switch: every
instrumented site calls it unconditionally, and while off a span is the
shared ``NULL_SPAN`` and a metric the shared null metric (~1.1 us and
~0.4 us a site).  Turn it on per process::

    from repro import obs
    obs.enable()                      # spans + metrics
    ...
    obs.export_chrome_trace("run.trace.json")
    print(obs.registry().to_prometheus())

or from the CLI with ``repro --trace compress file`` / ``repro stats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .context import TraceContext
    from .export import (export_chrome_trace, export_spans_jsonl,
                         spans_to_chrome_trace, spans_to_jsonl,
                         spans_to_trees, write_chrome_trace,
                         write_spans_jsonl)
    from .flight import FLIGHT, FlightRecorder
    from .http import OpsServer
    from .metrics import (LATENCY_BUCKETS, RATIO_BUCKETS, REGISTRY,
                          SIZE_BUCKETS, Counter, Gauge, Histogram,
                          MetricsRegistry, RollingWindow, record_job,
                          record_service_request)
    from .trace import NULL_SPAN, TRACE, Span, SpanEvent, Tracer

__all__ = [
    "enable", "disable", "reset", "tracing_enabled", "metrics_enabled",
    "tracer", "registry", "flight",
    *lazy_exports(__name__, {
        "context": "TraceContext",
        "export": "export_chrome_trace export_spans_jsonl "
                  "spans_to_chrome_trace spans_to_jsonl spans_to_trees "
                  "write_chrome_trace write_spans_jsonl",
        "flight": "FLIGHT FlightRecorder",
        "http": "OpsServer",
        "metrics": "LATENCY_BUCKETS RATIO_BUCKETS REGISTRY SIZE_BUCKETS "
                   "Counter Gauge Histogram MetricsRegistry RollingWindow "
                   "record_job record_service_request",
        "trace": "NULL_SPAN TRACE Span SpanEvent Tracer",
    })]


def tracer() -> Tracer:
    """The process-global tracer the stack instruments against."""
    from .trace import TRACE

    return TRACE


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    from .metrics import REGISTRY

    return REGISTRY


def flight() -> FlightRecorder:
    """The process-global flight recorder (on by default)."""
    from .flight import FLIGHT

    return FLIGHT


def enable(*, trace: bool = True, metrics: bool = True) -> None:
    """Turn on span collection and/or registry recording, process-wide."""
    if trace:
        tracer().enable()
    if metrics:
        registry().enabled = True


def disable() -> None:
    """Stop collecting; already-collected spans/metrics are retained."""
    tracer().disable()
    registry().enabled = False


def reset() -> None:
    """Drop collected spans and metric values (keeps enabled flags)."""
    tracer().reset()
    registry().reset()


def tracing_enabled() -> bool:
    return tracer().enabled


def metrics_enabled() -> bool:
    return registry().enabled
