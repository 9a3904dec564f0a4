"""Process-global metrics registry: counters, gauges, histograms.

Naming convention: ``repro_<layer>_<name>`` with Prometheus-style unit
suffixes (``_total`` for counters, ``_seconds``/``_bytes`` on
histograms), so a snapshot reads like the paper's measurement tables —
``repro_api_requests_total``, ``repro_vas_paste_rejections_total``,
``repro_backend_faults_total`` — and scrapes cleanly into any
Prometheus-compatible collector via :meth:`MetricsRegistry.to_prometheus`.

All three metric kinds support optional labels (``inc(1, chip="0")``);
histograms use fixed upper-bound buckets chosen at registration so
observation is O(#buckets) with zero per-sample allocation beyond the
bucket scan.  Like the tracer, the global :data:`REGISTRY` starts
disabled, and the switch is the registry's alone: every site calls it
unconditionally.  While it is off, ``counter`` / ``gauge`` /
``histogram`` / ``window`` hand back the shared :data:`NULL_METRIC`
and :func:`record_job` / :func:`record_service_request` return at once.
A disabled ``inc`` through the null metric costs ~0.4 us against
~0.02 us for the attribute test it replaced (Python 3.11.7, median of
``timeit`` repeats on a 2-CPU x86-64 VM).  A registry built by hand
starts enabled.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from collections import deque

#: Default latency buckets (seconds): 1 us .. 10 s, decade thirds.
LATENCY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0)

#: Default size buckets (bytes): 256 B .. 64 MB, powers of four.
SIZE_BUCKETS = (256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
                1048576.0, 4194304.0, 16777216.0, 67108864.0)

#: Default compression-ratio buckets (input/output, bigger is better).
RATIO_BUCKETS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0)

_LabelKey = tuple  # sorted (key, value) pairs


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Common label-fanout machinery for one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._values: dict[_LabelKey, object] = {}

    def label_keys(self) -> list[_LabelKey]:
        with self._lock:
            return sorted(self._values)

    def prometheus_block(self) -> list[str]:
        """HELP/TYPE header plus this family's sample lines."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(self.prometheus_lines())
        return lines


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return float(self._values.get(_label_key(labels), 0.0))

    def snapshot_values(self) -> list[dict]:
        return [{"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())]

    def prometheus_lines(self) -> list[str]:
        return [f"{self.name}{_render_labels(key)} {_num(value)}"
                for key, value in sorted(self._values.items())]


class Gauge(_Metric):
    """A value that can go up and down (queue depth, pass/fail)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return float(self._values.get(_label_key(labels), 0.0))

    snapshot_values = Counter.snapshot_values
    prometheus_lines = Counter.prometheus_lines


class _HistogramState:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, nbuckets: int) -> None:
        self.counts = [0] * (nbuckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket distribution (latency, sizes, ratios)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: tuple[float, ...]) -> None:
        super().__init__(name, help, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket")

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = self._values[key] = _HistogramState(
                    len(self.buckets))
            state.counts[bisect_left(self.buckets, value)] += 1
            state.sum += value
            state.count += 1

    def state(self, **labels: str) -> _HistogramState | None:
        return self._values.get(_label_key(labels))

    def snapshot_values(self) -> list[dict]:
        out = []
        for key, state in sorted(self._values.items()):
            out.append({
                "labels": dict(key),
                "buckets": [[edge, count] for edge, count
                            in zip(self.buckets, state.counts)],
                "inf": state.counts[-1],
                "sum": state.sum,
                "count": state.count,
            })
        return out

    def prometheus_lines(self) -> list[str]:
        lines = []
        for key, state in sorted(self._values.items()):
            cumulative = 0
            for edge, count in zip(self.buckets, state.counts):
                cumulative += count
                le = 'le="%s"' % _num(edge)
                lines.append(f"{self.name}_bucket"
                             f"{_render_labels(key, le)} {cumulative}")
            inf = 'le="+Inf"'
            lines.append(f"{self.name}_bucket"
                         f"{_render_labels(key, inf)} {state.count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} "
                         f"{_num(state.sum)}")
            lines.append(f"{self.name}_count{_render_labels(key)} "
                         f"{state.count}")
        return lines


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


class RollingWindow(_Metric):
    """Time-windowed sample aggregates: p50/p99, mean, rate.

    The live-ops kind the counters and histograms can't express:
    "p99 latency *over the last minute*, per QoS class", "bytes/s per
    chip *right now*".  Each label set keeps a bounded deque of
    ``(perf_counter, value)`` samples; summaries consider only samples
    inside ``window_s``.  Process-local by design — worker snapshots
    don't carry windows (``merge_snapshot`` skips them), because a
    rolling quantile only means something on the node that serves the
    scrape.
    """

    kind = "window"

    #: Seconds of samples a summary considers, and samples kept per
    #: label set.
    window_s = 60.0
    max_samples = 2048

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        super().__init__(name, help, lock)

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            samples = self._values.get(key)
            if samples is None:
                samples = self._values[key] = deque(
                    maxlen=self.max_samples)
            samples.append((time.perf_counter(), float(value)))

    def summary(self, **labels: str) -> dict:
        """Aggregates over the in-window samples for one label set."""
        with self._lock:
            samples = list(self._values.get(_label_key(labels)) or ())
        return self._summarize(samples)

    def _summarize(self, samples: list[tuple[float, float]]) -> dict:
        now = time.perf_counter()
        live = sorted(value for t, value in samples
                      if now - t <= self.window_s)
        if not live:
            return {"count": 0, "rate_per_s": 0.0, "mean": 0.0,
                    "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": len(live),
            "rate_per_s": len(live) / self.window_s,
            "mean": sum(live) / len(live),
            "p50": _percentile(live, 0.50),
            "p99": _percentile(live, 0.99),
            "max": live[-1],
        }

    def snapshot_values(self) -> list[dict]:
        with self._lock:
            items = [(key, list(samples))
                     for key, samples in sorted(self._values.items())]
        return [{"labels": dict(key), **self._summarize(samples)}
                for key, samples in items]

    def prometheus_lines(self) -> list[str]:
        lines = []
        for entry in self.snapshot_values():
            key = _label_key(entry["labels"])
            for stat in ("count", "rate_per_s", "mean", "p50", "p99"):
                lines.append(f"{self.name}_{stat}{_render_labels(key)} "
                             f"{_num(round(entry[stat], 9))}")
        return lines

    def prometheus_block(self) -> list[str]:
        # A "window" is not a Prometheus type; expose each derived stat
        # as its own gauge family so scrapers parse it cleanly.
        lines = []
        for stat in ("count", "rate_per_s", "mean", "p50", "p99"):
            name = f"{self.name}_{stat}"
            if self.help:
                lines.append(f"# HELP {name} {self.help} ({stat}, "
                             f"{self.window_s:g}s window)")
            lines.append(f"# TYPE {name} gauge")
            for entry in self.snapshot_values():
                key = _label_key(entry["labels"])
                lines.append(f"{name}{_render_labels(key)} "
                             f"{_num(round(entry[stat], 9))}")
        return lines


class _NullMetric:
    """Shared do-nothing metric a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    observe = add = set


#: The single no-op metric every disabled-registry lookup returns.
NULL_METRIC = _NullMetric()


def _num(value: float) -> str:
    """Render without a trailing .0 for integral values."""
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


class MetricsRegistry:
    """Name-keyed metric families with JSON and Prometheus snapshots."""

    def __init__(self) -> None:
        self.enabled = True
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- registration (get-or-create; the null metric while disabled) ------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, help, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, help, Gauge)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(name, help, Histogram, buckets=buckets)

    def window(self, name: str, help: str = "") -> RollingWindow:
        return self._get_or_create(name, help, RollingWindow)

    def _get_or_create(self, name: str, help: str, cls: type,
                       **kwargs: object) -> _Metric:
        if not self.enabled:
            return NULL_METRIC
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, self._lock,
                                                   **kwargs)
        if type(metric) is not cls:
            raise TypeError(f"{name!r} is a {metric.kind}, "
                            f"not a {cls.kind}")
        return metric

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every registered family (tests and fresh runs)."""
        with self._lock:
            self._metrics = {}

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able view of every family, stably ordered by name."""
        out: dict = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: dict = {"type": metric.kind, "help": metric.help,
                           "values": metric.snapshot_values()}
            if isinstance(metric, Histogram):
                entry["bucket_edges"] = list(metric.buckets)
            if isinstance(metric, RollingWindow):
                entry["window_s"] = metric.window_s
            out[name] = entry
        return out

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how metrics recorded inside pool worker processes reach
        the parent's process-global registry: counters *add*, gauges
        take the incoming value (last write wins, as for any gauge
        set), histograms merge bucket-by-bucket — exact when both sides
        registered the same bucket edges (they do; the worker runs the
        same code), and conservatively folded by edge value otherwise.
        Rolling windows are skipped: their snapshots carry summaries,
        not samples, and a p99-over-the-last-minute only means
        something on the process that serves the scrape.
        """
        if not self.enabled:
            return
        for name, entry in snap.items():
            kind = entry.get("type")
            values = entry.get("values") or []
            if kind == "counter":
                counter = self.counter(name, entry.get("help", ""))
                for value in values:
                    counter.inc(value["value"], **value["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, entry.get("help", ""))
                for value in values:
                    gauge.set(value["value"], **value["labels"])
            elif kind == "histogram":
                edges = tuple(entry.get("bucket_edges")
                              or LATENCY_BUCKETS)
                hist = self.histogram(name, entry.get("help", ""),
                                      buckets=edges)
                for value in values:
                    key = _label_key(value["labels"])
                    with self._lock:
                        state = hist._values.get(key)
                        if state is None:
                            state = hist._values[key] = _HistogramState(
                                len(hist.buckets))
                        for edge, count in value["buckets"]:
                            if count:
                                state.counts[bisect_left(
                                    hist.buckets, edge)] += count
                        state.counts[-1] += value["inf"]
                        state.sum += value["sum"]
                        state.count += value["count"]

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            lines.extend(self._metrics[name].prometheus_block())
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry the instrumented stack records into; off
#: until :func:`repro.obs.enable`.
REGISTRY = MetricsRegistry()
REGISTRY.enabled = False


# -- shared recording helpers --------------------------------------------
#
# The per-handle stats dataclasses (BackendStats, which an NxGzip
# session's SessionStats is, and MatchStats) stay the cheap views; these
# helpers are the one place their recording points also publish into the
# global registry, so a metrics snapshot aggregates every layer
# consistently.

def record_job(layer: str, *, op: str, nbytes_in: int, nbytes_out: int,
               seconds: float, faults: int = 0, fallback: bool = False,
               **labels: str) -> None:
    """Fold one completed request into the global registry."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter(f"repro_{layer}_requests_total",
                     "completed requests").inc(1, op=op, **labels)
    REGISTRY.counter(f"repro_{layer}_bytes_in_total",
                     "input bytes").inc(nbytes_in, op=op, **labels)
    REGISTRY.counter(f"repro_{layer}_bytes_out_total",
                     "output bytes").inc(nbytes_out, op=op, **labels)
    REGISTRY.histogram(f"repro_{layer}_job_seconds",
                       "modelled per-job latency",
                       buckets=LATENCY_BUCKETS).observe(
        seconds, op=op, **labels)
    REGISTRY.histogram(f"repro_{layer}_job_bytes",
                       "per-job input size",
                       buckets=SIZE_BUCKETS).observe(
        nbytes_in, op=op, **labels)
    if op == "compress" and nbytes_out:
        REGISTRY.histogram(f"repro_{layer}_ratio",
                           "compression ratio (in/out)",
                           buckets=RATIO_BUCKETS).observe(
            nbytes_in / nbytes_out, **labels)
    if faults:
        REGISTRY.counter(f"repro_{layer}_faults_total",
                         "accelerator page-translation faults").inc(
            faults, **labels)
    if fallback:
        REGISTRY.counter(f"repro_{layer}_fallbacks_total",
                         "software fallbacks after retry exhaustion").inc(
            1, **labels)


def record_service_request(*, op: str, qos: str, outcome: str,
                           tenant: str = "",
                           nbytes_in: int = 0, nbytes_out: int = 0,
                           modelled_s: float = 0.0,
                           queue_wait_s: float = 0.0,
                           reason: str = "") -> None:
    """Fold one service-layer request (served or shed) into the registry.

    ``outcome`` is ``ok`` / ``rejected`` / ``expired`` / ``failed``;
    shed requests carry a ``reason`` (``queue_full``, ``closed``, ...).
    Served requests also flow through :func:`record_job` under the
    ``service`` layer so bytes/latency/ratio aggregate like every other
    layer's.
    """
    if not REGISTRY.enabled:
        return
    labels = {"tenant": tenant} if tenant else {}
    # Admission-level outcomes; completed requests additionally flow
    # through record_job below, which owns repro_service_requests_total.
    REGISTRY.counter("repro_service_outcomes_total",
                     "requests by admission/completion outcome").inc(
        1, op=op, qos=qos, outcome=outcome, **labels)
    REGISTRY.histogram("repro_service_queue_wait_seconds",
                       "wall-clock time a request waited for dispatch",
                       buckets=LATENCY_BUCKETS).observe(
        queue_wait_s, qos=qos)
    if outcome == "ok":
        record_job("service", op=op, nbytes_in=nbytes_in,
                   nbytes_out=nbytes_out, seconds=modelled_s,
                   qos=qos, **labels)
    else:
        REGISTRY.counter("repro_service_rejected_total",
                         "requests shed or failed by the service").inc(
            1, qos=qos, outcome=outcome,
            reason=reason or "unknown", **labels)
