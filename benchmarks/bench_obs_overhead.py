"""Telemetry overhead: the cost of the disabled (and enabled) tracer.

The observability layer promises *near-zero* cost while disabled: every
instrumented site makes one unconditional call (``with TRACE.span(...)``,
``REGISTRY.counter(...).inc(...)``), and the disabled sink answers it
with a shared null span or null metric — ~1.1 us a span with keyword
attributes, ~0.4 us a counter ``inc`` (Python 3.11.7, median of
``timeit`` repeats on a 2-CPU x86-64 VM).  This bench puts a number on
that promise by pairing, in one process, runs of the raw kernel cores
(:func:`deflate_core` / :func:`inflate_core`, which open no span at
all) with runs of the public wrappers (one null span each) with
telemetry off, on many short calls, and taking the median of the
per-sample ratios (see :func:`_paired_overhead`).
It also measures traced throughput so the *enabled* cost is visible,
and the cost of the always-on flight recorder: the API layer appends
one compact ring record per request even with tracing off, so the
bench pairs API-level compresses with the recorder enabled (the
default production posture) with the same calls with it disabled.

Results are written to ``BENCH_obs.json`` at the repo root;
``tools/perf_gate.py`` enforces the documented <2 % ceiling on every
``*_off_overhead_pct`` key — the disabled tracer's null span *and* the
flight-recorder append.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

from _common import measure
from repro import obs
from repro.core.api import NxGzip
from repro.deflate.compress import deflate, deflate_core
from repro.deflate.inflate import inflate_core, inflate_with_stats
from repro.obs.flight import FLIGHT
from repro.workloads.corpus import corpus_bytes

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_obs.json"

_MB = 1e6

#: Bytes per timed call.  A null span costs the same ~1.1 us on any
#: call, so a small call is the worst case for its share, and many
#: short samples sit closer in time than a few long ones: on a noisy
#: 2-CPU host, four runs of 600 samples of 1 KB deflates read -0.11 to
#: +0.18 %, of 32 samples of 16 KB -2.2 to +2.5 %, and the best-of-9
#: ratio of 295 KB calls this replaced 0.0 to 8.4 %.
SAMPLE_BYTES = 1024

#: Mirrored samples per raw/wrapped pair (6.5 s for all three pairs).
SAMPLES = 600


def _paired_overhead(raw_fn, wrapped_fn,
                     samples: int) -> tuple[float, float, float]:
    """Wrapper cost in percent of the raw time, then the best raw and the
    best wrapped seconds.

    A sample is two back-to-back pairs of a raw and a wrapped run in
    mirrored order (raw, wrapped, wrapped, raw), so neither the order
    within a pair nor a steady drift of the host favours a side; the
    cost is the median of the per-sample ratios, so one slow run moves
    nothing.  A negative cost is noise, reported as such.
    """
    ratios: list[float] = []
    best_raw = best_wrapped = float("inf")
    for _ in range(samples):
        raw_1 = _timed(raw_fn)
        wrapped_1 = _timed(wrapped_fn)
        wrapped_2 = _timed(wrapped_fn)
        raw_2 = _timed(raw_fn)
        ratios.append((wrapped_1 + wrapped_2) / (raw_1 + raw_2))
        best_raw = min(best_raw, raw_1, raw_2)
        best_wrapped = min(best_wrapped, wrapped_1, wrapped_2)
    return ((statistics.median(ratios) - 1.0) * 100.0, best_raw,
            best_wrapped)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_bench(level: int = 6) -> dict:
    """Measure disabled-telemetry overhead and traced throughput."""
    sample = corpus_bytes("calgary-like")[:SAMPLE_BYTES]

    was_tracing = obs.tracing_enabled()
    was_metrics = obs.metrics_enabled()
    obs.disable()

    payload = deflate(sample, level=level).data

    deflate_overhead, _raw_s, wrapped_s = _paired_overhead(
        lambda: deflate_core(sample, level=level),
        lambda: deflate(sample, level=level), SAMPLES)
    deflate_off_mbps = len(sample) / _MB / wrapped_s

    inflate_overhead, _raw_s, wrapped_s = _paired_overhead(
        lambda: inflate_core(payload),
        lambda: inflate_with_stats(payload), SAMPLES)
    inflate_off_mbps = len(sample) / _MB / wrapped_s

    # Flight-recorder cost: the API layer appends one ring record per
    # request unconditionally, so pair full API compresses with
    # the recorder on (default) vs off.  Gated like the null spans.
    flight_was = FLIGHT.enabled
    session = NxGzip("POWER9", backend="software")
    try:
        def _api_noflight():
            FLIGHT.disable()
            session.compress(sample)

        def _api_flight():
            FLIGHT.enable()
            session.compress(sample)

        flight_overhead, noflight_s, flight_s = _paired_overhead(
            _api_noflight, _api_flight, SAMPLES)
    finally:
        session.close()
        FLIGHT.enabled = flight_was
        FLIGHT.reset()
    api_flight_mbps = len(sample) / _MB / flight_s
    api_noflight_mbps = len(sample) / _MB / noflight_s

    # Enabled cost: same kernel with spans recorded, for the record
    # (tracing is opt-in, so this is informational, not gated).
    obs.enable()
    obs.tracer().reset()
    traced_runs = 9
    traced_s = min(_timed(lambda: deflate(sample, level=level))
                   for _ in range(traced_runs))
    spans_recorded = len(obs.tracer().finished())
    obs.reset()
    obs.disable()
    if was_tracing or was_metrics:
        obs.enable(trace=was_tracing, metrics=was_metrics)

    results = {
        "deflate_l6_off_overhead_pct": round(deflate_overhead, 3),
        "inflate_off_overhead_pct": round(inflate_overhead, 3),
        "api_flight_off_overhead_pct": round(flight_overhead, 3),
        "deflate_l6_off_mbps": round(deflate_off_mbps, 3),
        "inflate_off_mbps": round(inflate_off_mbps, 3),
        "api_flight_on_mbps": round(api_flight_mbps, 3),
        "api_flight_disabled_mbps": round(api_noflight_mbps, 3),
        "deflate_l6_traced_mbps": round(len(sample) / _MB / traced_s, 3),
        "spans_per_traced_deflate": spans_recorded // traced_runs,
    }
    meta = {
        "corpus": "calgary-like",
        "bytes": len(sample),
        "level": level,
        "samples": SAMPLES,
        "python": sys.version.split()[0],
    }
    return {"meta": meta, "results": results}


def render(report: dict) -> str:
    meta = report["meta"]
    lines = [f"telemetry overhead on {meta['bytes']} bytes "
             f"({meta['corpus']}, level {meta['level']}, "
             f"median of {meta['samples']} samples)"]
    for key, value in report["results"].items():
        unit = "%" if key.endswith("_pct") else (
            " MB/s" if key.endswith("_mbps") else "")
        lines.append(f"  {key:32s} {value:10.3f}{unit}"
                     if isinstance(value, float)
                     else f"  {key:32s} {value:>10}{unit}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-write", action="store_true",
                        help="print results without updating the JSON")
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH,
                        help="output JSON path (default repo root)")
    args = parser.parse_args(argv)

    report = measure(run_bench)
    print(render(report))
    if not args.no_write:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
