"""E20 — the serving stack under saturating multi-client load.

Concurrent clients drive one :class:`~repro.service.core.CompressionService`
past its admission capacity while an interactive stream runs alongside
the bulk flood.  Measured on the wall clock: saturation throughput
(accepted payload bytes per second with the bulk queues pinned full),
p99 latency per QoS class, quiet and loaded, and the shed ratio.

``main`` writes ``BENCH_service.json``, whose saturation throughput
``tools/perf_gate.py`` holds fresh runs to, corrected by the host's
speed around the flood (``meta.host_slowdown``); row ``e20`` of
``benchmarks/experiments.py`` renders :func:`build_table` of one run
and checks its claims.  Usage::

    PYTHONPATH=src python benchmarks/bench_e20_service_load.py [--no-write]
"""

from __future__ import annotations

import argparse
import gzip
import json
import pathlib
import threading
import time

from _common import StageRecorder, measure
from repro.core.metrics import Table
from repro.errors import ServiceOverloaded
from repro.service import CompressionService, QosClass, QosPolicy
from repro.workloads.generators import generate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_service.json"

STAGES = StageRecorder()

SEED = 20


def _p99(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, int(len(ordered) * 0.99) - 1)]


POLICY = QosPolicy((
    QosClass("interactive", fifo="high", rank=0, queue_limit=32,
             max_batch=2),
    QosClass("bulk", fifo="normal", rank=1, queue_limit=64, max_batch=8),
))


def run_bench() -> dict:
    """Drive the service to saturation; returns the results dict."""
    payload = generate("json_records", 4096, seed=SEED)
    quiet_probes = 30
    flood_threads = 8
    flood_jobs = 160     # per thread, offered
    probe_jobs = 40
    burst = 32

    with CompressionService(chips=2, qos=POLICY) as svc:
        # Phase 1: quiet interactive latency (the protection baseline).
        quiet: list[float] = []
        with STAGES.stage("quiet", probes=quiet_probes):
            for _ in range(quiet_probes):
                t0 = time.perf_counter()
                result = svc.compress(payload, qos="interactive")
                quiet.append(time.perf_counter() - t0)
                assert gzip.decompress(result.output) == payload

        # Phase 2: bulk flood + concurrent interactive probes.
        lock = threading.Lock()
        bulk_lat: list[float] = []
        probe_lat: list[float] = []
        counters = {"accepted": 0, "shed": 0, "bytes": 0}

        def bulk_client(worker: int) -> None:
            # Burst-submit to pin the bulk queue at its bound — the
            # saturating pattern the admission control exists for.
            remaining = flood_jobs
            while remaining > 0:
                tickets = []
                for _ in range(min(burst, remaining)):
                    t0 = time.perf_counter()
                    try:
                        tickets.append((t0, svc.submit(
                            "compress", payload, qos="bulk")))
                    except ServiceOverloaded:
                        with lock:
                            counters["shed"] += 1
                    remaining -= 1
                for t0, ticket in tickets:
                    out = ticket.wait(120)
                    dt = time.perf_counter() - t0
                    with lock:
                        counters["accepted"] += 1
                        counters["bytes"] += len(payload)
                        bulk_lat.append(dt)
                    assert gzip.decompress(out.output) == payload

        def probe_client() -> None:
            for _ in range(probe_jobs):
                t0 = time.perf_counter()
                try:
                    out = svc.request("compress", payload,
                                      qos="interactive", timeout_s=120)
                except ServiceOverloaded:
                    with lock:
                        counters["shed"] += 1
                    continue
                dt = time.perf_counter() - t0
                with lock:
                    counters["accepted"] += 1
                    counters["bytes"] += len(payload)
                    probe_lat.append(dt)
                assert gzip.decompress(out.output) == payload

        def flood() -> None:
            threads = [threading.Thread(target=bulk_client, args=(w,))
                       for w in range(flood_threads)]
            threads.append(threading.Thread(target=probe_client))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        probes: list[float] = []
        flood_s = STAGES.best_of(flood, 1, probes, "saturate",
                                  threads=flood_threads + 1)
        stats = svc.stats()

    slowdown, = probes
    elapsed = flood_s * slowdown  # back to wall-clock seconds
    offered = flood_threads * flood_jobs + probe_jobs
    saturation_mbps = counters["bytes"] / 1e6 / elapsed if elapsed else 0.0
    results = {"saturation_mbps": round(saturation_mbps, 3),
               "accepted_per_s": round(counters["accepted"] / elapsed, 2)
               if elapsed else 0.0}
    latency = {f"{name}_p99_ms": round(_p99(samples) * 1e3, 3)
               for name, samples in (("interactive_quiet", quiet),
                                     ("interactive_loaded", probe_lat),
                                     ("bulk_loaded", bulk_lat))}
    return {"bench": "e20_service_load", "offered": offered,
            "accepted": counters["accepted"], "shed": counters["shed"],
            "shed_ratio": round(counters["shed"] / offered, 4),
            "batches": stats.batches, "results": results, "latency": latency,
            "meta": {"host_slowdown": round(slowdown, 4)}}


def build_table(data: dict) -> Table:
    table = Table(headers=["metric", "value"])
    table.add("offered requests", data["offered"])
    table.add("accepted", data["accepted"])
    table.add("shed (retryable)", data["shed"])
    table.add("saturation MB/s", data["results"]["saturation_mbps"])
    table.add("accepted/s", data["results"]["accepted_per_s"])
    table.add("batches", data["batches"])
    for key, value in data["latency"].items():
        table.add(key.replace("_", " "), value)
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-write", action="store_true",
                        help="print results without updating the JSON")
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH,
                        help="output JSON path (default repo root)")
    args = parser.parse_args(argv)

    data = measure(run_bench)
    print(build_table(data).render("E20: service under load"))
    if not args.no_write:
        args.out.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {args.out}")
        print(f"stages: {STAGES.write('e20_service_load')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
