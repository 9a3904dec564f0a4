"""Storage-tier compression service: offload policy + shared-engine load.

A storage node compresses pages before writing them out.  This example
uses the offload advisor to route requests (hardware vs software by
size), then pushes a realistic request mix through the queueing model to
see how latency behaves as the node approaches the engine's capacity —
the sharing story of the paper's system integration section.

Run:  python examples/storage_tier.py
"""

from __future__ import annotations

from repro import NxGzip, OffloadAdvisor, Route
from repro.core.metrics import Table, human_bytes
from repro.nx.params import POWER9
from repro.perf.queueing import AcceleratorQueue, Source, bimodal_size
from repro.workloads.generators import generate


def routing_demo() -> None:
    advisor = OffloadAdvisor(POWER9)
    table = Table(headers=["request", "route", "hw us", "sw us", "gain"])
    for size in (512, 4096, 65536, 1 << 20, 16 << 20):
        rec = advisor.recommend(size)
        table.add(human_bytes(size), rec.route.value,
                  rec.hw_latency_s * 1e6, rec.sw_latency_s * 1e6,
                  rec.gain)
    print(table.render("offload routing (zlib -6 equivalent)"))
    print(f"break-even: {human_bytes(advisor.break_even_bytes())}\n")


def congestion_demo() -> None:
    """What a congested engine does to the advisor's decision."""
    advisor = OffloadAdvisor(POWER9)
    rec = advisor.recommend(65536, queue_wait_s=0.0)
    busy = advisor.recommend(65536, queue_wait_s=5e-3)
    print("64 KB request, idle engine:      ->", rec.route.value)
    print("64 KB request, 5 ms queue wait:  ->", busy.route.value, "\n")
    assert rec.route is Route.HARDWARE


def load_demo() -> None:
    model = AcceleratorQueue(POWER9, seed=3)
    mix = bimodal_size(8192, 4 << 20, small_fraction=0.9)
    table = Table(headers=["offered load", "mean us", "p99 us", "GB/s"])
    for load in (0.3, 0.6, 0.9):
        service = model.service_seconds(8192) * 0.9 + \
            model.service_seconds(4 << 20) * 0.1
        rate = load / service
        result = model.run_open([Source(rate / 16, mix)] * 16,
                                duration_s=0.2)
        table.add(load, result.mean_latency * 1e6,
                  result.percentile(99) * 1e6,
                  result.throughput_gbps)
    print(table.render("shared engine under RPC+bulk mix"))
    print()


def correctness_demo() -> None:
    """And of course the bits that come out are real gzip."""
    import gzip

    page = generate("database_pages", 65536, seed=9)
    with NxGzip("POWER9") as session:
        compressed = session.compress(page, fmt="gzip")
    print(f"db page {human_bytes(len(page))} -> "
          f"{human_bytes(len(compressed.data))} "
          f"(x{len(page) / len(compressed.data):.1f}); "
          f"gzip-verified: {gzip.decompress(compressed.data) == page}")


def main() -> None:
    routing_demo()
    congestion_demo()
    load_demo()
    correctness_demo()


if __name__ == "__main__":
    main()
