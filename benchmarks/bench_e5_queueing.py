"""E5 — shared-accelerator queueing: latency vs offered load.

One NX serves every core on the chip; this sweep locates the queueing
knee and the tail blow-up as offered load approaches engine capacity,
for the standard request mixes.
"""

from __future__ import annotations

from repro.core.metrics import Table
from repro.core.plot import line_chart
from repro.nx.params import POWER9
from repro.perf.queueing import load_sweep

from _common import report

LOADS = [0.2, 0.5, 0.7, 0.85, 0.95]


def compute() -> tuple[Table, list, str]:
    table = Table(headers=["offered load", "mean us", "p95 us",
                           "p99 us", "GB/s"])
    means = []
    mean_pts, p99_pts = [], []
    results = load_sweep(POWER9, loads=LOADS, size_bytes=65536,
                         clients=16, duration_s=0.25)
    for load, result in results:
        table.add(load, result.mean_latency * 1e6,
                  result.percentile(95) * 1e6,
                  result.percentile(99) * 1e6,
                  result.throughput_gbps)
        means.append(result.mean_latency)
        mean_pts.append((load, result.mean_latency * 1e6))
        p99_pts.append((load, result.percentile(99) * 1e6))
    figure = line_chart({"mean": mean_pts, "p99": p99_pts},
                        title="Figure E5: latency vs offered load",
                        y_label="us", x_label="offered load")
    return table, means, figure


def test_e5_queueing(benchmark):
    table, means, figure = benchmark.pedantic(compute, rounds=1,
                                              iterations=1)
    report("e5_queueing", table,
           "E5: shared-accelerator latency vs offered load "
           "(64 KB requests, 16 cores, 1 engine)",
           notes="knee appears as load approaches engine capacity",
           figure=figure)
    assert means == sorted(means)            # latency monotone in load
    assert means[-1] > 2.0 * means[0]        # clear knee by 95% load


if __name__ == "__main__":
    table, _means, figure = compute()
    print(table.render("E5: queueing"))
    print(figure)
