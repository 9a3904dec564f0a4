"""E16 — asynchronous batch depth vs achieved throughput.

The async interface exists so one thread can keep several requests in
flight and hide invocation latency.  This closed-loop sweep shows
throughput climbing with in-flight depth until the engine saturates —
the classic queueing result behind the window-credit sizing.
"""

from __future__ import annotations

from repro.core.metrics import Table
from repro.nx.params import POWER9
from repro.perf.queueing import AcceleratorQueue

from _common import report

DEPTHS = [1, 2, 4, 8, 16]
SIZE = 65536
DURATION = 0.2


def compute() -> tuple[Table, list]:
    table = Table(headers=["in-flight", "GB/s", "engine util %",
                           "mean us"])
    rates = []
    for depth in DEPTHS:
        model = AcceleratorQueue(POWER9, seed=5)
        result = model.run_closed(clients=depth, think_seconds=10e-6,
                                  duration_s=DURATION, size=SIZE)
        service = model.service_seconds(SIZE)
        util = 100.0 * result.completed * service / result.sim_seconds
        table.add(depth, result.throughput_gbps, min(util, 100.0),
                  result.mean_latency * 1e6)
        rates.append(result.throughput_gbps)
    return table, rates


def test_e16_batch_depth(benchmark):
    table, rates = benchmark.pedantic(compute, rounds=1, iterations=1)
    report("e16_batch_depth", table,
           "E16: closed-loop in-flight depth vs throughput "
           "(64 KB jobs, 10 us think time)",
           notes="depth 1 leaves the engine idle during think/submit; "
                 "a few in-flight requests saturate it")
    assert rates == sorted(rates)          # throughput monotone in depth
    assert rates[2] > 1.5 * rates[0]       # depth 4 >> depth 1
    assert rates[-1] < rates[-2] * 1.2     # saturated by depth 16


if __name__ == "__main__":
    table, _ = compute()
    print(table.render("E16: batch depth"))
