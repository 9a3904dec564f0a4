"""E14 — priority arbitration: small-request tails under bulk load.

The VAS front end's two receive FIFOs (documented feature) exist so
latency-sensitive requests survive bulk saturation.  This bench compares
the two-FIFO arbitration against a single shared FIFO under the same
offered load.
"""

from __future__ import annotations

from repro.core.metrics import Table
from repro.nx.params import POWER9
from repro.perf.queueing import AcceleratorQueue, Source

from _common import report

HIGH_RATE = 4000.0   # 8 KB requests/s (light load by bytes)
BULK_RATE = 1500.0   # 4 MB requests/s -> ~85% engine utilization
DURATION = 0.3
SOURCES = [Source(HIGH_RATE, 8192, high_priority=True),
           Source(BULK_RATE, 4 << 20)]


def compute() -> tuple[Table, dict]:
    table = Table(headers=["scheme", "class", "mean us", "p99 us", "jobs"])
    out = {}
    for bound, label in ((None, "single FIFO"), (8, "priority FIFOs")):
        model = AcceleratorQueue(POWER9, starvation_bound=bound, seed=11)
        results = model.run_open(SOURCES, DURATION).by_class()
        for cls, res in results.items():
            table.add(label, cls, res.mean_latency * 1e6,
                      res.percentile(99) * 1e6, res.completed)
        out[label] = results
    return table, out


def test_e14_priority(benchmark):
    table, results = benchmark.pedantic(compute, rounds=1, iterations=1)
    fifo_high = results["single FIFO"]["high"]
    prio_high = results["priority FIFOs"]["high"]
    fifo_bulk = results["single FIFO"]["bulk"]
    prio_bulk = results["priority FIFOs"]["bulk"]
    report("e14_priority", table,
           "E14: small-request latency with and without priority FIFOs "
           "(8 KB RPCs vs 4 MB bulk, one engine)",
           notes="priority arbitration protects the small-request tail; "
                 "anti-starvation keeps bulk flowing")
    # Priority slashes the small-request tail...
    assert prio_high.percentile(99) < 0.5 * fifo_high.percentile(99)
    # ...without starving bulk (same work completed, bounded slowdown).
    assert prio_bulk.completed >= fifo_bulk.completed * 0.9
    assert prio_bulk.mean_latency < 3.0 * fifo_bulk.mean_latency


if __name__ == "__main__":
    table, _ = compute()
    print(table.render("E14: priority"))
