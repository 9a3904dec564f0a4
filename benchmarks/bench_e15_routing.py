"""E15 — multi-chip routing under imbalanced load.

A 4-chip system where one chip generates most of the compression work:
local-only routing saturates that chip's engine while three idle;
load-aware routing recovers the aggregate capacity for one cross-chip
hop of extra latency.  This is the system-integration behaviour behind
the linear aggregate-scaling claims (E8) holding in practice.
"""

from __future__ import annotations

from repro.core.metrics import Table
from repro.nx.params import POWER9, Topology
from repro.perf.queueing import policy_comparison

from _common import report

TOPOLOGY = Topology(machine=POWER9, chips_per_drawer=4, drawers=1)
IMBALANCED = [1.6, 0.1, 0.1, 0.1]  # chip 0 wants 160% of one engine
DURATION = 0.3


def compute() -> tuple[Table, dict]:
    results = policy_comparison(TOPOLOGY, IMBALANCED,
                                duration_s=DURATION)
    table = Table(headers=["policy", "GB/s", "mean us", "p99 us",
                           "remote %"])
    for policy, res in results.items():
        table.add(policy, res.throughput_gbps, res.mean_latency * 1e6,
                  res.percentile(99) * 1e6, 100 * res.remote_fraction)
    return table, results


def test_e15_routing(benchmark):
    table, results = benchmark.pedantic(compute, rounds=1, iterations=1)
    report("e15_routing", table,
           "E15: routing policy under imbalanced load "
           "(4 chips, one hot source)",
           notes="local-only saturates the hot chip; load-aware routing "
                 "recovers the idle engines for one fabric hop")
    local = results["local"]
    balanced = results["least_loaded"]
    # The hot chip's overload makes local-only latency explode.
    assert balanced.mean_latency < 0.5 * local.mean_latency
    # Load-aware serves at least as many bytes.
    assert balanced.throughput_gbps >= local.throughput_gbps
    # And it actually uses remote engines.
    assert balanced.remote_fraction > 0.2


if __name__ == "__main__":
    table, _ = compute()
    print(table.render("E15: routing"))
