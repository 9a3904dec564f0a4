"""E12 — on-chip accelerator vs PCIe-attached compression adapter.

The abstract's motivation: on-chip integration 'eliminates the cost and
I/O slots that would have been necessary with FPGA/ASIC based compression
adapters'.  Performance-wise the gap is the invocation overhead and the
double PCIe traversal — decisive at small sizes, converging at large.
"""

from __future__ import annotations

from repro.core.metrics import Table, human_bytes
from repro.core.plot import line_chart
from repro.nx.params import POWER9
from repro.perf.io_adapter import (CARD_COST_USD, SLOT_POWER_W,
                                   compare_onchip_vs_adapter)

from _common import report

SIZES = [4 << 10, 64 << 10, 1 << 20, 16 << 20, 128 << 20]


def compute() -> tuple[Table, list, str]:
    rows = compare_onchip_vs_adapter(POWER9, SIZES)
    table = Table(headers=["buffer", "on-chip GB/s", "PCIe adapter GB/s",
                           "on-chip gain"])
    gains = []
    for size, onchip, adapter in rows:
        table.add(human_bytes(size), onchip, adapter, onchip / adapter)
        gains.append(onchip / adapter)
    figure = line_chart(
        {"on-chip": [(size, onchip) for size, onchip, _a in rows],
         "PCIe adapter": [(size, adapter) for size, _o, adapter in rows]},
        log_x=True, title="Figure E12: on-chip vs adapter throughput",
        y_label="GB/s", x_label="buffer bytes")
    return table, gains, figure


def test_e12_vs_pcie_adapter(benchmark):
    table, gains, figure = benchmark.pedantic(compute, rounds=3,
                                               iterations=1)
    report("e12_vs_pcie_adapter", table,
           "E12: on-chip NX vs PCIe-attached adapter (compression)",
           notes=f"adapter also consumes a PCIe slot, "
                 f"{SLOT_POWER_W:.0f} W and "
                 f"${CARD_COST_USD:.0f}; on-chip cost is "
                 "~zero (abstract)",
           figure=figure)
    assert all(gain > 1.0 for gain in gains)   # on-chip always wins
    assert gains[0] > 5.0                      # decisively at small sizes
    assert gains == sorted(gains, reverse=True)


if __name__ == "__main__":
    table, _gains, figure = compute()
    print(table.render("E12: vs PCIe adapter"))
    print(figure)
