"""The reproduction's evaluation as one table: E1–E20 and A1–A4.

Each row of :data:`EXPERIMENTS` names its compute function, results
file, title, notes, claim bands (open bands a named value of the run
lies in, each element of a list; or ``True``: a fact that holds), golden
pin and tier.  The results files, ``tests/test_claims.py``'s bands,
``golden_experiments.json`` and tier-1's ``tests/test_experiments.py``
all read the rows.  ``cheap`` rows render the same bytes on every run;
E20 drives the real service on the wall clock, so only its claims are
checked.  Usage: ``PYTHONPATH=src python benchmarks/experiments.py
<id>|all [--check]``; ``--check`` writes nothing, checks every claim
and byte-diffs each ``cheap`` row against its committed file.
"""

from __future__ import annotations

import argparse
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from _common import RESULTS_DIR, render, report, resolve_engine
from repro.core.metrics import Table, human_bytes
from repro.core.plot import bar_chart, line_chart
from repro.deflate.compress import deflate
from repro.nx.dht import DhtStrategy
from repro.nx.params import POWER9, Z15, Topology, z15_max_config
from repro.perf.completion import CompletionMode, CompletionModel
from repro.perf.cost import SoftwareCostModel, accelerator_effective_gbps
from repro.perf.energy import EnergyModel
from repro.perf.io_adapter import (CARD_COST_USD, SLOT_POWER_W,
                                   compare_onchip_vs_adapter)
from repro.perf.queueing import (AcceleratorQueue, Source, load_sweep,
                                 policy_comparison)
from repro.perf.system import SystemModel, scaling_series
from repro.perf.tco import FleetAssumptions, TcoModel
from repro.perf.timing import OffloadTimingModel
from repro.workloads.corpus import build_corpus
from repro.workloads.generators import generate
from repro.workloads.replay import DiurnalSpec, diurnal_trace, replay
from repro.workloads.spark import (ClusterSpec, SparkDagSim, SparkJobModel,
                                   tpcds_like_profile)

INF = math.inf


@dataclass(frozen=True)
class Experiment:
    """One row of the evaluation."""

    id: str
    name: str                       # results/<name>.txt
    title: str
    compute: Callable[[], dict]     # -> values: "table" (+ "figure"), ...
    notes: str = ""                 # str.format over the values
    claims: dict = field(default_factory=dict)
    pin: Callable[[dict], dict] | None = None
    tier: str = "cheap"

    def render(self, values: dict) -> str:
        return render(values["table"], self.title,
                      self.notes.format(**values), values.get("figure", ""))

    def broken(self, values: dict) -> list[str]:
        """One line per claim ``values`` breaks."""
        return [f"{self.id}: {name} = {values[name]!r}, claimed {band}"
                for name, band in self.claims.items()
                if not holds(band, values[name])]


def holds(band, value) -> bool:
    """Is ``value`` (each element of a list) inside ``band``?"""
    if band is True:
        return value is True
    values = value if isinstance(value, list) else [value]
    return all(band[0] < v < band[1] for v in values)


def check(row: Experiment, write: bool = False) -> list[str]:
    """Run ``row``: its broken claims, and whether a ``cheap`` row's
    committed results file differs by one byte (or, to ``write``, the
    file written afresh instead)."""
    values = row.compute()
    text, problems = row.render(values), row.broken(values)
    path = RESULTS_DIR / f"{row.name}.txt"
    if write:
        report(row.name, text, values.get("stages"))
    elif row.tier == "cheap" and (not path.exists()
                                  or path.read_text() != text + "\n"):
        problems.append(f"{row.id}: {path.name} does not re-render")
    return problems


EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, title: str, **row) -> Callable:
    """Add the decorated compute function as row ``name``; its id is
    the name's first word (``e1``, ``a4``)."""
    def add(compute):
        key = name.split("_")[0]
        EXPERIMENTS[key] = Experiment(key, name, title, compute, **row)
        return compute
    return add


def _timeline(jobs) -> str:
    """SHA-256 over each job's ``(start, finish, size, served chip)``
    in completion order (a shared queue's chip is recorded as 0)."""
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(repr((job.start_time, job.finish_time, job.size_bytes,
                            job.served_chip or 0)).encode())
    return digest.hexdigest()


def _rising(values: list) -> bool:
    return values == sorted(values)


@experiment("e1_single_core_speedup",
            "E1: one NX accelerator vs one POWER9 core (speedup factor)",
            notes="headline (8 MB, zlib -6): {headline:.0f}x (paper: 388x)",
            claims={"headline": (356.96, 419.04),  # 388x +- 8 %
                    "growth": (1, INF)})  # overhead amortizes with size
def _e1() -> dict:
    timing = OffloadTimingModel(POWER9)
    table = Table(["buffer", "vs zlib -1", "vs zlib -6", "vs zlib -9"])
    series = {f"vs -{level}": [] for level in (1, 6, 9)}
    for size in (64 << 10, 256 << 10, 1 << 20, 8 << 20, 64 << 20):
        speedups = [timing.speedup(size, level) for level in (1, 6, 9)]
        table.add(human_bytes(size), *speedups)
        for points, value in zip(series.values(), speedups):
            points.append((size, value))
    six = [value for _size, value in series["vs -6"]]
    return {"table": table, "headline": six[3], "growth": six[-1] / six[0],
            "figure": line_chart(series, log_x=True,
                                 title="Figure E1: speedup vs one core",
                                 y_label="speedup", x_label="buffer bytes")}


@experiment("e2_chip_speedup",
            "E2: one NX accelerator vs the whole POWER9 chip running zlib -6",
            notes="headline (all cores + SMT): {headline:.1f}x (paper: 13x)",
            claims={"headline": (11.96, 14.04)})  # 13x +- 8 %
def _e2() -> dict:
    accel = accelerator_effective_gbps(POWER9)
    single = SoftwareCostModel(POWER9).compress_rate_mbps(6) / 1000.0
    table = Table(["software threads", "software GB/s", "NX GB/s",
                   "NX speedup"])
    cores = POWER9.cores.cores
    for threads in (1, 4, 8, 16, cores, cores * POWER9.cores.smt):
        if threads <= cores:
            sw = single * threads
        else:  # SMT threads add the calibrated aggregate factor
            sw = single * cores * POWER9.cores.smt_scaling
        table.add(threads, sw, accel, accel / sw)
    return {"table": table, "headline": accel / sw}


@experiment("e3_compression_ratio",
            "E3: compression ratio on the silesia-like corpus",
            notes="NX dht = {nx:.3f} vs zlib -6 = {z6:.3f} ({pct_of_z6:.1f}% "
                  "of -6; paper: 'slightly worse than gzip -6')",
            claims={"nx_of_z6": (1 / 1.10, INF),  # NX within 10 % of -6
                    "z9_of_z6": (0.999, INF), "dht_canned_fixed": True})
def _e3() -> dict:
    levels = [resolve_engine("software", level=lvl) for lvl in (1, 6, 9)]
    nx = resolve_engine("nx")
    table = Table(["component", "zlib -1", "zlib -6", "zlib -9", "NX fixed",
                   "NX canned", "NX dht"])
    columns = ("z1", "z6", "z9", "fixed", "canned", "dht")
    totals = dict.fromkeys(("in",) + columns, 0)
    for name, data in build_corpus("silesia-like", scale=0.25).items():
        sizes = [len(sw.compress(data, fmt="raw").output) for sw in levels]
        sizes += [len(nx.compress(data, strategy=strategy, fmt="raw").output)
                  for strategy in (DhtStrategy.FIXED, DhtStrategy.CANNED,
                                   DhtStrategy.DYNAMIC)]
        table.add(name, *(len(data) / size for size in sizes))
        totals["in"] += len(data)
        for key, size in zip(columns, sizes):
            totals[key] += size
    ratio = {key: totals["in"] / totals[key] for key in columns}
    table.add("TOTAL", *ratio.values())
    for backend in [nx, *levels]:
        backend.close()
    return {"table": table, "nx": ratio["dht"], "z6": ratio["z6"],
            "pct_of_z6": 100 * ratio["dht"] / ratio["z6"],
            "nx_of_z6": ratio["dht"] / ratio["z6"],
            "z9_of_z6": ratio["z9"] / ratio["z6"],
            "dht_canned_fixed": (totals["dht"] <= totals["canned"]
                                 <= totals["fixed"]),
            "figure": bar_chart(
                {"zlib -9": ratio["z9"], "zlib -6": ratio["z6"],
                 "NX dht": ratio["dht"], "zlib -1": ratio["z1"],
                 "NX canned": ratio["canned"], "NX fixed": ratio["fixed"]},
                title="Figure E3: corpus-total compression ratio", unit="x")}


@experiment("e4_throughput_ramp",
            "E4: effective compression throughput vs buffer size",
            notes="software break-even: {break_even_text}; "
                  "ramp saturates at the engine line rate",
            # Small buffers lose most of the line rate to overhead.
            claims={"p9_rising": True, "p9_top": (6.5, INF),
                    "z15_top": (13.0, INF), "small_share": (-INF, 0.1),
                    "break_even": (10, 16384)})
def _e4() -> dict:
    p9, z15 = OffloadTimingModel(POWER9), OffloadTimingModel(Z15)
    table = Table(["buffer", "P9 NX GB/s", "z15 GB/s", "software GB/s"])
    series = {"P9 NX": [], "z15": [], "software": []}
    for size in (1 << s for s in range(10, 27, 2)):  # 1 KB .. 64 MB
        rates = (p9.effective_throughput_gbps(size),
                 z15.effective_throughput_gbps(size),
                 (size / 1e9) / p9.software_latency(size, 6))
        table.add(human_bytes(size), *rates)
        for points, rate in zip(series.values(), rates):
            points.append((size, rate))
    ramp = [rate for _size, rate in series["P9 NX"]]
    be = p9.break_even_bytes(6)
    return {"table": table, "break_even": be,
            "break_even_text": human_bytes(be), "p9_rising": _rising(ramp),
            "p9_top": ramp[-1], "z15_top": series["z15"][-1][1],
            "small_share": ramp[0] / ramp[-1],
            "figure": line_chart(series, log_x=True,
                                 title="Figure E4: throughput vs buffer size",
                                 y_label="GB/s", x_label="buffer bytes")}


@experiment("e5_queueing",
            "E5: shared-accelerator latency vs offered load "
            "(64 KB requests, 16 cores, 1 engine)",
            notes="knee appears as load approaches engine capacity",
            claims={"latency_rising": True, "knee": (2.0, INF)},
            pin=lambda values: {
                f"load={load}": {"mean_s": r.mean_latency,
                                 "p95_s": r.percentile(95),
                                 "p99_s": r.percentile(99),
                                 "gbps": r.throughput_gbps,
                                 "digest": _timeline(r.jobs)}
                for load, r in values["sweep"]})
def _e5() -> dict:
    table = Table(["offered load", "mean us", "p95 us", "p99 us", "GB/s"])
    sweep = load_sweep(POWER9, loads=[0.2, 0.5, 0.7, 0.85, 0.95],
                       size_bytes=65536, clients=16, duration_s=0.25)
    for load, result in sweep:
        table.add(load, result.mean_latency * 1e6,
                  result.percentile(95) * 1e6,
                  result.percentile(99) * 1e6, result.throughput_gbps)
    means = [result.mean_latency for _load, result in sweep]
    return {"table": table, "sweep": sweep, "latency_rising": _rising(means),
            "knee": means[-1] / means[0],
            "figure": line_chart(
                {"mean": [(load, r.mean_latency * 1e6) for load, r in sweep],
                 "p99": [(load, r.percentile(99) * 1e6)
                         for load, r in sweep]},
                title="Figure E5: latency vs offered load",
                y_label="us", x_label="offered load")}


@experiment("e6_spark_tpcds",
            "E6: Spark TPC-DS-like job, software codec vs NX offload "
            "(POWER9, 40 executor cores)",
            notes="end-to-end speedup: {gain_pct:.1f}% (paper: 23%); codec "
                  "share of CPU: {codec_pct:.1f}%",
            # Shuffle stages gain most; a task-level DES agrees.
            claims={"speedup": (1.19, 1.27),  # +23 % +- 4 points
                    "join_over_output": (1, INF),
                    "des_over_analytic": (0.95, 1.05),
                    "des_engine_util": (-INF, 0.1), "volume_rising": True},
            pin=lambda values: {
                label: {"makespan_s": outcome.makespan_seconds,
                        "accel_busy_s": outcome.accel_busy_seconds,
                        "accel_wait_s": outcome.accel_wait_seconds,
                        "tasks_run": outcome.tasks_run}
                for label, outcome in values["des"].items()})
def _e6() -> dict:
    result = SparkJobModel(machine=POWER9).run()
    table = Table(["stage", "software s", "offload s", "speedup"])
    for timing in result.timings:
        table.add(timing.stage.name, timing.software_seconds,
                  timing.offload_seconds, timing.speedup)
    table.add("END-TO-END", result.software_seconds,
              result.offload_seconds, result.speedup)
    stage = {t.stage.name: t.speedup for t in result.timings}
    sim = SparkDagSim(machine=POWER9,
                      cluster=ClusterSpec(nodes=4, cores_per_node=10))
    software, offload = sim.run(offload=False), sim.run(offload=True)
    volumes = [SparkJobModel().run(tpcds_like_profile(scale_gb=s)).speedup
               for s in (0.5, 1.0, 1.7, 3.0)]
    return {"table": table, "speedup": result.speedup,
            "gain_pct": 100 * (result.speedup - 1),
            "codec_pct": 100 * result.codec_share,
            "join_over_output": stage["join-1"] / stage["output"],
            "des": {"software": software, "offload": offload},
            "des_over_analytic": (software.makespan_seconds
                                  / offload.makespan_seconds
                                  / result.speedup),
            "des_engine_util": offload.accel_utilization(4),
            "volume_rising": _rising(volumes)}


@experiment("e7_z15_vs_p9",
            "E7: request latency, POWER9 async paste vs z15 DFLTCC",
            notes="engine-model rate ratio on real data: {engine_ratio:.2f}x "
                  "(paper: 2x)",
            # Sync issue: small buffers gain more than the 2x rate.
            claims={"small_gain": (2.5, INF), "small_over_large": (1, INF),
                    "large_gain": (1.8, 2.2),  # 2x +- 10 %
                    "engine_ratio": (1.6, 2.4)})
def _e7() -> dict:
    p9, z15 = OffloadTimingModel(POWER9), OffloadTimingModel(Z15)
    table = Table(["buffer", "P9 us", "z15 us", "z15 gain"])
    gains = []
    for size in (4 << 10, 64 << 10, 1 << 20, 16 << 20):
        lat_p9 = p9.offload_latency(size).total
        lat_z15 = z15.offload_latency(size).total
        table.add(human_bytes(size), lat_p9 * 1e6, lat_z15 * 1e6,
                  lat_p9 / lat_z15)
        gains.append(lat_p9 / lat_z15)
    # Engine-model cross-check on real data (not the calibrated table).
    sample = generate("log_lines", 131072, seed=21)
    rates = []
    for machine in (POWER9, Z15):
        with resolve_engine("nx", machine=machine) as backend:
            rates.append(backend.compress(
                sample, strategy=DhtStrategy.DYNAMIC,
                fmt="raw").engine_result.throughput_gbps)
    return {"table": table, "small_gain": gains[0],
            "small_over_large": gains[0] / gains[-1],
            "large_gain": gains[-1], "engine_ratio": rates[1] / rates[0]}


@experiment("e8_system_scaling",
            "E8: z15 aggregate compression rate vs topology size",
            notes="maximal configuration: {max_rate:.0f} GB/s "
                  "(paper: up to 280 GB/s)",
            claims={"max_rate": (263.2, 296.8),  # 280 GB/s +- 6 %
                    "per_chip_spread": (-INF, 1e-6)})  # linear in chips
def _e8() -> dict:
    series = scaling_series(Z15, max_chips=20, chips_per_drawer=4)
    table = Table(["chips", "accelerators GB/s", "all-core software GB/s",
                   "speedup"])
    per_chip = []
    for step in (1, 2, 4, 8, 12, 16, 20):
        rates = series[step - 1]
        table.add(step, rates.accelerator_gbps, rates.software_gbps,
                  rates.speedup)
        per_chip.append(rates.accelerator_gbps / step)
    return {"table": table,
            "max_rate": SystemModel(z15_max_config()).rates()
            .accelerator_gbps,
            "per_chip_spread": (max(per_chip) - min(per_chip)) / per_chip[0],
            "figure": line_chart(
                {"accelerators": [(r.chips, r.accelerator_gbps)
                                  for r in series],
                 "software": [(r.chips, r.software_gbps) for r in series]},
                title="Figure E8: aggregate rate vs chips",
                y_label="GB/s", x_label="CP chips")}


@experiment("e9_area_power",
            "E9: area and energy efficiency, accelerator vs core complex",
            notes="paper: accelerator uses <0.5% of chip area yet replaces "
                  "the whole chip's compression throughput",
            claims={"area_fraction": (0, 0.005), "energy_gain": (100, INF),
                    "area_gain": (100, INF)})
def _e9() -> dict:
    table = Table(["machine", "area %", "accel GB/s/mm2", "cores GB/s/mm2",
                   "area gain", "accel nJ/B", "sw nJ/B", "energy gain"])
    values = {"table": table, "area_fraction": [], "area_gain": [],
              "energy_gain": []}
    for machine in (POWER9, Z15):
        model = EnergyModel(machine)
        area, energy = model.area_comparison(), model.energy_comparison()
        table.add(machine.name, 100 * machine.area_fraction,
                  area.accelerator_gbps_per_mm2, area.cores_gbps_per_mm2,
                  area.efficiency_gain, energy.accelerator_nj_per_byte,
                  energy.software_nj_per_byte, energy.efficiency_gain)
        values["area_fraction"].append(machine.area_fraction)
        values["area_gain"].append(area.efficiency_gain)
        values["energy_gain"].append(energy.efficiency_gain)
    return values


@experiment("e10_dht_strategies",
            "E10 (ablation): Huffman strategy trade-off per data class",
            # Ratio fixed <= canned <= dynamic; dynamic's DHT bubble.
            claims={"fixed_over_canned": (0, 1.03),
                    "canned_over_dynamic": (0, 1.01),
                    "dynamic_rate_over_canned": (0, 1.001),
                    "dynamic_rate_over_fixed": (0, 1.001)})
def _e10() -> dict:
    backend = resolve_engine("nx")
    table = Table(["data", "strategy", "ratio", "GB/s", "dht cycles"])
    got = []  # per data class: strategy -> (ratio, GB/s)
    for name, generator in (("text", "markov_text"), ("logs", "log_lines"),
                            ("json", "json_records"),
                            ("binary", "binary_executable")):
        data = generate(generator, 65536, seed=33)
        got.append({})
        for strategy in DhtStrategy:
            result = backend.compress(data, strategy=strategy,
                                      fmt="raw").engine_result
            table.add(name, strategy.value, result.ratio,
                      result.throughput_gbps, result.cycles.dht_generation)
            got[-1][strategy.value] = (result.ratio, result.throughput_gbps)
    backend.close()

    def over(top: str, bottom: str, col: int) -> list:
        return [g[top][col] / g[bottom][col] for g in got]
    return {"table": table, "fixed_over_canned": over("fixed", "canned", 0),
            "canned_over_dynamic": over("canned", "dynamic", 0),
            "dynamic_rate_over_canned": over("dynamic", "canned", 1),
            "dynamic_rate_over_fixed": over("dynamic", "fixed", 1)}


@experiment("e11_page_faults",
            "E11: touch-and-resubmit cost vs translation-fault rate "
            "(32 KB jobs)",
            notes="each fault costs an abort + page touch + resubmission",
            # Faults cost latency, but the protocol converges.
            claims={"fault_cost": (1, 20)})
def _e11() -> dict:
    data = generate("json_records", 32768, seed=44)
    table = Table(["fault prob", "mean us", "faults/job", "submissions/job",
                   "fallbacks"])
    jobs, means = 12, []
    for prob in (0.0, 0.01, 0.05, 0.1, 0.25):
        total, faults, submissions, fallbacks = 0.0, 0, 0, 0
        with resolve_engine("nx", fault_probability=prob, seed=100,
                            max_retries=16) as backend:
            for _ in range(jobs):
                stats = backend.compress(data, fmt="raw").stats
                total += stats.elapsed_seconds
                faults += stats.translation_faults
                submissions += stats.submissions
                fallbacks += int(stats.fallback_to_software)
        table.add(prob, total / jobs * 1e6, faults / jobs,
                  submissions / jobs, fallbacks)
        means.append(total / jobs)
    return {"table": table, "fault_cost": means[-1] / means[0]}


@experiment("e12_vs_pcie_adapter",
            "E12: on-chip NX vs PCIe-attached adapter (compression)",
            notes=f"adapter also consumes a PCIe slot, {SLOT_POWER_W:.0f} W "
                  f"and ${CARD_COST_USD:.0f}; on-chip cost is ~zero "
                  "(abstract)",
            claims={"gains": (1, INF), "small_gain": (5, INF),
                    "falling": True})
def _e12() -> dict:
    rows = compare_onchip_vs_adapter(
        POWER9, [4 << 10, 64 << 10, 1 << 20, 16 << 20, 128 << 20])
    table = Table(["buffer", "on-chip GB/s", "PCIe adapter GB/s",
                   "on-chip gain"])
    gains = []
    for size, onchip, adapter in rows:
        table.add(human_bytes(size), onchip, adapter, onchip / adapter)
        gains.append(onchip / adapter)
    return {"table": table, "gains": gains, "small_gain": gains[0],
            "falling": gains == sorted(gains, reverse=True),
            "figure": line_chart(
                {"on-chip": [(size, onchip) for size, onchip, _a in rows],
                 "PCIe adapter": [(size, adapter)
                                  for size, _o, adapter in rows]},
                log_x=True, title="Figure E12: on-chip vs adapter throughput",
                y_label="GB/s", x_label="buffer bytes")}


@experiment("e13_decompression",
            "E13: decompression throughput (output-side) per component",
            # Under compression's: software inflate is ~10x deflate.
            claims={"speedups": (40, 130)})
def _e13() -> dict:
    p9 = resolve_engine("nx", machine=POWER9)
    z15 = resolve_engine("nx", machine=Z15)
    sw_rate = SoftwareCostModel(POWER9).decompress_rate_mbps()
    table = Table(["component", "P9 GB/s", "z15 GB/s", "sw MB/s",
                   "P9 speedup"])
    speedups = []
    for name, data in build_corpus("quick").items():
        payload = deflate(data, level=6).data
        r_p9 = p9.decompress(payload, fmt="raw").engine_result
        r_z15 = z15.decompress(payload, fmt="raw").engine_result
        gain = r_p9.throughput_gbps * 1000 / sw_rate
        table.add(name, r_p9.throughput_gbps, r_z15.throughput_gbps,
                  sw_rate, gain)
        speedups.append(gain)
    p9.close()
    z15.close()
    return {"table": table, "speedups": speedups}


@experiment("e14_priority",
            "E14: small-request latency with and without priority FIFOs "
            "(8 KB RPCs vs 4 MB bulk, one engine)",
            notes="priority arbitration protects the small-request tail; "
                  "anti-starvation keeps bulk flowing",
            claims={"high_p99_cut": (0, 0.5), "bulk_completed": (0.9, INF),
                    "bulk_slowdown": (0, 3.0)},
            pin=lambda values: {
                key: {"mean_s": r.mean_latency, "p99_s": r.percentile(99),
                      "jobs": r.completed, "digest": _timeline(r.jobs)}
                for key, r in values["by_class"].items()})
def _e14() -> dict:
    sources = [Source(4000.0, 8192, high_priority=True),  # light by bytes
               Source(1500.0, 4 << 20)]  # ~85% engine utilization
    table = Table(["scheme", "class", "mean us", "p99 us", "jobs"])
    by = {}
    for bound, label in ((None, "single FIFO"), (8, "priority FIFOs")):
        model = AcceleratorQueue(POWER9, starvation_bound=bound, seed=11)
        for cls, res in model.run_open(sources, 0.3).by_class().items():
            table.add(label, cls, res.mean_latency * 1e6,
                      res.percentile(99) * 1e6, res.completed)
            by[f"{label}/{cls}"] = res
    fifo_high, fifo_bulk = by["single FIFO/high"], by["single FIFO/bulk"]
    prio_high, prio_bulk = by["priority FIFOs/high"], by["priority FIFOs/bulk"]
    return {"table": table, "by_class": by,
            "high_p99_cut": (prio_high.percentile(99)
                             / fifo_high.percentile(99)),
            "bulk_completed": prio_bulk.completed / fifo_bulk.completed,
            "bulk_slowdown": prio_bulk.mean_latency / fifo_bulk.mean_latency}


@experiment("e15_routing",
            "E15: routing policy under imbalanced load "
            "(4 chips, one hot source)",
            notes="local-only saturates the hot chip; load-aware routing "
                  "recovers the idle engines for one fabric hop",
            claims={"mean_cut": (0, 0.5), "throughput_gain": (1, INF),
                    "remote_fraction": (0.2, INF)},
            pin=lambda values: {
                policy: {"gbps": r.throughput_gbps, "mean_s": r.mean_latency,
                         "p99_s": r.percentile(99),
                         "remote_fraction": r.remote_fraction,
                         "digest": _timeline(r.jobs)}
                for policy, r in values["policies"].items()})
def _e15() -> dict:
    policies = policy_comparison(
        Topology(machine=POWER9, chips_per_drawer=4, drawers=1),
        [1.6, 0.1, 0.1, 0.1], duration_s=0.3)  # chip 0: 160% of an engine
    table = Table(["policy", "GB/s", "mean us", "p99 us", "remote %"])
    for policy, res in policies.items():
        table.add(policy, res.throughput_gbps, res.mean_latency * 1e6,
                  res.percentile(99) * 1e6, 100 * res.remote_fraction)
    local, balanced = policies["local"], policies["least_loaded"]
    return {"table": table, "policies": policies,
            "mean_cut": balanced.mean_latency / local.mean_latency,
            "throughput_gain": (balanced.throughput_gbps
                                / local.throughput_gbps),
            "remote_fraction": balanced.remote_fraction}


@experiment("e16_batch_depth",
            "E16: closed-loop in-flight depth vs throughput "
            "(64 KB jobs, 10 us think time)",
            notes="depth 1 leaves the engine idle during think/submit; "
                  "a few in-flight requests saturate it",
            claims={"rate_rising": True, "depth4_gain": (1.5, INF),
                    "depth16_gain": (0, 1.2)},
            pin=lambda values: {
                f"depth={depth}": {"gbps": r.throughput_gbps,
                                   "util_pct": util,
                                   "mean_s": r.mean_latency,
                                   "digest": _timeline(r.jobs)}
                for depth, (r, util) in values["depths"].items()})
def _e16() -> dict:
    table = Table(["in-flight", "GB/s", "engine util %", "mean us"])
    depths = {}
    for depth in (1, 2, 4, 8, 16):
        model = AcceleratorQueue(POWER9, seed=5)
        result = model.run_closed(clients=depth, think_seconds=10e-6,
                                  duration_s=0.2, size=65536)
        util = min(100.0 * result.completed * model.service_seconds(65536)
                   / result.sim_seconds, 100.0)
        table.add(depth, result.throughput_gbps, util,
                  result.mean_latency * 1e6)
        depths[depth] = (result, util)
    rates = [result.throughput_gbps for result, _util in depths.values()]
    return {"table": table, "depths": depths, "rate_rising": _rising(rates),
            "depth4_gain": rates[2] / rates[0],
            "depth16_gain": rates[-1] / rates[-2]}


@experiment("e17_completion_modes",
            "E17: completion notification trade-off (latency + CPU burn, "
            "equal weight)",
            notes="wait-to-interrupt crossover (equal weight): "
                  "{crossover_text}",
            claims={"small_waits": True, "large_interrupts": True,
                    "crossover": (4096, 64 << 20)})
def _e17() -> dict:
    model = CompletionModel(POWER9)
    table = Table(["buffer", "mode", "latency us", "cpu burn us", "best"])
    bests = {}
    for size in (4 << 10, 64 << 10, 1 << 20, 16 << 20):
        costs, bests[size] = model.costs(size), model.best_mode(size)
        for mode in CompletionMode:
            table.add(human_bytes(size), mode.value,
                      costs[mode].latency_seconds * 1e6,
                      costs[mode].cpu_burn_seconds * 1e6,
                      "*" if mode is bests[size] else "")
    crossover = model.crossover_bytes()
    return {"table": table, "crossover": crossover,
            "crossover_text": human_bytes(crossover),
            "small_waits": bests[4 << 10] is CompletionMode.WAIT,
            "large_interrupts": bests[16 << 20] is CompletionMode.INTERRUPT}


@experiment("e18_tco",
            "E18: monthly fleet savings from on-chip compression "
            "(defaults: ratio 3.0, $20/TB-mo, $0.04/core-hr)",
            notes="the accelerator itself costs <0.5% chip area — "
                  "'practically zero hardware cost' (abstract)",
            # At 1 PB/day the adapters avoided are >= 2.
            claims={"storage_linear": True, "core_hours_100tb": (1000, INF),
                    "adapters_1pb": (1, INF)})
def _e18() -> dict:
    table = Table(["TB/day", "storage $/mo", "core-hrs/mo", "core $/mo",
                   "adapters avoided", "adapter capex $", "recurring $/mo"])
    reports = []
    for volume in (10.0, 100.0, 1000.0):
        rep = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compressed_tb_per_day=volume)).report()
        table.add(volume, rep.storage_usd_per_month,
                  rep.core_hours_per_month, rep.core_usd_per_month,
                  rep.adapters_avoided, rep.adapter_capex_usd,
                  rep.recurring_usd_per_month)
        reports.append(rep)
    return {"table": table,
            "storage_linear": (reports[1].storage_usd_per_month
                               == 10 * reports[0].storage_usd_per_month),
            "core_hours_100tb": reports[1].core_hours_per_month,
            "adapters_1pb": reports[2].adapters_avoided}


@experiment("e19_diurnal_replay",
            "E19: diurnal trace replay (32 KB RPCs + bulk window at "
            "70-85% of the day)",
            notes="1-engine worst p99: {worst_one_us:.0f} us in bucket "
                  "{worst_bucket}; second engine cuts it to "
                  "{worst_two_us:.0f} us",
            # The bulk window (buckets 7-8) owns the tail; what a second
            # engine leaves is head-of-line blocking (E14's business).
            claims={"worst_bucket": (6, 9), "second_engine_cut": (0, 0.75),
                    "worst_two_us": (500, INF), "quiet_p99_us": (0, 100)},
            pin=lambda values: {
                f"engines={n}": {
                    "buckets": [[b.count, b.p99_latency_s] for b in r.buckets],
                    "digest": _timeline(r.jobs)}
                for n, r in values["replays"].items()})
def _e19() -> dict:
    spec = DiurnalSpec(seed=3)
    trace = diurnal_trace(spec)
    one, two = (replay(trace, POWER9, engines=engines, buckets=10,
                       duration_s=spec.duration_s) for engines in (1, 2))
    table = Table(["bucket", "requests", "1-engine p99 us", "2-engine p99 us"])
    for b1, b2 in zip(one.buckets, two.buckets):
        table.add(b1.bucket, b1.count, b1.p99_latency_s * 1e6,
                  b2.p99_latency_s * 1e6)
    worst_one, worst_two = one.worst_bucket, two.worst_bucket
    return {"table": table, "replays": {1: one, 2: two},
            "worst_bucket": worst_one.bucket,
            "worst_one_us": worst_one.p99_latency_s * 1e6,
            "worst_two_us": worst_two.p99_latency_s * 1e6,
            "second_engine_cut": worst_two.p99_latency_s
            / worst_one.p99_latency_s,
            "quiet_p99_us": one.buckets[2].p99_latency_s * 1e6,
            "figure": line_chart(
                {label: [(b.bucket, b.p99_latency_s * 1e6) for b in r.buckets]
                 for label, r in (("1 engine", one), ("2 engines", two))},
                title="Figure E19: p99 latency across the day",
                y_label="us", x_label="time bucket")}


@experiment("e20_service_load",
            "E20: serving stack at saturation "
            "(bulk flood + interactive probes, 2 chips)",
            notes="overload sheds with retry-after instead of queueing "
                  "without bound; the high FIFO shields interactive p99 "
                  "from the bulk backlog",
            # The high FIFO preempts per batch: a generous bound.
            claims={"shed": (0, INF), "accepted": (0, INF),
                    "saturation_mbps": (0, INF),
                    "interactive_over_bulk": (-INF, 3)}, tier="wall")
def _e20() -> dict:
    import bench_e20_service_load as bench

    data = bench.run_bench()
    loaded = data["latency"]["interactive_loaded_p99_ms"]
    bulk = data["latency"]["bulk_loaded_p99_ms"]
    return {**data, "table": bench.build_table(data), "stages": bench.STAGES,
            "saturation_mbps": data["results"]["saturation_mbps"],
            "interactive_over_bulk": loaded / bulk if loaded and bulk
            else 0.0}


def _sweep(payload: bytes, engines: list) -> list:
    """Each engine's ``EngineResult`` for one DYNAMIC compress."""
    out = []
    for params in engines:
        with resolve_engine("nx", engine=params) as backend:
            out.append(backend.compress(payload, strategy=DhtStrategy.DYNAMIC,
                                        fmt="raw").engine_result)
    return out


@experiment("a1_match_candidates",
            "A1 (ablation): match-candidate depth vs compression ratio",
            # Per candidate, 8 -> 16 gains under half of 1 -> 2.
            claims={"ratio_rising": True, "last_step_gain": (-INF, 0.5)})
def _a1() -> dict:
    size, ways = 65536, [1, 2, 4, 8, 16]
    results = _sweep(generate("markov_text", size, seed=55),
                     [replace(POWER9.engine, hash_ways=w) for w in ways])
    table = Table(["ways", "ratio", "GB/s", "probes/byte"])
    for w, result in zip(ways, results):
        table.add(w, result.ratio, result.throughput_gbps,
                  result.stats.chain_probes / size)
    ratios = [result.ratio for result in results]
    first = max(ratios[1] - ratios[0], 1e-9)
    return {"table": table, "ratio_rising": _rising(ratios),
            "last_step_gain": (ratios[4] - ratios[3]) / 8.0 / first}


@experiment("a2_window_size",
            "A2 (ablation): history window size vs ratio (database pages)",
            # Greedy matching may dip: a longer match, costlier distance.
            claims={"window_steps": (0.97, INF),
                    "full_window_gain": (1.15, INF)})
def _a2() -> dict:
    size, windows = 131072, [1024, 4096, 8192, 16384, 32768]
    # Pages repeat their layout at page distance: the window sets reach.
    results = _sweep(generate("database_pages", size, seed=66),
                     [replace(POWER9.engine, window_bytes=w)
                      for w in windows])
    table = Table(["window", "ratio", "match bytes %"])
    for window, result in zip(windows, results):
        table.add(human_bytes(window), result.ratio,
                  100.0 * result.stats.match_bytes / size)
    ratios = [result.ratio for result in results]
    return {"table": table,
            "window_steps": [b / a for a, b in zip(ratios, ratios[1:])],
            "full_window_gain": ratios[-1] / ratios[0]}


@experiment("a3_bytes_per_cycle",
            "A3 (ablation): scan width scaling (banks scaled with width)",
            # Wider is faster, but sublinearly: 8x the width, < 8x the rate.
            claims={"rate_rising": True, "width_gain": (2.5, 8)})
def _a3() -> dict:
    engines = [replace(POWER9.engine, scan_bytes_per_cycle=width,
                       hash_banks=16 * width) for width in (2, 4, 8, 16)]
    results = _sweep(generate("markov_text", 131072, seed=77), engines)
    table = Table(["bytes/cycle", "banks", "GB/s", "stall cycles %", "ratio"])
    for params, result in zip(engines, results):
        table.add(params.scan_bytes_per_cycle, params.hash_banks,
                  result.throughput_gbps, 100.0 * result.cycles.bank_stalls
                  / max(1, result.cycles.scan), result.ratio)
    rates = [result.throughput_gbps for result in results]
    return {"table": table, "rate_rising": _rising(rates),
            "width_gain": rates[-1] / rates[0]}


@experiment("a4_gzip_vs_842",
            "A4 (ablation): gzip engine vs 842 engine on the same data",
            notes="842: no Huffman stage -> line-rate streaming, weaker "
                  "ratio; the gap is the gzip engines' reason to exist",
            claims={"gzip_ratio_over_842": (0.999, INF),
                    "842_rate_over_gzip": (1, INF)})
def _a4() -> dict:
    gzip_engine, e842_engine = resolve_engine("nx"), resolve_engine("842")
    table = Table(["data", "gzip ratio", "842 ratio", "gzip GB/s", "842 GB/s"])
    values = {"table": table, "gzip_ratio_over_842": [],
              "842_rate_over_gzip": []}
    for name in ("markov_text", "json_records", "database_pages",
                 "log_lines", "random_bytes"):
        data = generate(name, 49152, seed=41)
        gz = gzip_engine.compress(data, strategy=DhtStrategy.DYNAMIC,
                                  fmt="raw").engine_result
        e8 = e842_engine.compress(data).engine_result
        table.add(name, gz.ratio, e8.ratio, gz.throughput_gbps,
                  e8.throughput_gbps)
        values["gzip_ratio_over_842"].append(gz.ratio / e8.ratio)
        values["842_rate_over_gzip"].append(e8.throughput_gbps
                                            / gz.throughput_gbps)
    gzip_engine.close()
    e842_engine.close()
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("id", choices=[*EXPERIMENTS, "all"])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; check every claim and "
                             "byte-diff every cheap row")
    args = parser.parse_args(argv)
    failed = False
    for key, row in EXPERIMENTS.items():
        if args.id in ("all", key):
            found = check(row, write=not args.check)
            print(f"{key}: {'FAIL' if found else 'ok'} ({row.tier})",
                  *found, sep="\n  ")
            failed |= bool(found)
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
