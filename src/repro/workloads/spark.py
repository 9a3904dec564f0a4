"""End-to-end Apache Spark TPC-DS model (the paper's 23 % claim).

Spark compresses shuffle partitions, spills, and cached blocks.  With a
software codec that work shares the executor cores with query processing;
with the NX accelerator it is offloaded, and the cores get their cycles
back.  This model composes per-stage runtimes the Amdahl way:

* software: ``(query core-seconds + codec core-seconds) / cores``
* offload:  ``max(query core-seconds / cores, codec bytes / NX rate)``
  plus the per-request invocation overheads.

The default stage profile is TPC-DS-like: a mix of scan-heavy,
shuffle-heavy, and CPU-heavy stages in which the codec accounts for
roughly a fifth of total executor CPU — which is exactly what makes the
end-to-end gain land near the abstract's 23 %.

:class:`SparkDagSim` checks the arithmetic by actually scheduling tasks:

* a cluster of nodes, each with ``cores_per_node`` executor cores and
  one accelerator (the on-chip NX);
* each stage splits into tasks; a task burns its CPU share on a core,
  then its codec work either runs on the same core (software) or queues
  to the node's accelerator (offload) while the core moves on;
* stages are barriers, as in Spark.

The interesting second-order effect the analytic model misses: all
cores of a node share one engine, so codec work can queue.  The
simulator exposes that contention (it is small at TPC-DS-like codec
shares — which is itself a paper-relevant result).  Both models read
one parameter block, :class:`_SparkCluster`: the machine, the cluster,
and the codec rates of the machine's native hardware backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..backend.registry import backend_capabilities, default_backend
from ..nx.params import POWER9, MachineParams
from ..perf.cost import SoftwareCostModel
from ..perf.des import Simulator

#: Software codec level (zlib -6, Spark's default).
LEVEL = 6
#: Shuffle block granularity: one accelerator request per block.
REQUEST_BYTES = 1 << 20
#: Tasks each stage splits into, per executor core.
TASKS_PER_CORE = 2
#: Seed of the simulator's per-task start jitter.
SEED = 7


@dataclass(frozen=True)
class Stage:
    """One Spark stage: query work plus codec-visible bytes."""

    name: str
    query_core_seconds: float     # non-codec executor CPU
    shuffle_write_bytes: int      # compressed on write
    shuffle_read_bytes: int       # decompressed on read
    spill_bytes: int = 0          # compressed and later decompressed

    @property
    def compress_bytes(self) -> int:
        return self.shuffle_write_bytes + self.spill_bytes

    @property
    def decompress_bytes(self) -> int:
        return self.shuffle_read_bytes + self.spill_bytes


def tpcds_like_profile(scale_gb: float = 1.7) -> list[Stage]:
    """A TPC-DS-flavoured stage list; ``scale_gb`` scales data volumes.

    The default scale puts the codec at ~19 % of executor core-seconds
    under software zlib -6 — the regime in which offload recovers the
    abstract's ~23 % of end-to-end runtime.
    """
    gb = int(scale_gb * 1e9)
    return [
        Stage("scan-store_sales", 140.0, int(0.45 * gb), 0),
        Stage("scan-catalog_sales", 90.0, int(0.30 * gb), 0),
        Stage("dim-broadcast", 25.0, int(0.02 * gb), int(0.02 * gb)),
        Stage("join-1", 160.0, int(0.40 * gb), int(0.75 * gb),
              spill_bytes=int(0.10 * gb)),
        Stage("join-2", 120.0, int(0.25 * gb), int(0.42 * gb),
              spill_bytes=int(0.06 * gb)),
        Stage("agg-partial", 110.0, int(0.18 * gb), int(0.25 * gb)),
        Stage("agg-final", 70.0, int(0.04 * gb), int(0.18 * gb)),
        Stage("window", 85.0, int(0.10 * gb), int(0.10 * gb),
              spill_bytes=int(0.04 * gb)),
        Stage("sort-limit", 45.0, int(0.01 * gb), int(0.10 * gb)),
        Stage("output", 30.0, 0, int(0.05 * gb)),
    ]


@dataclass(frozen=True)
class StageTiming:
    """Computed runtime of one stage under both codecs."""

    stage: Stage
    software_seconds: float
    offload_seconds: float
    codec_core_seconds: float

    @property
    def speedup(self) -> float:
        return self.software_seconds / self.offload_seconds


@dataclass(frozen=True)
class ClusterSpec:
    """Executor cluster layout."""

    nodes: int = 4
    cores_per_node: int = 10

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


@dataclass
class _SparkCluster:
    """A cluster of executor cores on ``machine``, its codec offloaded
    to the machine's native hardware path."""

    machine: MachineParams = POWER9
    cluster: ClusterSpec = ClusterSpec()

    def __post_init__(self) -> None:
        self._cost = SoftwareCostModel(self.machine)
        caps = backend_capabilities(default_backend(self.machine),
                                    machine=self.machine)
        self._accel_compress = caps.compress_gbps * 1e9
        self._accel_decompress = caps.decompress_gbps * 1e9
        self._request_overhead_s = caps.per_call_overhead_s

    def codec_core_seconds(self, stage: Stage) -> float:
        return (self._cost.compress_seconds(stage.compress_bytes, LEVEL)
                + self._cost.decompress_seconds(stage.decompress_bytes))


@dataclass
class SparkJobModel(_SparkCluster):
    """One TPC-DS-like job on the cluster's executor cores, composed
    arithmetically."""

    # -- per-stage composition --------------------------------------------

    def _offload_codec_seconds(self, stage: Stage) -> float:
        """Wall seconds the accelerator needs for the stage's codec work."""
        requests = max(1, (stage.compress_bytes + stage.decompress_bytes)
                       // REQUEST_BYTES)
        overhead = self._request_overhead_s * requests
        # Per-request overhead burns *core* time, but it is tiny; fold it
        # into the accelerator window pessimistically.
        compress = stage.compress_bytes / self._accel_compress
        decompress = stage.decompress_bytes / self._accel_decompress
        return compress + decompress + overhead

    def stage_timing(self, stage: Stage) -> StageTiming:
        codec = self.codec_core_seconds(stage)
        cores = self.cluster.total_cores
        software = (stage.query_core_seconds + codec) / cores
        offload = max(stage.query_core_seconds / cores,
                      self._offload_codec_seconds(stage))
        return StageTiming(stage=stage, software_seconds=software,
                           offload_seconds=offload,
                           codec_core_seconds=codec)

    # -- job-level results ----------------------------------------------------

    def run(self, stages: list[Stage] | None = None) -> "SparkJobResult":
        stages = stages if stages is not None else tpcds_like_profile()
        timings = [self.stage_timing(stage) for stage in stages]
        return SparkJobResult(timings=timings)


@dataclass
class SparkJobResult:
    """End-to-end outcome across all stages."""

    timings: list[StageTiming]

    @property
    def software_seconds(self) -> float:
        return sum(t.software_seconds for t in self.timings)

    @property
    def offload_seconds(self) -> float:
        return sum(t.offload_seconds for t in self.timings)

    @property
    def speedup(self) -> float:
        return self.software_seconds / self.offload_seconds

    @property
    def codec_share(self) -> float:
        """Fraction of software core-seconds spent in the codec."""
        codec = sum(t.codec_core_seconds for t in self.timings)
        total = codec + sum(t.stage.query_core_seconds
                            for t in self.timings)
        return codec / total if total else 0.0


@dataclass
class SimOutcome:
    """End-to-end result of one simulated job run."""

    makespan_seconds: float
    accel_busy_seconds: float
    accel_wait_seconds: float
    tasks_run: int

    def accel_utilization(self, nodes: int) -> float:
        if self.makespan_seconds == 0:
            return 0.0
        return self.accel_busy_seconds / (self.makespan_seconds * nodes)


@dataclass
class SparkDagSim(_SparkCluster):
    """Run a stage list in software or offload mode, task by task."""

    def _task_work(self, stage: Stage) -> tuple[int, float, float]:
        """(task count, cpu s/task, codec accel s/task)."""
        tasks = max(1, self.cluster.total_cores * TASKS_PER_CORE)
        cpu = stage.query_core_seconds / tasks
        accel = (stage.compress_bytes / self._accel_compress
                 + stage.decompress_bytes / self._accel_decompress) / tasks
        return tasks, cpu, accel

    def run(self, stages: list[Stage] | None = None,
            offload: bool = True) -> SimOutcome:
        stages = stages if stages is not None else tpcds_like_profile()
        sim = Simulator()
        rng = random.Random(SEED)
        cores_free = [self.cluster.cores_per_node] * self.cluster.nodes
        accel_free_at = [0.0] * self.cluster.nodes
        accel_busy = [0.0]
        accel_wait = [0.0]
        tasks_run = [0]
        stage_state = {"queue": [], "outstanding": 0, "index": 0}

        overhead = self._request_overhead_s

        def start_stage() -> None:
            if stage_state["index"] >= len(stages):
                return
            stage = stages[stage_state["index"]]
            stage_state["index"] += 1
            tasks, cpu, accel = self._task_work(stage)
            sw_codec = self.codec_core_seconds(stage) / tasks
            stage_state["outstanding"] = tasks
            for _ in range(tasks):
                # jitter avoids artificial lockstep between cores
                jitter = rng.random() * 1e-4
                stage_state["queue"].append((cpu + jitter, accel, sw_codec))
            fill_cores()

        def fill_cores() -> None:
            progress = True
            while progress:
                progress = False
                for node in range(self.cluster.nodes):
                    if cores_free[node] > 0 and stage_state["queue"]:
                        cpu, accel, sw_codec = stage_state["queue"].pop(0)
                        cores_free[node] -= 1
                        run_task(node, cpu, accel, sw_codec)
                        progress = True

        def run_task(node: int, cpu: float, accel: float,
                     sw_codec: float) -> None:
            if offload:
                def cpu_done() -> None:
                    cores_free[node] += 1
                    fill_cores()
                    # codec work queues at the node's accelerator
                    start = max(sim.now + overhead, accel_free_at[node])
                    accel_wait[0] += start - sim.now
                    accel_free_at[node] = start + accel
                    accel_busy[0] += accel
                    sim.schedule(start + accel - sim.now, task_done)

                sim.schedule(cpu, cpu_done)
            else:
                def sw_done() -> None:
                    cores_free[node] += 1
                    fill_cores()
                    task_done()

                sim.schedule(cpu + sw_codec, sw_done)

        def task_done() -> None:
            tasks_run[0] += 1
            stage_state["outstanding"] -= 1
            if stage_state["outstanding"] == 0 and not stage_state["queue"]:
                start_stage()

        start_stage()
        sim.run()
        return SimOutcome(makespan_seconds=sim.now,
                          accel_busy_seconds=accel_busy[0],
                          accel_wait_seconds=accel_wait[0],
                          tasks_run=tasks_run[0])

    def speedup(self, stages: list[Stage] | None = None) -> float:
        software = self.run(stages, offload=False)
        offload = self.run(stages, offload=True)
        return software.makespan_seconds / offload.makespan_seconds
