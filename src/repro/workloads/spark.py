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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend.registry import backend_capabilities, default_backend
from ..nx.params import POWER9, MachineParams
from ..perf.cost import SoftwareCostModel


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


@dataclass
class SparkJobModel:
    """One TPC-DS-like job on a cluster of executor cores."""

    machine: MachineParams = POWER9
    executor_cores: int = 40
    level: int = 6
    request_bytes: int = 1 << 20  # shuffle block granularity
    codec_backend: str | None = None  # default: machine's native hw path

    def __post_init__(self) -> None:
        self._cost = SoftwareCostModel(self.machine)
        if self.codec_backend is None:
            self.codec_backend = default_backend(self.machine)
        caps = backend_capabilities(self.codec_backend,
                                    machine=self.machine)
        self._accel_compress = caps.compress_gbps * 1e9
        self._accel_decompress = caps.decompress_gbps * 1e9
        self._request_overhead_s = caps.per_call_overhead_s

    # -- per-stage composition --------------------------------------------

    def codec_core_seconds(self, stage: Stage) -> float:
        return (self._cost.compress_seconds(stage.compress_bytes,
                                            self.level)
                + self._cost.decompress_seconds(stage.decompress_bytes))

    def _offload_codec_seconds(self, stage: Stage) -> float:
        """Wall seconds the accelerator needs for the stage's codec work."""
        requests = max(1, (stage.compress_bytes + stage.decompress_bytes)
                       // self.request_bytes)
        overhead = self._request_overhead_s * requests
        # Per-request overhead burns *core* time, but it is tiny; fold it
        # into the accelerator window pessimistically.
        compress = stage.compress_bytes / self._accel_compress
        decompress = stage.decompress_bytes / self._accel_decompress
        return compress + decompress + overhead

    def stage_timing(self, stage: Stage) -> StageTiming:
        codec = self.codec_core_seconds(stage)
        software = (stage.query_core_seconds + codec) / self.executor_cores
        offload = max(stage.query_core_seconds / self.executor_cores,
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
