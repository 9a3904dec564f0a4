"""Spark-style shuffle compression: the paper's end-to-end motivation.

Models an analytics job whose shuffle blocks are compressed either in
software (stealing executor CPU) or on the NX accelerator, then shows
the per-stage and end-to-end effect — the experiment behind the
abstract's 23% TPC-DS claim.

Run:  python examples/spark_shuffle.py
"""

from __future__ import annotations

from repro.core.metrics import Table, human_bytes
from repro.nx.params import POWER9, Z15
from repro.workloads.spark import SparkJobModel, Stage, tpcds_like_profile


def custom_job() -> list[Stage]:
    """A small ETL-ish job you can edit: (name, cpu core-s, bytes...)."""
    gb = 10 ** 9
    return [
        Stage("ingest-parse", 60.0, int(0.8 * gb), 0),
        Stage("repartition", 30.0, int(0.8 * gb), int(1.5 * gb)),
        Stage("aggregate", 80.0, int(0.1 * gb), int(0.7 * gb),
              spill_bytes=int(0.2 * gb)),
        Stage("write-parquet", 40.0, int(0.3 * gb), int(0.1 * gb)),
    ]


def show(job_name: str, model: SparkJobModel, stages: list[Stage]) -> None:
    result = model.run(stages)
    table = Table(headers=["stage", "sw s", "NX s", "gain"])
    for timing in result.timings:
        table.add(timing.stage.name, timing.software_seconds,
                  timing.offload_seconds, timing.speedup)
    table.add("TOTAL", result.software_seconds, result.offload_seconds,
              result.speedup)
    print(table.render(
        f"{job_name} on {model.machine.name} "
        f"({model.cluster.total_cores} cores)"))
    print(f"codec share of executor CPU: {result.codec_share:.1%}; "
          f"end-to-end gain: {result.speedup - 1:.1%}\n")


def main() -> None:
    total_shuffle = sum(s.shuffle_write_bytes
                        for s in tpcds_like_profile())
    print(f"TPC-DS-like profile shuffles "
          f"{human_bytes(total_shuffle)} per query run\n")

    show("TPC-DS-like job", SparkJobModel(machine=POWER9),
         tpcds_like_profile())
    show("custom ETL job", SparkJobModel(machine=POWER9), custom_job())
    show("custom ETL job", SparkJobModel(machine=Z15), custom_job())


if __name__ == "__main__":
    main()
