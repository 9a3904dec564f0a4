"""E6 — end-to-end Apache Spark TPC-DS speedup (abstract: 23%).

Per-stage runtimes under the software codec vs NX offload, composed into
the end-to-end job time.
"""

from __future__ import annotations

from repro.core.metrics import Table
import pytest

from repro.nx.params import POWER9, Z15
from repro.workloads.spark import SparkJobModel, tpcds_like_profile

from _common import report


def compute() -> tuple[Table, dict]:
    model = SparkJobModel(machine=POWER9)
    result = model.run()
    table = Table(headers=["stage", "software s", "offload s", "speedup"])
    for timing in result.timings:
        table.add(timing.stage.name, timing.software_seconds,
                  timing.offload_seconds, timing.speedup)
    table.add("END-TO-END", result.software_seconds,
              result.offload_seconds, result.speedup)
    z15_result = SparkJobModel(machine=Z15).run()
    return table, {"p9": result, "z15": z15_result}


def test_e6_spark_tpcds(benchmark):
    table, results = benchmark.pedantic(compute, rounds=3, iterations=1)
    speedup = results["p9"].speedup
    report("e6_spark_tpcds", table,
           "E6: Spark TPC-DS-like job, software codec vs NX offload "
           "(POWER9, 40 executor cores)",
           notes=f"end-to-end speedup: {100 * (speedup - 1):.1f}% "
                 f"(paper: 23%); codec share of CPU: "
                 f"{100 * results['p9'].codec_share:.1f}%")
    assert 1.18 < speedup < 1.30
    # Shuffle-heavy stages gain the most.
    shuffles = {t.stage.name: t.speedup for t in results["p9"].timings}
    assert shuffles["join-1"] > shuffles["output"]


def test_e6_des_cross_validation(benchmark):
    """An independent discrete-event scheduler reproduces the analytic
    end-to-end speedup — tasks, cores, barriers and per-node engine
    queueing included."""
    from repro.workloads.spark import ClusterSpec, SparkDagSim

    def run():
        sim = SparkDagSim(machine=POWER9,
                          cluster=ClusterSpec(nodes=4, cores_per_node=10))
        return sim.speedup(), sim.run(offload=True)

    (simulated, outcome) = benchmark.pedantic(run, rounds=1, iterations=1)
    analytic = SparkJobModel(machine=POWER9).run().speedup
    assert simulated == pytest.approx(analytic, rel=0.05)
    # The shared engine is far from saturated at this codec share.
    assert outcome.accel_utilization(4) < 0.1


def test_e6_scaling_with_data_volume(benchmark):
    def sweep():
        return [SparkJobModel().run(tpcds_like_profile(scale_gb=s)).speedup
                for s in (0.5, 1.0, 1.7, 3.0)]

    speedups = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert speedups == sorted(speedups)


if __name__ == "__main__":
    table, _ = compute()
    print(table.render("E6: Spark TPC-DS"))
