"""DES Spark simulation: scheduling, contention, analytic cross-check."""

import pytest

from repro.nx.params import POWER9, Z15
from repro.workloads.spark import (TASKS_PER_CORE, ClusterSpec, SparkDagSim,
                                   SparkJobModel, Stage, tpcds_like_profile)


@pytest.fixture(scope="module")
def sim():
    return SparkDagSim(cluster=ClusterSpec(nodes=4, cores_per_node=10))


class TestScheduling:
    def test_all_tasks_run(self, sim):
        stages = tpcds_like_profile()
        outcome = sim.run(stages, offload=True)
        expected = len(stages) * sim.cluster.total_cores \
            * TASKS_PER_CORE
        assert outcome.tasks_run == expected

    def test_offload_beats_software(self, sim):
        sw = sim.run(offload=False)
        off = sim.run(offload=True)
        assert off.makespan_seconds < sw.makespan_seconds

    def test_more_cores_faster(self):
        small = SparkDagSim(cluster=ClusterSpec(nodes=2,
                                                cores_per_node=5))
        large = SparkDagSim(cluster=ClusterSpec(nodes=4,
                                                cores_per_node=10))
        assert (large.run(offload=False).makespan_seconds
                < small.run(offload=False).makespan_seconds)

    def test_deterministic(self, sim):
        a = sim.run(offload=True)
        b = sim.run(offload=True)
        assert a.makespan_seconds == pytest.approx(b.makespan_seconds)

    def test_empty_job(self, sim):
        outcome = sim.run([], offload=True)
        assert outcome.makespan_seconds == 0.0
        assert outcome.tasks_run == 0


class TestCrossValidation:
    def test_matches_analytic_model(self, sim):
        """The DES makespan ratio lands within a few percent of the
        Amdahl-composed analytic speedup — the E6 cross-check."""
        analytic = SparkJobModel(machine=POWER9).run().speedup
        simulated = sim.speedup()
        assert simulated == pytest.approx(analytic, rel=0.05)

    def test_software_makespan_matches_analytic(self, sim):
        analytic = SparkJobModel(machine=POWER9).run()
        sw = sim.run(offload=False)
        assert sw.makespan_seconds == pytest.approx(
            analytic.software_seconds, rel=0.05)


class TestContention:
    def test_accelerator_underutilized_at_tpcds_share(self, sim):
        """One engine per node absorbs the whole cluster's codec work
        with room to spare — the sharing story quantified."""
        outcome = sim.run(offload=True)
        assert outcome.accel_utilization(sim.cluster.nodes) < 0.1

    def test_codec_heavy_job_shows_contention(self):
        gb = 10 ** 9
        stages = [Stage("shuffle-storm", 10.0, int(8 * gb), int(8 * gb))
                  for _ in range(3)]
        sim = SparkDagSim(cluster=ClusterSpec(nodes=1, cores_per_node=16))
        outcome = sim.run(stages, offload=True)
        assert outcome.accel_utilization(1) > 0.3
        assert outcome.accel_wait_seconds > 0

    def test_z15_offload_not_slower(self):
        p9 = SparkDagSim(machine=POWER9).run(offload=True)
        z15 = SparkDagSim(machine=Z15).run(offload=True)
        assert z15.makespan_seconds <= p9.makespan_seconds * 1.05
