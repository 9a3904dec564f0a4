"""The accelerator-queue model: arrivals, disciplines and placements."""

import pytest

from repro.backend.pool import SATURATION_DEPTH
from repro.nx.params import POWER9
from repro.perf.queueing import (AcceleratorQueue, Source, bimodal_size,
                                  load_sweep)


def make_sim(seed=7, **kwargs):
    return AcceleratorQueue(POWER9, seed=seed, **kwargs)


def clients(rate, count, size=65536):
    return [Source(rate, size)] * count


def never_before_submitted(result):
    return all(job.finish_time >= job.start_time and job.wait >= 0
               for job in result.jobs)


class TestOpenLoop:
    def test_jobs_complete(self):
        result = make_sim().run_open(clients(500, 4), duration_s=0.05)
        assert result.completed > 0
        assert never_before_submitted(result)

    def test_light_load_latency_near_service(self):
        sim = make_sim()
        service = sim.service_seconds(65536)
        result = sim.run_open(clients(100, 2), duration_s=0.1)
        assert result.mean_latency < 2.5 * service

    def test_latency_rises_with_load(self):
        results = load_sweep(POWER9, loads=[0.3, 0.95],
                             size_bytes=65536, clients=8,
                             duration_s=0.15)
        light = results[0][1].mean_latency
        heavy = results[1][1].mean_latency
        assert heavy > 1.3 * light

    def test_throughput_capped_by_capacity(self):
        sim = make_sim()
        service = sim.service_seconds(65536)
        capacity_gbps = (65536 / service) / 1e9
        results = load_sweep(POWER9, loads=[1.5], size_bytes=65536,
                             clients=8, duration_s=0.1)
        assert results[0][1].throughput_gbps <= capacity_gbps * 1.05

    def test_two_engines_double_capacity(self):
        def overloaded(engines: int):
            model = AcceleratorQueue(POWER9, engines=engines, seed=42)
            rate = 1.5 * engines / model.service_seconds(65536) / 8
            return model.run_open([Source(rate, 65536)] * 8, 0.1)

        # Same offered load per engine; two engines finish ~2x the bytes.
        assert overloaded(2).throughput_gbps \
            > 1.6 * overloaded(1).throughput_gbps

    def test_deterministic_given_seed(self):
        a = make_sim(seed=5).run_open(clients(300, 4), 0.05)
        b = make_sim(seed=5).run_open(clients(300, 4), 0.05)
        assert a.completed == b.completed
        assert a.mean_latency == pytest.approx(b.mean_latency)

    def test_percentiles_ordered(self):
        result = make_sim().run_open(clients(800, 8), 0.1)
        assert (result.percentile(50)
                <= result.percentile(95)
                <= result.percentile(99.9))


class TestClosedLoop:
    def test_jobs_complete(self):
        result = make_sim().run_closed(clients=8, think_seconds=1e-4,
                                       duration_s=0.05)
        assert result.completed > 0
        assert never_before_submitted(result)

    def test_more_clients_more_throughput_until_saturation(self):
        small = make_sim().run_closed(clients=1, think_seconds=1e-4,
                                      duration_s=0.05)
        large = make_sim().run_closed(clients=16, think_seconds=1e-4,
                                      duration_s=0.05)
        assert large.throughput_gbps > small.throughput_gbps

    def test_saturation_depth_is_e16s_finding(self):
        """The pool's window depth per chip, in E16's configuration:
        that many in flight keep the engine busy, half as many do not."""
        def utilisation(depth):
            model = AcceleratorQueue(POWER9, seed=5)
            result = model.run_closed(clients=depth, think_seconds=10e-6,
                                      duration_s=0.2, size=65536)
            return (result.completed * model.service_seconds(65536)
                    / result.sim_seconds)

        assert utilisation(SATURATION_DEPTH) >= 0.99
        assert utilisation(SATURATION_DEPTH // 2) < 0.99


class TestTrace:
    def test_jobs_start_at_their_instants(self):
        trace = [(t * 2e-6, 65536) for t in range(50)]
        result = make_sim(engines=2).run_trace(trace)
        assert sorted(job.submit_time for job in result.jobs) == [
            t for t, _size in trace]
        assert never_before_submitted(result)
        assert result.max_queue_depth > 1


class TestMixes:
    def test_bulk_jobs_inflate_small_job_tail(self):
        r_uniform = make_sim().run_open(clients(2000, 8, 8192), 0.05)
        r_mixed = make_sim().run_open(
            clients(2000, 8, bimodal_size(8192, 4 << 20, 0.9)), 0.05)
        small_lat = [j.sojourn for j in r_mixed.jobs
                     if j.size_bytes == 8192]
        assert small_lat
        p99_mixed = sorted(small_lat)[int(0.99 * len(small_lat)) - 1]
        assert p99_mixed > r_uniform.percentile(99)

    def test_empty_result_safe(self):
        result = make_sim().run_open(clients(0.0001, 1), duration_s=0.0001)
        assert result.mean_latency == 0.0
        assert result.percentile(99) == 0.0
