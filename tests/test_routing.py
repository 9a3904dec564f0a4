"""Multi-chip routing policies: the queueing model's per-chip placement."""

import pytest

from repro.errors import ConfigError
from repro.nx.params import POWER9, Topology
from repro.perf import queueing
from repro.perf.queueing import AcceleratorQueue, policy_comparison


def topo(chips=4):
    return Topology(machine=POWER9, chips_per_drawer=chips, drawers=1)


def route(chips, per_chip_load, duration_s, policy="local", seed=42,
          size=262144):
    model = AcceleratorQueue(POWER9, engines=chips, policy=policy,
                             seed=seed)
    return model.run_loads(per_chip_load, duration_s, size)


class TestRouterBasics:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorQueue(POWER9, engines=4, policy="teleport")

    def test_load_vector_length_checked(self):
        with pytest.raises(ConfigError):
            route(4, [0.5, 0.5], duration_s=0.01)

    def test_jobs_complete(self):
        result = route(2, [0.5, 0.5], duration_s=0.05, seed=1)
        assert result.completed > 0

    def test_deterministic(self):
        a = route(2, [0.5, 0.5], 0.05, seed=9)
        b = route(2, [0.5, 0.5], 0.05, seed=9)
        assert len(a.jobs) == len(b.jobs)
        assert a.mean_latency == pytest.approx(b.mean_latency)


class TestPolicies:
    def test_local_never_remote(self):
        result = route(4, [0.4] * 4, 0.05, policy="local", seed=2)
        assert result.remote_fraction == 0.0

    def test_round_robin_spreads(self):
        result = route(4, [1.2, 0.0, 0.0, 0.0], 0.05,
                       policy="round_robin", seed=2)
        served = {job.served_chip for job in result.jobs}
        assert served == {0, 1, 2, 3}

    def test_least_loaded_prefers_local_when_idle(self):
        result = route(4, [0.05] * 4, 0.05, policy="least_loaded", seed=2)
        assert result.remote_fraction < 0.2

    def test_least_loaded_beats_local_under_imbalance(self):
        results = policy_comparison(topo(4), [1.6, 0.1, 0.1, 0.1],
                                    duration_s=0.15)
        assert (results["least_loaded"].mean_latency
                < results["local"].mean_latency)

    def test_remote_jobs_pay_penalty(self, monkeypatch):
        """With an exaggerated fabric penalty, round-robin's remote hops
        dominate the latency difference under light balanced load."""
        monkeypatch.setattr(queueing, "CROSS_CHIP_PENALTY_US", 50.0)
        local = route(4, [0.2] * 4, 0.1, policy="local", seed=5)
        rr = route(4, [0.2] * 4, 0.1, policy="round_robin", seed=5)
        assert rr.remote_fraction > 0.5
        assert rr.mean_latency > local.mean_latency
