"""Completion-notification model: mode trade-offs and crossovers."""

import pytest

from repro.nx.params import POWER9, Z15
from repro.perf.completion import (
    CompletionMode,
    CompletionModel,
    POLL_DETECT_SECONDS,
)


@pytest.fixture(scope="module")
def model():
    return CompletionModel(POWER9)


class TestCosts:
    def test_all_modes_reported(self, model):
        costs = model.costs(65536)
        assert set(costs) == set(CompletionMode)

    def test_poll_has_lowest_latency(self, model):
        costs = model.costs(65536)
        assert (costs[CompletionMode.POLL].latency_seconds
                <= costs[CompletionMode.WAIT].latency_seconds
                <= costs[CompletionMode.INTERRUPT].latency_seconds)

    def test_interrupt_burns_least_cpu_on_large_jobs(self, model):
        costs = model.costs(16 << 20)
        assert (costs[CompletionMode.INTERRUPT].cpu_burn_seconds
                < costs[CompletionMode.WAIT].cpu_burn_seconds
                < costs[CompletionMode.POLL].cpu_burn_seconds)

    def test_poll_burn_equals_latency(self, model):
        cost = model.costs(4096)[CompletionMode.POLL]
        assert cost.cpu_burn_seconds == pytest.approx(
            cost.latency_seconds)

    def test_interrupt_burn_independent_of_size(self, model):
        small = model.costs(4096)[CompletionMode.INTERRUPT]
        large = model.costs(16 << 20)[CompletionMode.INTERRUPT]
        assert small.cpu_burn_seconds == pytest.approx(
            large.cpu_burn_seconds)


class TestPolicy:
    def test_latency_critical_small_jobs_prefer_poll(self, model):
        costs = model.costs(1024).values()
        assert min(costs, key=lambda c: c.latency_seconds).mode \
            is CompletionMode.POLL

    def test_wait_wins_small_jobs_at_equal_weight(self, model):
        """The wait facility is poll-latency at near-interrupt burn."""
        assert model.best_mode(4096) is CompletionMode.WAIT

    def test_large_jobs_prefer_interrupt(self, model):
        assert model.best_mode(64 << 20) is CompletionMode.INTERRUPT

    def test_latency_only_weight_prefers_poll_everywhere(self, model):
        costs = model.costs(64 << 20).values()
        assert min(costs, key=lambda c: c.latency_seconds).mode \
            is CompletionMode.POLL

    def test_weighted_cost_formula(self, model):
        cost = model.costs(65536)[CompletionMode.WAIT]
        assert cost.weighted_cost() == pytest.approx(
            cost.latency_seconds + cost.cpu_burn_seconds)

    def test_z15_sync_path_still_modelable(self):
        """The model runs for z15 too (its DFLTCC path is effectively
        'wait' with tiny constants), giving comparable numbers."""
        model = CompletionModel(Z15)
        costs = model.costs(65536)
        assert costs[CompletionMode.POLL].latency_seconds > 0

    def test_detection_constant_sane(self):
        assert POLL_DETECT_SECONDS < 1e-6
