"""Chaos under load: faults firing while the service handles clients.

The offline chaos campaign (test_resilience) proves the pool survives
faults in isolation; this suite proves the *serving stack* does — fault
injectors wired to every chip (or killing its exec workers) while
concurrent client threads push QoS-tagged traffic through one
:class:`CompressionService`.  The bar: zero wrong payloads among
accepted requests, every refusal typed retryable, queues bounded, and
the breakers actually cycling (open on the dead chip, closed again after
recovery probes).
"""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.errors import ReproError, ServiceOverloaded
from repro.resilience import chaos
from repro.resilience.chaos import default_plans, render, run_scenario
from repro.resilience.faults import FAULT_KINDS, NetFaultInjector
from repro.service.core import CompressionService


def served(scenario: str = "combined", **settings):
    return run_scenario(scenario, stack="service", **settings)


class TestChaosUnderLoad:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_combined_storm_no_wrong_bytes(self, seed):
        result = served(seed=seed, jobs=120, clients=4)
        assert result.survived, render([result])
        assert result.wrong == 0
        assert result.lost == 0
        assert result.served + result.shed + result.lost == result.jobs
        assert result.faults, "storm injected nothing"
        assert result.max_queue_depth <= result.queue_bound

    def test_chip_death_opens_and_recovers_breaker(self):
        result = served("chip_death", seed=11, jobs=160, clients=4)
        assert result.survived, render([result])
        assert result.faults.get("chip_death", 0) >= 1
        # The dead chip's breaker must have opened — and after the
        # plan's recovery point, probe successes must close it again.
        assert result.breaker_opens >= 1, render([result])
        assert result.breaker_closes >= 1, render([result])
        # Everything accepted still produced correct bytes (rescue or
        # the surviving chip picked up the work).
        assert result.wrong == 0

    def test_hang_scenario_served_through_rescue(self):
        result = served("engine_hang", seed=3, jobs=100, clients=4)
        assert result.survived, render([result])
        assert result.wrong == 0
        if result.faults.get("engine_hang"):
            # Hangs were injected: jobs still completed, some through
            # the software-rescue path.
            assert result.served > 0

    def test_corruption_never_reaches_clients(self):
        result = served("corrupt_output", seed=5, jobs=100, clients=4)
        assert result.survived, render([result])
        assert result.wrong == 0
        assert result.faults.get("corrupt_output", 0) >= 1

    def test_unknown_scenario_is_typed_error(self):
        with pytest.raises(ReproError):
            served("not-a-scenario")

    def test_a_non_retryable_failure_is_not_survived(self, monkeypatch):
        calls = itertools.count()
        request = CompressionService.request

        def fail_once(self, *args, **kwargs):
            if next(calls) == 3:
                raise ReproError("injected non-retryable failure")
            return request(self, *args, **kwargs)

        monkeypatch.setattr(CompressionService, "request", fail_once)
        result = served("baseline", jobs=8, clients=2)
        assert (result.served, result.shed, result.lost) == (7, 0, 1)
        assert result.wrong == 0
        assert not result.survived
        assert "FAILED" in render([result])

    def test_a_final_overload_over_tcp_is_shed(self, monkeypatch):
        """The server sheds every attempt of one request: the client's
        last ``ServiceOverloaded`` is a refusal to retry, not a loss."""
        submit = CompressionService.submit
        lock = threading.Lock()
        doomed = []

        def shed_one_request(self, op, payload, **kwargs):
            key = kwargs.get("client_request_id")
            with lock:
                doomed[:] = doomed or [key]
            if key == doomed[0]:
                raise ServiceOverloaded("injected overload",
                                        qos=kwargs.get("qos"))
            return submit(self, op, payload, **kwargs)

        monkeypatch.setattr(CompressionService, "submit", shed_one_request)
        result = run_scenario("net_baseline", stack="tcp", seed=7, jobs=8,
                              clients=2)
        assert (result.served, result.shed, result.lost) == (7, 1, 0)
        assert result.executions == result.stores == 7
        assert result.survived, render([result])

    def test_worker_kills_are_reported_as_faults(self, monkeypatch):
        monkeypatch.setattr(chaos, "_KILL_TICK_S", 0.01)
        result = served("worker_kill", seed=7, jobs=40, clients=2,
                        exec_workers=2)
        assert result.survived, render([result])
        assert result.faults.get("worker_kill", 0) >= 1, render([result])
        assert result.worker_restarts >= 1
        assert "'worker_kill'" in render([result])

    def test_every_fault_kind_fires_in_a_default_scenario(self,
                                                          monkeypatch):
        monkeypatch.setattr(chaos, "_KILL_TICK_S", 0.01)
        fired = set()
        for result in chaos.run_campaign("pool", jobs=100, max_size=1024):
            fired |= set(result.faults)
        # Each end of a TCP scenario's connections, 200 operations each.
        for plans in default_plans("tcp").values():
            for side in ("client", "server"):
                injector = NetFaultInjector(
                    [p for p in plans if p.side in (None, side)], seed=7)
                for op in range(200):
                    injector.on_op("recv" if op % 3 == 2 else "send")
                fired |= set(injector.fired)
        kills = served("worker_kill", seed=7, jobs=40, clients=2,
                       exec_workers=2)
        fired |= set(kills.faults)
        assert fired == {kind for kinds in FAULT_KINDS.values()
                         for kind in kinds}
