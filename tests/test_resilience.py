"""Resilience: fault injection, bounded retries, breakers, verify.

The chaos regression suite: every injected fault class must end in
byte-exact results (or a clean, typed failure) — never a hang, never
silent corruption.
"""

import contextlib
import gzip as stdgzip
import zlib as stdzlib

import pytest

from repro import obs
from repro.backend.pool import AcceleratorPool
from repro.errors import (AcceleratorError, ConfigError, DeadlineExceeded,
                          JobError, OutputOverflow, ReproError)
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.resilience.chaos import (default_plans, render, run_campaign,
                                    run_scenario)
from repro.resilience.faults import (FAULT_KINDS, FaultInjector, FaultPlan,
                                     NetFaultInjector, WorkerKiller)
from repro.resilience.health import (BreakerState, CircuitBreaker,
                                     HealthConfig, HealthTracker)
from repro.resilience.policy import (BACKOFF_MULTIPLIER, BASE_BACKOFF_S,
                                     JITTER_FRACTION, MAX_BACKOFF_S,
                                     RetryPolicy, check_deadline)
from repro.resilience.verify import (software_compress, verify_payload)
from repro.service import CompressionService
from repro.service.qos import QosClass, QosPolicy
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace
from repro.workloads.generators import generate


def make_driver(plans=(), seed=0, max_retries=8, deadline_s=None,
                credits=None):
    space = AddressSpace()
    accel = NxAccelerator(POWER9)
    injector = FaultInjector(list(plans), seed=seed).install(accel)
    driver = NxDriver(accel, space, max_retries=max_retries,
                      deadline_s=deadline_s)
    driver.open(credits=credits)
    return driver, injector


@contextlib.contextmanager
def reset_finds_nothing(driver):
    """An engine whose reset recovers no job: ``poll`` retries a hung
    job by itself, so a *stuck* one needs a hang no reset finds."""
    accel = driver.accelerator
    accel.recover_hung = lambda: []
    try:
        yield
    finally:
        del accel.recover_hung


@pytest.fixture()
def telemetry():
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


class TestErrors:
    def test_all_derive_from_repro_error(self):
        assert issubclass(DeadlineExceeded, ReproError)

    def test_deadline_carries_budget(self):
        exc = DeadlineExceeded("late", elapsed_s=2.0, deadline_s=1.0)
        assert exc.elapsed_s == 2.0 and exc.deadline_s == 1.0
        assert isinstance(exc, AcceleratorError)


class TestRetryPolicy:
    def test_allows_counts_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert [policy.allows(i) for i in range(4)] == \
            [True, True, True, False]

    def test_from_max_retries_adapter(self):
        assert RetryPolicy.from_max_retries(8).max_attempts == 9

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy()
        # Doubling outgrows the +-25 % jitter from one retry to the next.
        assert policy.backoff_s(2) > policy.backoff_s(0)
        jitter = JITTER_FRACTION * MAX_BACKOFF_S
        assert abs(policy.backoff_s(60) - MAX_BACKOFF_S) <= jitter
        # Deep paste-retry counts must not overflow the float power.
        assert abs(policy.backoff_s(5000) - MAX_BACKOFF_S) <= jitter

    def test_jitter_is_deterministic(self):
        a = RetryPolicy().backoff_s(3, token=9)
        b = RetryPolicy().backoff_s(3, token=9)
        c = RetryPolicy().backoff_s(3, token=10)
        assert a == b
        assert a != c
        base = BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** 3
        assert abs(a - base) <= JITTER_FRACTION * base

    def test_check_deadline(self):
        check_deadline(0.5, None, "never raises without a deadline")
        check_deadline(0.5, 1.0, "under budget")
        with pytest.raises(DeadlineExceeded) as info:
            check_deadline(2.0, 1.0, "paste")
        assert "paste" in str(info.value)


class _Proc:
    """A live worker process, as far as the kill injector can tell."""

    def terminate(self) -> None:
        pass


def _chip_timeline(injector) -> list:
    return ([injector.on_job_start(None) for _ in range(40)]
            + [injector.on_credit_return(1) for _ in range(40)])


def _kill_timeline(injector) -> list:
    procs = [_Proc(), _Proc(), _Proc()]
    return [procs.index(victim) if victim is not None else None
            for victim in (injector.on_tick(procs) for _ in range(40))]


#: Per fault source: its injector from (plans, seed, chip or peer), the
#: plans of a timeline and that timeline, 40 opportunities long.
SOURCES = {
    "chip": (lambda plans, seed, n: FaultInjector(plans, seed=seed, chip=n),
             ("engine_hang", "credit_leak"), _chip_timeline),
    "wire": (lambda plans, seed, n: NetFaultInjector(plans, seed=seed,
                                                     peer=n),
             ("reset",),
             lambda injector: [getattr(injector.on_op("send"), "kind", None)
                               for _ in range(40)]),
    "worker": (lambda plans, seed, n: WorkerKiller(plans, seed=seed + n),
               ("worker_kill",), _kill_timeline),
}


class TestFaultInjector:
    """One plan type and one evaluation loop under all three sources."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan("gremlin", probability=0.5)
        for kind, side in (("reset", "middle"), ("engine_hang", "client")):
            with pytest.raises(ConfigError):
                FaultPlan(kind, probability=0.5, side=side)
        for source, (build, _, _) in SOURCES.items():
            stranger = next(kinds[0] for other, kinds in FAULT_KINDS.items()
                            if other != source)
            with pytest.raises(ConfigError):
                build([FaultPlan(stranger, probability=0.5)], 0, 0)

    def test_bad_probability_rejected(self):
        for kinds in FAULT_KINDS.values():
            for probability in (1.5, -0.1):
                with pytest.raises(ConfigError):
                    FaultPlan(kinds[0], probability=probability)

    def test_unfireable_plan_rejected(self):
        for kinds in FAULT_KINDS.values():
            with pytest.raises(ConfigError):
                FaultPlan(kinds[0])  # no at, no probability

    def test_install_sets_both_hooks(self):
        accel = NxAccelerator(POWER9)
        injector = FaultInjector(
            [FaultPlan("engine_hang", at=1)]).install(accel)
        assert accel.chaos is injector
        assert accel.vas.chaos is injector

    def test_at_job_fires_exactly_once(self):
        injector = FaultInjector([FaultPlan("engine_hang", at=2)])
        actions = [injector.on_job_start(None) for _ in range(5)]
        assert actions == [None, "hang", None, None, None]
        assert injector.fired == {"engine_hang": 1}

    def test_same_seed_same_timeline(self):
        for build, kinds, timeline in SOURCES.values():
            plans = [FaultPlan(kind, probability=0.3) for kind in kinds]

            def run(seed, n):
                injector = build(plans, seed, n)
                return timeline(injector), injector.fired

            assert run(11, 1) == run(11, 1)
            assert run(11, 1)[1], kinds
            assert run(11, 1) != run(12, 1)
            assert run(11, 1) != run(11, 2)

    def test_every_kind_is_declarable(self):
        for source, kinds in FAULT_KINDS.items():
            build = SOURCES[source][0]
            for kind in kinds:
                plan = FaultPlan(kind, probability=0.1)
                assert plan.source == source
                build([plan], 0, 0)


class TestDriverResilience:
    def test_hang_recovered_and_retried(self, text_20k):
        driver, injector = make_driver(
            [FaultPlan("engine_hang", at=1)])
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k
        assert result.stats.engine_hangs == 1
        assert not result.stats.fallback_to_software
        assert not driver.accelerator.hung  # credits reclaimed

    def test_spurious_cc_retried_to_success(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("spurious_cc", at=1)])
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k
        assert result.stats.spurious_ccs == 1

    def test_spurious_storm_falls_back_to_software(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("spurious_cc", probability=1.0,
                       max_fires=10_000)], max_retries=3)
        result = driver.run(Op.COMPRESS, text_20k)
        assert result.stats.fallback_to_software
        assert result.csb is None
        assert stdzlib.decompress(result.output, -15) == text_20k

    def test_permanent_cc_still_fails_fast(self):
        driver, _ = make_driver()
        with pytest.raises(JobError):
            driver.run(Op.DECOMPRESS_842, b"\xff" * 64)

    def test_credit_leak_bounds_paste_and_falls_back(self, text_20k):
        driver, injector = make_driver(
            [FaultPlan("credit_leak", probability=1.0, max_fires=1)],
            credits=1)
        first = driver.run(Op.COMPRESS, text_20k)  # completes, leaks
        assert not first.stats.fallback_to_software
        assert injector.fired["credit_leak"] == 1
        second = driver.run(Op.COMPRESS, text_20k)  # window is wedged
        assert second.stats.fallback_to_software
        assert second.stats.paste_rejections > 0
        assert stdzlib.decompress(second.output, -15) == text_20k
        driver.close()  # leaked credit must not wedge teardown

    def test_deadline_raises_while_retrying(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("spurious_cc", probability=1.0,
                       max_fires=10_000)])
        with pytest.raises(DeadlineExceeded) as info:
            driver.run(Op.COMPRESS, text_20k, deadline_s=1e-12)
        assert info.value.deadline_s == 1e-12

    def test_successful_job_ignores_deadline(self, text_20k):
        driver, _ = make_driver()
        result = driver.run(Op.COMPRESS, text_20k, deadline_s=1e-12)
        assert stdzlib.decompress(result.output, -15) == text_20k

    def test_engine_slow_inflates_elapsed(self, text_20k):
        fast, _ = make_driver()
        slow, _ = make_driver(
            [FaultPlan("engine_slow", probability=1.0, max_fires=1,
                       magnitude=1000.0)])
        t_fast = fast.run(Op.COMPRESS, text_20k).stats.elapsed_seconds
        t_slow = slow.run(Op.COMPRESS, text_20k).stats.elapsed_seconds
        assert t_slow > 10 * t_fast

    def test_corruption_detected_by_verify(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("corrupt_output", probability=1.0, max_fires=1)])
        result = driver.run(Op.COMPRESS, text_20k, fmt="gzip")
        assert not verify_payload(text_20k, result.output, "gzip")


class TestAsyncResilience:
    def test_bad_job_does_not_abandon_batch(self, text_20k):
        driver, _ = make_driver()
        good = [driver.submit(Op.COMPRESS, text_20k) for _ in range(3)]
        bad = driver.submit(Op.DECOMPRESS_842, b"\xff" * 64)
        done = driver.wait_all()
        assert len(done) == 4
        assert bad.failed and isinstance(bad.error, JobError)
        assert bad.result is None
        for job in good:
            assert not job.failed
            assert stdzlib.decompress(job.result.output, -15) == text_20k

    def test_retry_exhaustion_resolves_in_software(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("spurious_cc", probability=1.0,
                       max_fires=10_000)], max_retries=2)
        job = driver.submit(Op.COMPRESS, text_20k)
        driver.wait_all()
        assert job.done and not job.failed
        assert job.result.stats.fallback_to_software
        assert stdzlib.decompress(job.result.output, -15) == text_20k

    def test_async_deadline_fails_only_that_job(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("spurious_cc", probability=1.0,
                       max_fires=10_000)])
        doomed = driver.submit(Op.COMPRESS, text_20k, deadline_s=1e-12)
        driver.wait_all()
        assert doomed.failed
        assert isinstance(doomed.error, DeadlineExceeded)

    def test_wait_all_reports_partial_and_stuck(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("engine_hang", at=2)])
        ok = driver.submit(Op.COMPRESS, text_20k)
        hung = driver.submit(Op.COMPRESS, text_20k)
        with reset_finds_nothing(driver), \
                pytest.raises(JobError) as info:
            driver.wait_all(max_polls=5)
        assert [j.sequence for j in info.value.partial] == [ok.sequence]
        assert info.value.stuck == [hung.sequence]

    def test_cancel_pending_reclaims_credits(self, text_20k):
        driver, _ = make_driver(
            [FaultPlan("engine_hang", at=1)], credits=2)
        hung = driver.submit(Op.COMPRESS, text_20k)
        with reset_finds_nothing(driver), pytest.raises(JobError):
            driver.wait_all(max_polls=3)
        cancelled = driver.cancel_pending()
        assert [j.sequence for j in cancelled] == [hung.sequence]
        assert hung.failed and driver.in_flight == 0
        window = driver.accelerator.vas.windows[driver._window_id]
        assert window.outstanding == 0
        # The driver is usable again after the engine reset.
        job = driver.submit(Op.COMPRESS, text_20k)
        driver.wait_all()
        assert stdzlib.decompress(job.result.output, -15) == text_20k

    def test_submit_time_completions_not_dropped(self):
        # Credit backpressure makes submit poll internally; completions
        # drained there must still be handed back to the caller.
        driver, _ = make_driver(credits=2)
        payloads = [generate("json_records", 6000, seed=i)
                    for i in range(8)]
        jobs = [driver.submit(Op.COMPRESS, p) for p in payloads]
        done = driver.wait_all()
        assert len(done) == len(jobs)
        for job, payload in zip(jobs, payloads):
            assert stdzlib.decompress(job.result.output, -15) == payload


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(chip=0, config=HealthConfig(
            failure_threshold=3))
        for _ in range(2):
            breaker.record_failure(0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.available

    def test_success_resets_failure_run(self):
        breaker = CircuitBreaker(chip=0, config=HealthConfig(
            failure_threshold=2))
        breaker.record_failure(0)
        breaker.record_success(0)
        breaker.record_failure(0)
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_then_probes_close(self):
        config = HealthConfig(failure_threshold=1, cooldown_routes=4,
                              probe_successes=2)
        breaker = CircuitBreaker(chip=0, config=config)
        breaker.record_failure(tick=10)
        assert breaker.state is BreakerState.OPEN
        breaker.tick(12)
        assert breaker.state is BreakerState.OPEN
        breaker.tick(14)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(14)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(14)
        assert breaker.state is BreakerState.CLOSED
        assert [name for name, _ in breaker.transitions] == \
            ["OPEN", "HALF_OPEN", "CLOSED"]

    def test_half_open_failure_reopens(self):
        config = HealthConfig(failure_threshold=1, cooldown_routes=1)
        breaker = CircuitBreaker(chip=0, config=config)
        breaker.record_failure(0)
        breaker.tick(2)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure(2)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2

    def test_tracker_excludes_open_chips(self):
        tracker = HealthTracker(3, HealthConfig(failure_threshold=1))
        tracker.record_failure(1)
        assert tracker.available_chips() == [0, 2]
        assert tracker.total_opens() == 1

    def test_score_decays_on_failure(self):
        tracker = HealthTracker(1)
        for _ in range(5):
            tracker.record_failure(0)
        assert tracker.breakers[0].score < 0.5


class TestPoolHealth:
    def test_dead_chip_quarantined_but_bytes_correct(self, text_20k):
        pool = AcceleratorPool(
            POWER9, chips=2, backend="nx",
            health=HealthConfig(failure_threshold=2,
                                cooldown_routes=10_000))
        FaultInjector([FaultPlan("chip_death", at=1)]).install(
            pool.backend_for(0).accelerator)
        for _ in range(10):
            result = pool.compress(text_20k, fmt="gzip")
            assert verify_payload(text_20k, result.output, "gzip")
        stats = pool.stats()
        assert stats.breaker_opens >= 1
        assert stats.breaker_states[0] == "OPEN"
        assert pool.health.available_chips() == [1]
        # A quarantined chip is never routed to.
        assert all(pool.route(len(text_20k)) != 0 for _ in range(8))
        pool.close()

    def test_all_dead_with_rescue_routes_to_software(self, text_20k):
        pool = AcceleratorPool(
            POWER9, chips=1, backend="nx",
            health=HealthConfig(failure_threshold=1,
                                cooldown_routes=10_000))
        FaultInjector([FaultPlan("chip_death", at=1)]).install(
            pool.backend_for(0).accelerator)
        for _ in range(5):
            result = pool.compress(text_20k, fmt="gzip")
            assert verify_payload(text_20k, result.output, "gzip")
        assert pool.software_jobs > 0
        pool.close()

    def test_breaker_recovers_after_chip_resurrects(self, text_20k):
        pool = AcceleratorPool(
            POWER9, chips=1, backend="nx",
            health=HealthConfig(failure_threshold=2, cooldown_routes=3,
                                probe_successes=1))
        FaultInjector(
            [FaultPlan("chip_death", at=1,
                       recover_at=30)]).install(
            pool.backend_for(0).accelerator)
        for _ in range(40):
            result = pool.compress(text_20k, fmt="gzip")
            assert verify_payload(text_20k, result.output, "gzip")
        log = [name for name, _ in pool.health.transition_log()[0]]
        assert "OPEN" in log
        assert log[-1] == "CLOSED"
        assert pool.stats().breaker_states[0] == "CLOSED"
        pool.close()

    def test_verify_rescues_corrupted_output(self, text_20k):
        pool = AcceleratorPool(POWER9, chips=1, backend="nx",
                               verify=True)
        FaultInjector(
            [FaultPlan("corrupt_output", probability=1.0,
                       max_fires=3)]).install(
            pool.backend_for(0).accelerator)
        for _ in range(5):
            result = pool.compress(text_20k, fmt="gzip")
            assert verify_payload(text_20k, result.output, "gzip")
        stats = pool.stats()
        assert stats.verify_failures == 3
        assert stats.rescues >= 3
        pool.close()

    def test_async_pool_failure_rescued(self, text_20k):
        pool = AcceleratorPool(POWER9, chips=2, backend="nx")
        FaultInjector(
            [FaultPlan("spurious_cc", probability=1.0,
                       max_fires=10_000)]).install(
            pool.backend_for(0).accelerator)
        jobs = [pool.submit_compress(text_20k, fmt="gzip")
                for _ in range(6)]
        pool.wait_all()
        for job in jobs:
            assert job.result is not None
            assert verify_payload(text_20k, job.result.output, "gzip")
        pool.close()

    @pytest.mark.parametrize("bad,fmt", [(b"", "gzip"),
                                         (b"\xff" * 64, "842")],
                             ids=["empty_gzip", "bad_842"])
    def test_bad_input_never_moves_the_breaker(self, bad, fmt):
        """The engine refuses both inputs with a permanent CC: the job
        fails as ``JobError``, the chip is not charged, nothing is
        rescued, and a valid request after them still runs on the chip."""
        plain = b"hello world " * 100
        with AcceleratorPool(POWER9, chips=1, backend="nx") as pool:
            for _ in range(6):
                with pytest.raises(JobError):
                    pool.decompress(bad, fmt=fmt)
            stats = pool.stats()
            assert stats.breaker_states == ("CLOSED",)
            assert (stats.breaker_opens, stats.rescues) == (0, 0)
            valid = pool.compress(plain, fmt=fmt).output
            assert pool.decompress(valid, fmt=fmt).output == plain

    @pytest.mark.parametrize("machine,backend,exec_workers",
                             [("POWER9", "nx", None),
                              ("z15", "dfltcc", None),
                              ("z15", "dfltcc", 1)],
                             ids=["nx", "dfltcc", "dfltcc_exec"])
    def test_refused_bomb_never_moves_the_breaker(self, machine, backend,
                                                  exec_workers):
        """A decode past its class's byte bound is refused: the job
        fails as ``OutputOverflow``, the chip is not charged, no
        software decodes the bomb again, and a valid request after it
        still runs on the chip."""
        bomb = stdgzip.compress(bytes(1 << 20))
        plain = b"hello world " * 100
        policy = QosPolicy((QosClass("only", queue_bytes_limit=64 << 10),))
        with CompressionService(machine=machine, chips=1, backend=backend,
                                exec_workers=exec_workers,
                                qos=policy) as service:
            for _ in range(6):
                with pytest.raises(OutputOverflow):
                    service.submit("decompress", bomb).wait(60)
            stats = service.pool.stats()
            assert stats.breaker_states == ("CLOSED",)
            assert (stats.breaker_opens, stats.rescues,
                    stats.fallbacks) == (0, 0, 0)
            job = service.submit("decompress",
                                 stdgzip.compress(plain)).wait(60)
        assert job.output == plain and job.chip == 0
        assert not job.result.stats.fallback_to_software
        assert job.on_exec == bool(exec_workers)


class TestVerify:
    def test_round_trip_passes(self, text_20k):
        payload, _ = software_compress(text_20k, fmt="gzip")
        assert verify_payload(text_20k, payload, "gzip")

    def test_corrupted_payload_fails(self, text_20k):
        payload, _ = software_compress(text_20k, fmt="gzip")
        bad = bytes([payload[0] ^ 0xA5]) + payload[1:]
        assert not verify_payload(text_20k, bad, "gzip")

    @pytest.mark.parametrize("fmt", ["raw", "zlib", "gzip", "842"])
    def test_software_compress_round_trips(self, fmt, json_20k):
        payload, seconds = software_compress(json_20k, fmt=fmt,
                                             machine=POWER9)
        assert verify_payload(json_20k, payload, fmt)
        assert seconds > 0.0

    def test_api_verify_repairs(self, telemetry, text_20k):
        from repro.core.api import NxGzip
        from repro.obs.flight import FLIGHT

        FLIGHT.reset()
        with NxGzip(POWER9, verify=True) as session:
            FaultInjector(
                [FaultPlan("corrupt_output", probability=1.0,
                           max_fires=1)]).install(session.accelerator)
            buf = session.compress(text_20k, fmt="gzip")
            assert verify_payload(text_20k, buf.data, "gzip")
            assert session.verify_failures == 1
        counter = telemetry.registry().get(
            "repro_resilience_verify_mismatch_total")
        assert counter is not None
        assert counter.value(backend="nx", fmt="gzip") == 1
        # The same verify step as the pool's: a mismatch leaves its
        # flight-recorder trigger in the ring.
        dumps = [record for record in FLIGHT.snapshot()
                 if record["kind"] == "dump.verify_failure"]
        assert [(r["backend"], r["fmt"], r["nbytes"]) for r in dumps] == [
            ("nx", "gzip", len(text_20k))]


class TestChaosCampaign:
    def test_campaign_survives_every_plan(self):
        results = run_campaign(seed=7, jobs=30, chips=2, max_size=2048)
        assert [r.name for r in results] == list(default_plans("pool", 30))
        for scenario in results:
            assert scenario.survived and scenario.wrong == 0, scenario.name
        assert sum(r.total_faults for r in results) > 0
        assert "SURVIVED" in render(results)

    def test_campaign_is_deterministic(self):
        a = run_scenario("combined", seed=3, jobs=20, chips=2, max_size=1024)
        b = run_scenario("combined", seed=3, jobs=20, chips=2, max_size=1024)
        assert a.faults == b.faults
        assert a.wrong == b.wrong == 0
        assert a.modelled_seconds == b.modelled_seconds

    def test_breaker_transitions_land_in_metrics(self, telemetry):
        run_scenario("chip_death", seed=7, jobs=30, chips=2, max_size=1024)
        counter = telemetry.registry().get(
            "repro_resilience_breaker_transitions_total")
        assert counter is not None
        assert counter.value(chip="0", to="OPEN") >= 1
        injected = telemetry.registry().get(
            "repro_resilience_faults_injected_total")
        assert injected.value(kind="chip_death", chip="0") == 1

    def test_a_stack_refuses_plans_it_cannot_fire(self):
        with pytest.raises(ReproError, match="chip faults only"):
            run_scenario("worker_kill", stack="service")


class TestCLI:
    def test_chaos_command_survives(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--seed", "7", "--jobs", "15",
                     "--scenario", "combined"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SURVIVED" in out

    def test_chaos_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--scenario", "nope"]) == 2

    def test_compress_verify_and_deadline_flags(self, tmp_path, capsys,
                                                text_20k):
        from repro.cli import main

        src = tmp_path / "input.bin"
        src.write_bytes(text_20k)
        code = main(["compress", str(src), "--verify",
                     "--deadline-ms", "1000"])
        assert code == 0
        out = tmp_path / "input.bin.gz"
        import gzip as stdgzip

        assert stdgzip.decompress(out.read_bytes()) == text_20k
