"""Process execution layer: pools, pipes, telemetry relay, crashes."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import obs
from repro.backend import create_backend
from repro.deflate import inflate
from repro.errors import ExecError, WorkerCrash
from repro.exec import (ProcessWorkerPool, get_default_pool,
                        shutdown_default_pool)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE
from repro.workloads.generators import generate


@pytest.fixture(scope="module")
def pool():
    """One warm 2-worker pool shared by the module's tests."""
    p = ProcessWorkerPool(2, name="test-exec")
    p.warm()
    yield p
    p.shutdown()


# -- pool basics -------------------------------------------------------------

def test_echo_round_trip(pool):
    job = pool.submit("echo", value={"k": [1, 2, 3]})
    pool.wait([job], timeout_s=60.0)
    assert job.error is None
    assert job.result == {"k": [1, 2, 3]}


def test_run_batch_preserves_order(pool):
    results = pool.run_batch([("echo", {"value": i}) for i in range(8)],
                             timeout_s=60.0)
    assert results == list(range(8))


def test_unknown_fn_fails_cleanly(pool):
    job = pool.submit("no-such-fn")
    pool.wait([job], timeout_s=60.0)
    assert isinstance(job.error, ExecError)
    assert "no-such-fn" in str(job.error)


# -- crash handling ----------------------------------------------------------

def test_worker_crash_detected_and_respawned(pool):
    restarts = pool.worker_restarts
    job = pool.submit("crash")
    pool.wait([job], timeout_s=60.0)
    assert job.crashed
    assert isinstance(job.error, WorkerCrash)
    assert pool.worker_restarts == restarts + 1
    # The pool is still serviceable after the respawn.
    probe = pool.submit("echo", value="alive")
    pool.wait([probe], timeout_s=60.0)
    assert probe.result == "alive"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_each_worker_is_pinned_to_its_own_cpu_and_a_respawn_keeps_it():
    cpus = sorted(os.sched_getaffinity(0))
    pool = ProcessWorkerPool(min(len(cpus), 4), name="test-pinning")
    try:
        pool.warm()
        pinned = {worker.worker_id: os.sched_getaffinity(worker.proc.pid)
                  for worker in pool._workers.values()}
        assert all(len(cpu) == 1 for cpu in pinned.values())
        assert sorted(min(cpu) for cpu in pinned.values()) \
            == cpus[:len(pinned)]
        job = pool.submit("crash")
        pool.wait([job], timeout_s=60.0)
        assert job.crashed
        dead = job.error.worker
        assert dead not in pool._workers
        (newcomer,) = set(pool._workers) - set(pinned)
        assert os.sched_getaffinity(pool._workers[newcomer].proc.pid) \
            == pinned[dead]
    finally:
        pool.shutdown()


def test_run_batch_raises_when_crash_retries_exhausted(pool):
    with pytest.raises(WorkerCrash):
        pool.run_batch([("crash", {})], timeout_s=60.0)


def test_restart_cap_breaks_pool():
    p = ProcessWorkerPool(1, name="test-exec-cap")
    p.warm()
    try:
        p.restart_cap = 0
        job = p.submit("crash")
        p.wait([job], timeout_s=60.0)
        assert isinstance(job.error, (WorkerCrash, ExecError))
        assert p.broken
        with pytest.raises(ExecError):
            p.submit("echo", value=1)
    finally:
        p.shutdown()


def test_submit_does_not_queue_behind_a_waiter(pool):
    """wait() sleeps outside the pool lock, so another thread's submit
    is not held up for the length of the waiter's blocking drain."""
    import statistics
    import threading

    pool.default_delay_s = 1.0  # the slow job dwells in its worker
    slow = pool.submit("echo", value="slow")
    pool.default_delay_s = 0.0
    waiter = threading.Thread(target=pool.wait, args=([slow],),
                              kwargs={"timeout_s": 60.0})
    waiter.start()
    try:
        time.sleep(0.2)  # the waiter is inside wait() from here on
        deadline = time.monotonic() + 30.0
        took = []
        for _ in range(5):
            started = time.perf_counter()
            quick = pool.submit("echo", value="quick")
            took.append(time.perf_counter() - started)
            # Only the waiter drains: once it has applied this job's
            # completion it goes straight back to sleep, so the next
            # submit again arrives at the start of a blocking drain.
            while not quick.done:
                assert time.monotonic() < deadline, "quick job lost"
                time.sleep(0.002)
        assert not slow.done  # the waiter was blocked throughout
        assert statistics.median(took) < 0.010, took
    finally:
        waiter.join(60.0)
    assert not waiter.is_alive()
    assert slow.result == "slow"


def test_default_pool_recreated_when_broken():
    p1 = get_default_pool(1)
    p1.broken = True
    p2 = get_default_pool(1)
    assert p2 is not p1
    assert not p2.broken
    shutdown_default_pool()


# -- worker parity -----------------------------------------------------------

def test_worker_inline_output_parity(pool):
    """A compress run in a worker is the compress run here."""
    data = generate("markov_text", 40000, seed=41)
    kwargs = {"backend": "software", "machine": "POWER9",
              "backend_kwargs": {"level": 6}, "kind": "compress",
              "fmt": "raw", "data": data}
    with create_backend("software", machine="POWER9", level=6) as backend:
        inline = backend.compress(data, fmt="raw")
    pooled, = pool.run_batch([("backend_job", kwargs)], timeout_s=120.0)
    assert pooled.output == inline.output
    assert pooled.stats == inline.stats
    assert inflate(pooled.output) == data


# -- telemetry relay ---------------------------------------------------------

def test_merge_snapshot_counters_gauges_histograms():
    src = MetricsRegistry()
    src.enabled = True
    src.counter("jobs", "n").inc(3, op="c")
    src.gauge("depth", "d").set(7)
    h = src.histogram("lat", "s", buckets=(1.0, 2.0, 4.0))
    h.observe(0.5)
    h.observe(3.0)
    h.observe(100.0)

    dst = MetricsRegistry()
    dst.enabled = True
    dst.counter("jobs", "n").inc(1, op="c")
    dst.histogram("lat", "s", buckets=(1.0, 2.0, 4.0)).observe(1.5)
    dst.merge_snapshot(src.snapshot())

    assert dst.counter("jobs").value(op="c") == 4
    assert dst.gauge("depth").value() == 7
    state = dst.histogram("lat").state()
    assert state.count == 4
    assert state.counts == [1, 1, 1, 1]  # 0.5 | 1.5 | 3.0 | inf 100.0
    assert state.sum == pytest.approx(105.0)


def test_worker_spans_fold_under_parallel_span():
    """Each job of a batch spread over two workers relays its kernel
    span back under that job's own parent-side span."""
    from repro.backend.pool import AcceleratorPool

    payloads = [generate("markov_text", 8000, seed=s) for s in range(4)]
    obs.reset()
    obs.enable(trace=True, metrics=False)
    try:
        completed_before = get_default_pool(2).jobs_completed
        with AcceleratorPool("POWER9", chips=1, backend="software",
                             exec_workers=2) as ap:
            jobs = [ap.submit_compress(p, fmt="raw") for p in payloads]
            ap.wait_all()
        assert [inflate(j.result.output) for j in jobs] == payloads
        # The pool path really ran (no silent inline fallback).
        assert get_default_pool(2).jobs_completed \
            == completed_before + len(payloads)
        finished = TRACE.finished()
        by_id = {s.span_id: s for s in finished}
        kernels = [s for s in finished if s.name == "deflate.kernel"]
        assert len(kernels) == len(payloads)  # relayed from workers
        roots = set()
        for kernel in kernels:
            node, path = kernel, []
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                path.append(node.name)
            assert path[-2:] == ["worker.job", "pool.route"]
            assert node.trace_id == kernel.trace_id
            roots.add(node.span_id)
        assert len(roots) == len(payloads)  # one parent span per job
    finally:
        obs.disable()
        obs.reset()
        shutdown_default_pool()


def _backend_counter_families(snap: dict) -> dict:
    keep = ("repro_backend_requests_total", "repro_backend_bytes_in_total",
            "repro_backend_bytes_out_total")
    return {name: snap[name]["values"] for name in keep if name in snap}


def test_exec_counter_arithmetic_matches_serial_path():
    """Regression: the exec seam must not double- or under-count.

    The same jobs through the same pool surface — once inline, once on
    worker processes — must leave byte-identical outputs and identical
    backend counter arithmetic in the parent registry.
    """
    from repro.backend.pool import AcceleratorPool

    payloads = [generate("json_records", 8000, seed=s) for s in (1, 2, 3)]

    def run(exec_workers):
        obs.reset()
        obs.enable(trace=False, metrics=True)
        try:
            with AcceleratorPool("POWER9", chips=1, backend="software",
                                 exec_workers=exec_workers) as ap:
                jobs = [ap.submit_compress(p, strategy="auto", fmt="gzip")
                        for p in payloads]
                ap.wait_all()
                outs = [j.result.output for j in jobs]
            return outs, _backend_counter_families(obs.registry().snapshot())
        finally:
            obs.disable()
            obs.reset()

    serial_outs, serial_counters = run(exec_workers=None)
    try:
        exec_outs, exec_counters = run(exec_workers=2)
    finally:
        shutdown_default_pool()
    assert exec_outs == serial_outs
    assert serial_counters  # the serial path populated the families
    assert exec_counters == serial_counters


# -- backend-surface crash rescue --------------------------------------------

def test_accelerator_pool_rescues_crashed_worker_batch():
    """A worker killed mid-batch costs exactly the job it held a rescue,
    never bytes; the jobs behind it in the backlog run normally."""
    from repro.backend.pool import AcceleratorPool

    exec_pool = ProcessWorkerPool(1, name="test-rescue")
    exec_pool.warm()
    payloads = [generate("markov_text", 6000, seed=s) for s in (7, 8, 9)]
    try:
        with AcceleratorPool("POWER9", chips=1, backend="software",
                             exec_pool=exec_pool) as ap:
            serial = [ap.backend_for(0).compress(
                p, strategy="auto", fmt="gzip").output for p in payloads]
            exec_pool.default_delay_s = 0.3  # jobs dwell long enough
            jobs = [ap.submit_compress(p, strategy="auto", fmt="gzip")
                    for p in payloads]
            # One worker: the first job is on it from its submit on.
            assert [j.handle.worker for j in jobs] == [0, None, None]
            exec_pool._workers[0].proc.terminate()
            ap.wait_all()
            assert [j.result.output for j in jobs] == serial
            assert all(j.error is None for j in jobs)
            assert jobs[0].handle.crashed
            assert ap.stats().rescues == 1
    finally:
        exec_pool.shutdown()


@pytest.mark.parametrize("moment", ["before_it_reads_the_task",
                                    "during_its_dwell"])
def test_a_killed_workers_job_resolves_under_steady_traffic(moment):
    """A worker killed while it holds a job — even one it has not read
    yet — fails that job at once: WorkerCrash, then a software rescue
    with the right bytes, while the other worker keeps finishing jobs.
    It does not wait for a lull in the traffic."""
    from repro.backend.pool import AcceleratorPool

    exec_pool = ProcessWorkerPool(2, name="test-killed-busy")
    exec_pool.warm()
    payload = generate("markov_text", 6000, seed=10)
    filler = generate("json_records", 3000, seed=11)
    try:
        with AcceleratorPool("POWER9", chips=1, backend="software",
                             exec_pool=exec_pool) as ap:
            expected = ap.backend_for(0).compress(
                payload, strategy="auto", fmt="gzip").output
            workers = list(exec_pool._workers.values())
            if moment == "before_it_reads_the_task":
                for worker in workers:
                    os.kill(worker.proc.pid, signal.SIGSTOP)
            exec_pool.default_delay_s = 30.0  # the victim dwells
            victim = ap.submit_compress(payload, strategy="auto",
                                        fmt="gzip")
            exec_pool.default_delay_s = 0.0
            if moment == "during_its_dwell":
                time.sleep(0.2)
            for worker in workers:
                if worker.job is victim.handle:
                    worker.proc.kill()
                else:
                    os.kill(worker.proc.pid, signal.SIGCONT)
            killed_at = time.monotonic()
            job = ap.submit_compress(filler, strategy="auto", fmt="gzip")
            while not victim.done:
                assert time.monotonic() - killed_at < 5.0, \
                    "the killed worker's job never resolved"
                ap.reap()
                if job.done:
                    job = ap.submit_compress(filler, strategy="auto",
                                             fmt="gzip")
            resolved_s = time.monotonic() - killed_at
            ap.wait_all()
            assert resolved_s < 1.5, resolved_s
            assert victim.handle.crashed
            assert victim.error is None
            assert victim.result.stats.fallback_to_software
            assert victim.result.output == expected
            assert job.result is not None and job.error is None
            assert ap.stats().rescues == 1
    finally:
        exec_pool.shutdown()
