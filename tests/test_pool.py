"""AcceleratorPool routing, batch submission, and driver-session safety."""

from __future__ import annotations

import gzip as stdlib_gzip
import zlib as stdlib_zlib

import pytest

from repro.backend import SOFTWARE, AcceleratorPool
from repro.errors import AcceleratorError, ConfigError
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9, Z15
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace
from repro.workloads.generators import generate


# -- routing policies --------------------------------------------------------

def test_round_robin_spreads_evenly(text_20k):
    with AcceleratorPool(POWER9, chips=3, policy="round_robin") as pool:
        for _ in range(6):
            result = pool.compress(text_20k)
            assert stdlib_gzip.decompress(result.output) == text_20k
        assert pool.dispatch_counts == [2, 2, 2]
        assert pool.software_jobs == 0


def test_least_loaded_balances_bytes():
    big = generate("json_records", 65536, seed=5)
    small = generate("json_records", 4096, seed=6)
    with AcceleratorPool(POWER9, chips=2, policy="least_loaded") as pool:
        pool.compress(big, home=0)       # chip 0 now carries 64 KB
        pool.compress(small, home=0)     # should prefer idle chip 1
        assert pool.dispatch_counts == [1, 1]


def test_size_threshold_routes_small_jobs_to_software(text_20k):
    small = b"tiny payload"
    with AcceleratorPool(POWER9, chips=2, policy="size_threshold",
                         software_threshold=16384) as pool:
        assert pool.route(len(small)) == SOFTWARE
        pool.compress(small)
        pool.compress(text_20k)
        assert pool.software_jobs == 1
        assert sum(pool.dispatch_counts) == 1
        assert pool.stats().requests == 2


def test_local_policy_pins_to_home(text_20k):
    with AcceleratorPool(POWER9, chips=3, policy="local") as pool:
        for _ in range(3):
            pool.compress(text_20k, home=1)
        assert pool.dispatch_counts == [0, 3, 0]


def test_pool_validates_configuration():
    with pytest.raises(ConfigError, match="policy"):
        AcceleratorPool(POWER9, chips=2, policy="weighted")
    with pytest.raises(ConfigError, match="chip"):
        AcceleratorPool(POWER9, chips=0)


def test_pool_over_dfltcc_backend(text_20k):
    """Synchronous backends work behind the same pool surface."""
    with AcceleratorPool(Z15, chips=2, policy="round_robin") as pool:
        assert pool.backend_name == "dfltcc"
        jobs = [pool.submit_compress(text_20k) for _ in range(4)]
        results = pool.wait_all()
        assert all(job.done for job in jobs)
        assert [stdlib_gzip.decompress(r.output) for r in results] \
            == [text_20k] * 4
        assert pool.dispatch_counts == [2, 2]


# -- asynchronous batch submission -------------------------------------------

def test_batch_submission_preserves_order():
    payloads = [generate("markov_text", 8192 + 1024 * i, seed=20 + i)
                for i in range(6)]
    with AcceleratorPool(POWER9, chips=3, policy="round_robin") as pool:
        jobs = [pool.submit_compress(data) for data in payloads]
        assert pool.in_flight == 6
        results = pool.wait_all()
        assert pool.in_flight == 0
        assert all(job.done for job in jobs)
        for data, result in zip(payloads, results):
            assert stdlib_gzip.decompress(result.output) == data


def test_poll_drains_incrementally(text_20k):
    with AcceleratorPool(POWER9, chips=2, policy="round_robin") as pool:
        pool.submit_compress(text_20k)
        pool.submit_compress(text_20k)
        finished = pool.poll()
        # The modelled drain completes pasted work, so poll returns jobs
        # with results attached and accounted.
        assert all(job.result is not None for job in finished)
        pool.wait_all()
        assert pool.stats().requests == 2


def test_submit_poll_retains_nothing():
    """A caller driving the pool with submit + poll must not leak jobs
    (and their payloads) into the open list."""
    with AcceleratorPool(POWER9, chips=1) as pool:
        seen = 0
        for i in range(1000):
            pool.submit_compress(b"%04d" % i * 16)
            seen += len(pool.poll())
        assert seen == 1000
        assert len(pool._open) == pool.in_flight == 0


def test_wait_all_lists_only_what_is_still_open(text_20k):
    with AcceleratorPool(Z15, chips=1) as pool:
        first = pool.submit_compress(text_20k)
        assert pool.poll() == [first]  # handed over, forgotten
        later = [pool.submit_compress(text_20k[:n]) for n in (500, 900)]
        assert pool.wait_all() == [job.result for job in later]
        assert pool.wait_all() == []


# -- software rescue runs the request that failed ------------------------------

@pytest.mark.parametrize("backend,machine", [("nx", POWER9),
                                             ("dfltcc", Z15)])
def test_rescued_continuation_unit_stays_one(backend, machine, text_20k,
                                             monkeypatch):
    """Three continuation units, the middle one rescued in software: it
    must come back primed with the window and without a final block, or
    a decoder stops — silently, ``eof`` set — at the end of it."""
    p1, p2, p3 = text_20k[:7000], text_20k[7000:13000], text_20k[13000:]
    with AcceleratorPool(machine, chips=1, backend=backend) as pool:
        u1 = pool.compress(p1, fmt="raw", final=False).output
        if backend == "nx":
            # A job pasted on the chip: the driver refuses a
            # synchronous run (JobError) until it is collected.
            pool.submit_compress(b"in flight" * 64, fmt="raw")
        else:
            def broken(*args, **kwargs):
                raise AcceleratorError("injected chip failure")
            monkeypatch.setattr(pool.backend_for(0), "_compress", broken)
        u2 = pool.compress(p2, fmt="raw", history=p1, final=False)
        assert pool.rescues == 1 and u2.stats.fallback_to_software
        monkeypatch.undo()
        pool.wait_all()
        u3 = pool.compress(p3, fmt="raw", history=p1 + p2).output
        assert pool.rescues == 1
    inflater = stdlib_zlib.decompressobj(-15)
    assert inflater.decompress(u1 + u2.output + u3) == p1 + p2 + p3
    assert inflater.eof and inflater.unused_data == b""


# -- capacity planning (DES view of the same policies) ------------------------

@pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
def test_simulate_load_runs_per_policy(policy):
    pool = AcceleratorPool(POWER9, chips=4, policy=policy)
    result = pool.simulate_load([0.9, 0.1, 0.1, 0.1], duration_s=0.05)
    assert result.jobs
    assert result.mean_latency > 0.0
    assert result.throughput_gbps > 0.0
    pool.close()


def test_simulate_load_rejects_size_threshold():
    pool = AcceleratorPool(POWER9, chips=2, policy="size_threshold")
    with pytest.raises(ConfigError, match="size_threshold"):
        pool.simulate_load([0.5, 0.5], duration_s=0.01)
    pool.close()


# -- driver session safety (idempotent open / repeat-safe close) --------------

def test_driver_open_is_idempotent():
    accelerator = NxAccelerator(POWER9)
    driver = NxDriver(accelerator, AddressSpace())
    driver.open()
    window_id = driver._window_id
    assert len(accelerator.vas.windows) == 1
    driver.open()                       # no second window, same id
    assert driver._window_id == window_id
    assert len(accelerator.vas.windows) == 1
    driver.close()
    assert len(accelerator.vas.windows) == 0
    driver.close()                      # repeat close is a no-op
    assert len(accelerator.vas.windows) == 0


def test_driver_reopen_after_close_allocates_fresh_window():
    accelerator = NxAccelerator(POWER9)
    driver = NxDriver(accelerator, AddressSpace())
    driver.open()
    driver.close()
    driver.open()
    assert len(accelerator.vas.windows) == 1
    driver.close()
