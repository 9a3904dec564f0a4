"""AcceleratorPool routing, batch submission, and driver-session safety."""

from __future__ import annotations

import gzip as stdlib_gzip
import zlib as stdlib_zlib

import pytest

from repro.backend import SOFTWARE, AcceleratorPool
from repro.errors import (AcceleratorError, ChecksumError, ConfigError,
                          DeadlineExceeded, HuffmanError, ReproError)
from repro.exec.pool import ProcessWorkerPool
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9, Z15
from repro.resilience.health import HealthConfig
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
        pool.compress(big)       # chip 0 (home) now carries 64 KB
        pool.compress(small)     # should prefer idle chip 1
        assert pool.dispatch_counts == [1, 1]


def test_size_threshold_routes_small_jobs_to_software(text_20k):
    small = b"tiny payload"
    with AcceleratorPool(POWER9, chips=2, policy="size_threshold") as pool:
        assert pool.route(len(small)) == SOFTWARE
        pool.compress(small)
        pool.compress(text_20k)
        assert pool.software_jobs == 1
        assert sum(pool.dispatch_counts) == 1
        assert pool.stats().requests == 2


def test_local_policy_pins_to_home(text_20k):
    # Every job is submitted from chip 0, the pool's home.
    with AcceleratorPool(POWER9, chips=3, policy="local") as pool:
        for _ in range(3):
            pool.compress(text_20k)
        assert pool.dispatch_counts == [3, 0, 0]


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


# -- one settle: every route classifies an ending alike ----------------------

def _bits(*fields):
    """Pack ``(value, width)`` fields LSB-first, as DEFLATE reads them."""
    acc = nbits = 0
    for value, width in fields:
        acc |= value << nbits
        nbits += width
    return acc.to_bytes((nbits + 7) // 8, "little")


def _corrupt_crc(plain):
    member = bytearray(stdlib_gzip.compress(plain))
    member[-6] ^= 0xFF
    return bytes(member)


def _oversubscribed(plain):
    """A gzip member whose one dynamic block declares all nineteen
    code-length codes one bit long."""
    body = _bits((1, 1), (2, 2), (0, 5), (0, 5), (15, 4), *[(1, 3)] * 19)
    good = stdlib_gzip.compress(plain)
    return good[:10] + body + good[-8:]


def _garbled(result):
    result.output = bytes(len(result.output))
    return result


def _flipped(result):
    """One bit of the DEFLATE body, the container around it intact."""
    output = bytearray(result.output)
    output[len(output) // 2] ^= 0x01
    result.output = bytes(output)
    return result


@pytest.fixture(scope="module")
def one_worker():
    with ProcessWorkerPool(1, name="test-one-settle") as exec_pool:
        exec_pool.warm()
        yield exec_pool


class TestOneSettle:
    """Five routes, six endings: what a job becomes, and what its ending
    costs the chip, must not depend on the road it took."""

    ROUTES = {  # name -> (machine, backend, via submit_*, on exec workers)
        "nx-sync": (POWER9, "nx", False, False),
        "dfltcc-sync": (Z15, "dfltcc", False, False),
        "nx-submit": (POWER9, "nx", True, False),
        "dfltcc-inline": (Z15, "dfltcc", True, False),
        "dfltcc-exec": (Z15, "dfltcc", True, True),
    }

    @pytest.fixture(params=list(ROUTES))
    def route(self, request, monkeypatch):
        machine, backend, submits, on_exec = self.ROUTES[request.param]
        exec_pool = (request.getfixturevalue("one_worker") if on_exec
                     else None)
        pools = []

        def run(kind, payloads, report=None, **pool_kwargs):
            """Jobs down this route of one pool, one after the other,
            the lower layer's report optionally rewritten: each job's
            ``(result, error)``, then the pool's books."""
            pool = AcceleratorPool(machine, chips=1, backend=backend,
                                   exec_pool=exec_pool, **pool_kwargs)
            pools.append(pool)
            if report is not None:
                self._rewrite(pool, monkeypatch, kind, report,
                              submits, exec_pool)
            return ([self._end(pool, kind, payload, submits)
                     for payload in payloads], self._books(pool))

        yield run
        for pool in pools:
            pool.close()

    @staticmethod
    def _rewrite(pool, monkeypatch, kind, report, submits, exec_pool):
        """The job runs; what the layer below says of it is ``report``:
        an exception, or a function of the real result."""
        backend = pool.backend_for(0)
        if exec_pool is not None:
            # The class's poll, not the instance's: the fleet outlives
            # this pool, and a second run must not rewrite twice.
            def poll(real=type(exec_pool).poll):
                finished = real(exec_pool)
                for job in finished:
                    if isinstance(report, Exception):
                        job.result, job.error = None, report
                    else:
                        report(job.result)
                return finished
            monkeypatch.setattr(exec_pool, "poll", poll)
        elif submits and hasattr(backend, "submit"):
            for name in ("poll", "wait_all"):
                def drain(real=getattr(backend, name)):
                    finished = real()
                    for pending in finished:
                        if isinstance(report, Exception):
                            pending.result, pending.error = None, report
                        else:
                            report(pending.result)
                    return finished
                monkeypatch.setattr(backend, name, drain)
        else:
            def call(*args, real=getattr(backend, kind), **kwargs):
                result = real(*args, **kwargs)
                if isinstance(report, Exception):
                    raise report
                return report(result)
            monkeypatch.setattr(backend, kind, call)

    @staticmethod
    def _end(pool, kind, payload, submits):
        result = error = None
        if submits:
            job = getattr(pool, "submit_" + kind)(payload, fmt="gzip")
            pool.wait_all()
            assert job.done
            result, error = job.result, job.error
        else:
            try:
                result = getattr(pool, kind)(payload, fmt="gzip")
            except ReproError as exc:
                error = exc
        return result, error

    @staticmethod
    def _untouched(**moved):
        """What a pool's books read when nothing but ``moved`` has."""
        return {"rescues": 0, "verify_failures": 0, "breaker_failures": 0,
                "breaker": "CLOSED", "in_flight": 0, "pending_bytes": 0,
                **moved}

    @staticmethod
    def _books(pool):
        breaker = pool.health.breakers[0]
        return {"rescues": pool.rescues,
                "verify_failures": pool.verify_failures,
                "breaker_failures": breaker.consecutive_failures,
                "breaker": breaker.state.name,
                "in_flight": pool.in_flight,
                "pending_bytes": sum(pool._pending_bytes)}

    def test_ok(self, route, text_20k):
        [(result, error)], books = route("compress", [text_20k])
        assert error is None
        assert stdlib_zlib.decompress(result.output, 31) == text_20k
        assert books == self._untouched()

    def test_chip_failure_is_rescued(self, route, text_20k):
        [(result, error)], books = route(
            "compress", [text_20k],
            AcceleratorError("injected chip failure"))
        assert error is None and result.stats.fallback_to_software
        assert stdlib_zlib.decompress(result.output, 31) == text_20k
        assert books == self._untouched(rescues=1, breaker_failures=1)

    def test_deadline_is_never_rescued(self, route, text_20k):
        injected = DeadlineExceeded("injected deadline")
        [(result, error)], books = route("compress", [text_20k], injected)
        assert result is None and error is injected
        assert books == self._untouched(breaker_failures=1)

    def test_bad_input_costs_the_chip_nothing(self, route, text_20k):
        """Eight in a row: twice what would open the breaker."""
        hostile = [(_corrupt_crc(text_20k), ChecksumError),
                   (_oversubscribed(text_20k), HuffmanError)] * 4
        endings, books = route("decompress", [p for p, _ in hostile])
        for (result, error), (_, expected) in zip(endings, hostile):
            assert result is None and type(error) is expected
        assert books == self._untouched()

    def test_verify_mismatch_is_reencoded(self, route, text_20k):
        [(result, error)], books = route("compress", [text_20k], _garbled,
                                         verify=True)
        assert error is None and result.stats.fallback_to_software
        assert stdlib_zlib.decompress(result.output, 31) == text_20k
        assert books == self._untouched(rescues=1, verify_failures=1,
                                    breaker_failures=1)

    def test_a_chip_that_corrupts_every_output_opens_its_breaker(
            self, route, text_20k):
        """Health is booked once, after the verify verdict: booking the
        clean completion first zeroed the count before every mismatch,
        and the breaker of a chip that never wrote a right byte stayed
        closed."""
        threshold = HealthConfig().failure_threshold
        payloads = [text_20k[2048 * i:2048 * (i + 1)]
                    for i in range(threshold)]
        for jobs, breaker in ((threshold - 1, "CLOSED"),
                              (threshold, "OPEN")):
            endings, books = route("compress", payloads[:jobs], _flipped,
                                   verify=True)
            for (result, error), payload in zip(endings, payloads):
                assert error is None
                assert stdlib_zlib.decompress(result.output, 31) == payload
            assert books == self._untouched(
                rescues=jobs, verify_failures=jobs, breaker_failures=jobs,
                breaker=breaker)


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
