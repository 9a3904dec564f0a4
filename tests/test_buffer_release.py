"""Every request gives its buffers back: ``AddressSpace`` stays level.

The driver allocates source, target, CSB (and history) pages per request;
each exit path — success, regrowth, permanent CC, deadline, software
fallback, decode error, cancellation — must free them after the output
has been read, on the synchronous and the asynchronous path alike.
"""

import gzip as stdgzip
import random
import zlib as stdzlib

import pytest

from repro.backend import AcceleratorPool, create_backend
from repro.errors import (ChecksumError, DeadlineExceeded, JobError,
                          TranslationFault)
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.resilience import faults
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver, first_target_len
from repro.sysstack.mmu import PAGE_SIZE, AddressSpace, FaultInjector
from repro.workloads.generators import generate


def make_driver(fault_probability=0.0, seed=0, max_retries=8, credits=None):
    space = AddressSpace(
        fault_injector=FaultInjector(fault_probability, seed=seed))
    driver = NxDriver(NxAccelerator(POWER9), space,
                      max_retries=max_retries)
    driver.open(credits=credits)
    return driver


def _low_hint_member(plain: bytes) -> bytes:
    """A member followed by a tiny one: the ISIZE hint lies low, so the
    first target overflows and the driver takes the regrowth path."""
    return stdgzip.compress(plain) + stdgzip.compress(b"!")


def _mixed_requests(count: int):
    """``count`` (op, payload, fmt, expected) tuples, one forced overflow."""
    rng = random.Random(12)
    families = ("json_records", "log_lines", "random_bytes", "source_code")
    for i in range(count):
        plain = generate(families[i % len(families)],
                         rng.randrange(200, 4000), seed=i)
        if i == count // 2:
            yield (Op.DECOMPRESS, _low_hint_member(plain * 4), "gzip",
                   plain * 4 + b"!")
        elif i % 2:
            yield Op.DECOMPRESS, stdgzip.compress(plain), "gzip", plain
        else:
            yield Op.COMPRESS, plain, "gzip", plain


class TestAddressSpaceFree:
    def test_free_unmaps_and_never_reuses(self):
        space = AddressSpace()
        va = space.alloc(3 * PAGE_SIZE)
        space.write(va, b"abc")
        space.free(va, 3 * PAGE_SIZE)
        assert not space.pages
        with pytest.raises(TranslationFault):
            space.read(va, 3)
        with pytest.raises(TranslationFault):
            space.dma_read(va, 3)
        assert space.alloc(10) > va  # the stale address stays dead

    def test_free_mirrors_alloc_rounding(self):
        space = AddressSpace()
        for size in (0, 1, PAGE_SIZE, PAGE_SIZE + 1):
            space.free(space.alloc(size), size)
        assert not space.pages

    def test_double_free_faults(self):
        space = AddressSpace()
        va = space.alloc(10)
        space.free(va, 10)
        with pytest.raises(TranslationFault):
            space.free(va, 10)


class TestMixedTraffic:
    def test_sync_200_requests_leave_pages_level(self):
        driver = make_driver(fault_probability=0.03, seed=5)
        baseline = len(driver.space.pages)
        faults = overflows = 0
        for op, payload, fmt, plain in _mixed_requests(200):
            result = driver.run(op, payload, fmt=fmt)
            faults += result.stats.translation_faults
            overflows += result.stats.target_overflows
            out = result.output
            assert (stdgzip.decompress(out) if op is Op.COMPRESS
                    else out) == plain
            assert len(driver.space.pages) == baseline
        assert faults > 0 and overflows > 0

    def test_async_200_requests_leave_pages_level(self):
        driver = make_driver(fault_probability=0.03, seed=6)
        baseline = len(driver.space.pages)
        requests = list(_mixed_requests(200))
        faults = overflows = 0
        for start in range(0, len(requests), 8):
            batch = requests[start:start + 8]
            jobs = [driver.submit(op, payload, fmt=fmt)
                    for op, payload, fmt, _plain in batch]
            driver.wait_all()
            for job, (op, _payload, _fmt, plain) in zip(jobs, batch):
                out = job.result.output
                assert (stdgzip.decompress(out) if op is Op.COMPRESS
                        else out) == plain
                faults += job.stats.translation_faults
                overflows += job.stats.target_overflows
            assert len(driver.space.pages) == baseline
        assert faults > 0 and overflows > 0


class TestSyncExitPaths:
    def test_regrowth_frees_the_outgrown_target(self, text_20k):
        driver = make_driver()
        result = driver.run(Op.DECOMPRESS, _low_hint_member(text_20k),
                            fmt="gzip")
        assert result.output == text_20k + b"!"
        assert result.stats.target_overflows >= 1
        assert not driver.space.pages

    def test_history_buffer_is_freed(self, text_20k):
        driver = make_driver()
        packed = driver.run(Op.COMPRESS, text_20k, history=text_20k[:4096])
        driver.run(Op.DECOMPRESS, packed.output, history=text_20k[:4096])
        assert not driver.space.pages

    def test_permanent_cc(self):
        driver = make_driver()
        with pytest.raises(JobError):
            driver.run(Op.DECOMPRESS, b"")
        assert not driver.space.pages

    def test_deadline(self, text_20k):
        driver = make_driver(fault_probability=1.0)
        with pytest.raises(DeadlineExceeded):
            driver.run(Op.COMPRESS, text_20k, deadline_s=1e-9)
        assert not driver.space.pages

    def test_software_fallback(self, text_20k):
        driver = make_driver(fault_probability=1.0, max_retries=2)
        result = driver.run(Op.COMPRESS, text_20k)
        assert result.stats.fallback_to_software
        assert stdzlib.decompress(result.output, -15) == text_20k
        assert not driver.space.pages

    def test_decode_error(self, text_20k):
        driver = make_driver()
        member = bytearray(stdgzip.compress(text_20k))
        member[-6] ^= 0xFF  # inside the CRC-32
        with pytest.raises(ChecksumError):
            driver.run(Op.DECOMPRESS, bytes(member), fmt="gzip")
        assert not driver.space.pages
        driver.close()  # the failed job's credit came back too

    @pytest.mark.parametrize("field", ["strategy", "fmt"])
    def test_refused_function_code_files_nothing(self, field, text_20k):
        """A CRB the engine cannot encode fails before it is filed: no
        job left in flight to wedge the next ``run``, no page mapped."""
        driver = make_driver()
        for _ in range(2):
            with pytest.raises(JobError, match="bad"):
                driver.run(Op.COMPRESS, text_20k, **{field: "bogus"})
            assert driver.in_flight == 0
            assert not driver.space.pages
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k
        assert not driver.space.pages
        driver.close()


class TestAsyncExitPaths:
    def test_permanent_cc_and_neighbours(self, text_20k):
        driver = make_driver()
        bad = driver.submit(Op.DECOMPRESS, b"")
        good = driver.submit(Op.COMPRESS, text_20k)
        driver.wait_all()
        assert isinstance(bad.error, JobError)
        assert stdzlib.decompress(good.result.output, -15) == text_20k
        assert not driver.space.pages

    def test_decode_error_and_neighbours(self, text_20k):
        """A corrupt stream between two good jobs on one window fails
        itself; the drain it shared still delivers its neighbours."""
        driver = make_driver()
        member = bytearray(stdgzip.compress(text_20k))
        member[-6] ^= 0xFF  # inside the CRC-32
        before = driver.submit(Op.COMPRESS, text_20k)
        bad = driver.submit(Op.DECOMPRESS, bytes(member), fmt="gzip")
        after = driver.submit(Op.COMPRESS, text_20k[::-1])
        driver.wait_all()
        assert before.done and bad.done and after.done
        assert isinstance(bad.error, ChecksumError) and bad.result is None
        assert stdzlib.decompress(before.result.output, -15) == text_20k
        assert stdzlib.decompress(after.result.output, -15) == text_20k[::-1]
        assert driver.in_flight == 0
        assert not driver.space.pages
        driver.close()  # every credit came back

    def test_deadline(self, text_20k):
        driver = make_driver(fault_probability=1.0)
        job = driver.submit(Op.COMPRESS, text_20k, deadline_s=1e-9)
        driver.wait_all()
        assert isinstance(job.error, DeadlineExceeded)
        assert not driver.space.pages

    def test_software_fallback_keeps_history_and_final(self, text_20k):
        driver = make_driver(fault_probability=1.0, max_retries=2)
        history = text_20k[:4096]
        job = driver.submit(Op.COMPRESS, text_20k[4096:], history=history,
                            final=False)
        driver.wait_all()
        assert job.result.stats.fallback_to_software
        inflater = stdzlib.decompressobj(-15, zdict=history)
        assert inflater.decompress(job.result.output) == text_20k[4096:]
        assert not inflater.eof  # a continuation unit: no final block
        assert not driver.space.pages

    @pytest.mark.parametrize("via", ["driver", "pool"])
    @pytest.mark.parametrize("fmt,wbits", [("raw", -15), ("zlib", 15)])
    def test_decompress_takeover_keeps_the_window(self, fmt, wbits, via,
                                                  text_20k):
        """The engine expands the unit (the window rides in the history
        DDE); the software that takes the job over must get it too —
        from the driver when retries run out, from the pool when the
        chip refuses the job."""
        window, plain = text_20k[:8000], text_20k[8000:]
        packer = stdzlib.compressobj(6, stdzlib.DEFLATED, wbits,
                                     zdict=window)
        unit = packer.compress(plain) + packer.flush()
        if via == "driver":
            with create_backend("nx") as backend:
                faults.FaultInjector(
                    [faults.FaultPlan("spurious_cc", probability=1.0)]
                ).install(backend.accelerator)
                result = backend.decompress(unit, fmt=fmt, history=window)
                assert not backend.space.pages
        else:
            with AcceleratorPool(POWER9, chips=1, backend="nx") as pool:
                # A job pasted on the chip: the driver refuses a
                # synchronous run until it is collected.
                pool.submit_compress(b"in flight" * 64, fmt="raw")
                result = pool.decompress(unit, fmt=fmt, history=window)
                assert pool.rescues == 1
                pool.wait_all()
        assert result.stats.fallback_to_software
        assert result.output == plain

    def test_cancel_pending(self, text_20k):
        driver = make_driver()
        jobs = [driver.submit(Op.COMPRESS, text_20k) for _ in range(3)]
        cancelled = driver.cancel_pending()
        assert cancelled == jobs and all(job.failed for job in jobs)
        assert not driver.space.pages
        assert driver.in_flight == 0


class TestOneSizing:
    """Sync ``run`` and async ``submit`` stage a request identically."""

    @pytest.mark.parametrize("op,fmt,wbits", [(Op.COMPRESS, "raw", None),
                                              (Op.COMPRESS, "gzip", None),
                                              (Op.COMPRESS_842, "raw", None),
                                              (Op.DECOMPRESS, "gzip", 31),
                                              (Op.DECOMPRESS, "zlib", 15),
                                              (Op.DECOMPRESS, "raw", -15)])
    def test_same_first_target(self, op, fmt, wbits, text_20k, monkeypatch):
        payload = text_20k
        if wbits is not None:
            packer = stdzlib.compressobj(6, stdzlib.DEFLATED, wbits)
            payload = packer.compress(text_20k) + packer.flush()
        driver = make_driver()
        sizes = []
        real = driver.prepare_buffers

        def spy(data, target_len=None):
            sizes.append(target_len)
            return real(data, target_len)

        monkeypatch.setattr(driver, "prepare_buffers", spy)
        driver.submit(op, payload, fmt=fmt)
        driver.wait_all()
        driver.run(op, payload, fmt=fmt)
        assert sizes == [first_target_len(op, payload, fmt)] * 2

    def test_async_carries_history(self, text_20k):
        driver = make_driver()
        history = text_20k[:8192]
        sync = driver.run(Op.COMPRESS, text_20k[8192:], strategy="fixed",
                          history=history, final=False)
        job = driver.submit(Op.COMPRESS, text_20k[8192:], strategy="fixed",
                            history=history, final=False)
        driver.wait_all()
        assert job.result.output == sync.output
        back = driver.submit(Op.DECOMPRESS, sync.output + b"\x03\x00",
                             history=history)
        driver.wait_all()
        assert back.result.output == text_20k[8192:]
