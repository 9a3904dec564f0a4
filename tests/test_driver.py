"""Driver: submit/poll/retry loop, fault fixup, fallback, accounting."""

import zlib as stdzlib

import pytest

from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace, FaultInjector


def make_driver(fault_probability=0.0, seed=0, max_retries=8):
    space = AddressSpace(
        fault_injector=FaultInjector(fault_probability, seed=seed))
    accel = NxAccelerator(POWER9)
    driver = NxDriver(accel, space, max_retries=max_retries)
    driver.open()
    return driver


class TestHappyPath:
    def test_compress(self, text_20k):
        driver = make_driver()
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k
        assert result.stats.submissions == 1
        assert not result.stats.fallback_to_software

    def test_decompress(self, text_20k):
        driver = make_driver()
        comp = driver.run(Op.COMPRESS, text_20k)
        decomp = driver.run(Op.DECOMPRESS, comp.output)
        assert decomp.output == text_20k

    def test_gzip_format_via_driver(self, json_20k):
        import gzip as stdgzip

        driver = make_driver()
        result = driver.run(Op.COMPRESS, json_20k, fmt="gzip")
        assert stdgzip.decompress(result.output) == json_20k

    def test_elapsed_includes_overheads(self, text_20k):
        driver = make_driver()
        result = driver.run(Op.COMPRESS, text_20k)
        machine = POWER9
        floor = (machine.submit_overhead_us + machine.dispatch_overhead_us
                 + machine.completion_overhead_us) * 1e-6
        assert result.stats.elapsed_seconds > floor


class TestFaultRetry:
    def test_faults_retried_to_success(self, text_20k):
        driver = make_driver(fault_probability=0.02, seed=3)
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k
        assert result.stats.submissions >= 1

    def test_fault_costs_time(self, text_20k):
        clean = make_driver().run(Op.COMPRESS, text_20k)
        # seed chosen so at least one fault fires on this run
        for seed in range(20):
            faulty_driver = make_driver(fault_probability=0.05, seed=seed)
            faulty = faulty_driver.run(Op.COMPRESS, text_20k)
            if faulty.stats.translation_faults:
                assert (faulty.stats.elapsed_seconds
                        > clean.stats.elapsed_seconds)
                return
        pytest.fail("no fault fired across seeds")

    def test_fallback_after_retry_budget(self, text_20k):
        driver = make_driver(fault_probability=1.0, max_retries=2)
        result = driver.run(Op.COMPRESS, text_20k)
        assert result.stats.fallback_to_software
        assert result.csb is None
        # Software fallback output is still a valid raw deflate stream.
        assert stdzlib.decompress(result.output, -15) == text_20k

    def test_fallback_decompress(self, text_20k):
        clean = make_driver()
        comp = clean.run(Op.COMPRESS, text_20k)
        driver = make_driver(fault_probability=1.0, max_retries=1)
        result = driver.run(Op.DECOMPRESS, comp.output)
        assert result.stats.fallback_to_software
        assert result.output == text_20k


class TestTargetGrowth:
    def test_incompressible_grows_target(self, random_8k):
        driver = make_driver()
        # Force a too-small first target by compressing incompressible
        # data: output ~= input * 1.0006 > input, first target is 1.3x
        # so this normally fits; shrink via a tiny target factor instead.
        source, target, csb_va = driver.prepare_buffers(random_8k)
        assert target.length >= len(random_8k)

    def test_overflow_retry_succeeds(self, random_8k, monkeypatch):
        driver = make_driver()
        original = driver.prepare_buffers

        def tiny_target(data, target_len=None):
            source, _target, csb_va = original(data, target_len)
            from repro.sysstack.dde import Dde

            small = Dde.direct(driver.space.alloc(256), 256)
            return source, small, csb_va

        monkeypatch.setattr(driver, "prepare_buffers", tiny_target)
        result = driver.run(Op.COMPRESS, random_8k)
        assert result.stats.target_overflows >= 1
        assert stdzlib.decompress(result.output, -15) == random_8k


class TestWindowLifecycle:
    def test_close_releases_window(self, text_20k):
        driver = make_driver()
        driver.run(Op.COMPRESS, text_20k)
        driver.close()
        assert driver._window_id is None

    def test_run_reopens_after_close(self, text_20k):
        driver = make_driver()
        driver.close()
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k
