"""Asynchronous batch submission: submit/poll/wait_all."""

import zlib as stdzlib

import pytest

from repro.errors import JobError
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace, FaultInjector
from repro.workloads.generators import generate


def make_async(fault_probability=0.0, seed=0, credits=None):
    space = AddressSpace(
        fault_injector=FaultInjector(fault_probability, seed=seed))
    driver = NxDriver(NxAccelerator(POWER9), space)
    driver.open(credits=credits)
    return driver


class TestBatch:
    def test_many_jobs_one_poll(self):
        driver = make_async()
        payloads = [generate("json_records", 8000 + i * 500, seed=i)
                    for i in range(6)]
        jobs = [driver.submit(Op.COMPRESS, p) for p in payloads]
        assert driver.in_flight == 6
        done = driver.wait_all()
        assert len(done) == 6
        assert driver.in_flight == 0
        for job, payload in zip(jobs, payloads):
            assert job.done
            assert stdzlib.decompress(job.result.output, -15) == payload

    def test_fifo_completion_order(self):
        driver = make_async()
        jobs = [driver.submit(Op.COMPRESS,
                              generate("markov_text", 4000, seed=i))
                for i in range(4)]
        done = driver.wait_all()
        assert [j.sequence for j in done] == [j.sequence for j in jobs]

    def test_mixed_ops(self, text_20k):
        driver = make_async()
        comp_job = driver.submit(Op.COMPRESS, text_20k)
        driver.wait_all()
        decomp_job = driver.submit(Op.DECOMPRESS, comp_job.result.output)
        driver.wait_all()
        assert decomp_job.result.output == text_20k

    def test_credit_backpressure_self_drains(self):
        driver = make_async(credits=2)
        payloads = [generate("log_lines", 6000, seed=i) for i in range(8)]
        jobs = [driver.submit(Op.COMPRESS, p) for p in payloads]
        driver.wait_all()
        assert all(job.done for job in jobs)
        rejections = sum(job.stats.paste_rejections for job in jobs)
        assert rejections > 0  # the window did run out of credits

    def test_poll_without_jobs(self):
        driver = make_async()
        assert driver.poll() == []

    def test_faults_handled_during_poll(self, text_20k):
        driver = make_async(fault_probability=0.05, seed=13)
        jobs = [driver.submit(Op.COMPRESS, text_20k) for _ in range(5)]
        driver.wait_all()
        for job in jobs:
            assert stdzlib.decompress(job.result.output, -15) == text_20k
        total_faults = sum(job.stats.translation_faults for job in jobs)
        assert total_faults >= 0  # protocol converged regardless

    def test_sync_run_refused_with_pending(self, text_20k):
        driver = make_async()
        driver.submit(Op.COMPRESS, text_20k)
        with pytest.raises(JobError):
            driver.run(Op.COMPRESS, text_20k)
        driver.wait_all()
        result = driver.run(Op.COMPRESS, text_20k)
        assert stdzlib.decompress(result.output, -15) == text_20k

    def test_per_job_stats_isolated(self):
        driver = make_async()
        small = driver.submit(Op.COMPRESS,
                              generate("markov_text", 2000, seed=1))
        large = driver.submit(Op.COMPRESS,
                              generate("markov_text", 60000, seed=2))
        driver.wait_all()
        assert large.stats.elapsed_seconds > small.stats.elapsed_seconds
