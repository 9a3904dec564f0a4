"""One submission protocol: however a job is driven, it runs the same lines.

``NxDriver.run`` is ``submit`` + ``wait_all``.  When the two were
separate copies they drifted (the batch path never charged the dispatch
overhead, charged no backoff on a spurious CC, and left a hung engine to
the poll budget), so the contract is pinned differentially: on
identically seeded fresh drivers, under every fault kind the stack
models, both ways of driving a job give the same bytes, the same
:class:`SubmissionStats` — floats included — and the same error.
"""

import ast
import gzip
import pathlib
import zlib

import pytest

from repro import obs
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.service.core import CompressionService
from repro.sysstack import driver as driver_module
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace
from repro.sysstack.mmu import FaultInjector as PageFaults
from repro.workloads.generators import generate

JSON_4K = generate("json_records", 4096, seed=1)
COMPRESS = (Op.COMPRESS, JSON_4K, "gzip")
ALWAYS = {"probability": 1.0, "max_fires": 10_000}
_raw = zlib.compressobj(9, zlib.DEFLATED, -15)
ZEROS_RAW = _raw.compress(bytes(400_000)) + _raw.flush()

#: name -> (fault plans, page-fault probability, driver arguments,
#: window credits, the requests driven one after another).
CASES = {
    "clean": ((), 0.0, {}, None, [COMPRESS]),
    "translation_faults": ((), 0.5, {}, None, [COMPRESS] * 3),
    # A raw stream names no length: 400 KB of zeros behind 404 bytes
    # outgrow the first target, and the next is sized from the rate
    # its rolled-back block decoded at.
    "target_regrowth": ((), 0.0, {}, None,
                        [(Op.DECOMPRESS, ZEROS_RAW, "raw")]),
    "spurious_cc": ([FaultPlan("spurious_cc", at=1)], 0.0, {}, None,
                    [COMPRESS]),
    "engine_hang": ([FaultPlan("engine_hang", at=1)], 0.0, {}, None,
                    [COMPRESS]),
    "translation_storm": (
        [FaultPlan("translation_storm", at=1, magnitude=3.0)],
        0.0, {}, None, [COMPRESS]),
    # Every credit leaks: the third job finds the window wedged, spends
    # its paste budget backing off, and finishes in software.
    "credit_leak": (
        [FaultPlan("credit_leak", **ALWAYS)], 0.0,
        {"retry_policy": RetryPolicy(max_paste_retries=5)}, 2,
        [COMPRESS] * 3),
    "retry_exhaustion": ([FaultPlan("spurious_cc", **ALWAYS)], 0.0,
                         {"max_retries": 2}, None, [COMPRESS]),
    "blown_deadline": ([FaultPlan("spurious_cc", **ALWAYS)], 0.0,
                       {"deadline_s": 1e-12}, None, [COMPRESS]),
    "permanent_cc": ((), 0.0, {}, None, [(Op.DECOMPRESS, b"", "gzip")]),
    "data_error": (
        (), 0.0, {}, None,
        [(Op.DECOMPRESS, gzip.compress(JSON_4K)[:-12] + bytes(12),
          "gzip")]),
}


def drive(case: str, synchronous: bool) -> list[tuple]:
    """What each request of ``case`` came to on a fresh seeded driver:
    ``(output, stats, error type, error text)``."""
    plans, page_faults, arguments, credits, requests = CASES[case]
    accelerator = NxAccelerator(POWER9)
    FaultInjector(list(plans), seed=3).install(accelerator)
    driver = NxDriver(
        accelerator,
        AddressSpace(fault_injector=PageFaults(page_faults, seed=1)),
        **arguments)
    driver.open(credits=credits)
    endings = []
    for op, data, fmt in requests:
        output = stats = error = None
        if synchronous:
            try:
                result = driver.run(op, data, fmt=fmt)
                output, stats = result.output, result.stats
            except Exception as exc:
                error = exc
        else:
            job = driver.submit(op, data, fmt=fmt)
            driver.wait_all()
            error = job.error
            if job.result is not None:
                output, stats = job.result.output, job.result.stats
        endings.append((output, stats, type(error), str(error)))
    return endings


@pytest.mark.parametrize("case", CASES)
def test_run_equals_submit_then_wait(case):
    ran, submitted = drive(case, True), drive(case, False)
    assert ran == submitted
    # The case is what its name says, not a clean run compared twice.
    stats = [ending[1] for ending in ran if ending[1] is not None]
    errors = [ending[2].__name__ for ending in ran]
    witness = {
        "clean": lambda: stats[0].submissions == 1,
        "translation_faults": lambda: sum(
            s.translation_faults for s in stats) > 0,
        "target_regrowth": lambda: stats[0].target_overflows == 1,
        "spurious_cc": lambda: stats[0].spurious_ccs == 1,
        "engine_hang": lambda: stats[0].engine_hangs == 1,
        "translation_storm": lambda: stats[0].translation_faults == 3,
        "credit_leak": lambda: (stats[2].fallback_to_software
                                and stats[2].paste_rejections == 6),
        "retry_exhaustion": lambda: (stats[0].fallback_to_software
                                     and stats[0].submissions == 3),
        "blown_deadline": lambda: errors == ["DeadlineExceeded"],
        "permanent_cc": lambda: errors == ["JobError"],
        "data_error": lambda: errors[0] not in ("NoneType", "JobError"),
    }[case]
    assert witness(), ran


def test_clean_job_models_the_advertised_overhead():
    """Both ways charge what ``capabilities()`` advertises: submit,
    dispatch and completion overhead around the engine's busy time."""
    (_, stats, _, _), = drive("clean", synchronous=False)
    assert stats.elapsed_seconds == pytest.approx(5.299e-6, abs=1e-12)


def test_one_driver_class_one_completion_table():
    """A second class that pastes, or a second function that tells the
    completion codes apart, is the second copy coming back."""
    tree = ast.parse(pathlib.Path(driver_module.__file__).read_text())
    drivers = [node.name for node in tree.body
               if isinstance(node, ast.ClassDef)
               and any(isinstance(item, ast.FunctionDef)
                       and item.name in ("submit", "run", "poll")
                       for item in node.body)]
    assert drivers == ["NxDriver"]
    assert driver_module.AsyncNxDriver is NxDriver
    deciders = {func.name for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute)
                and node.attr == "TRANSLATION"}
    assert deciders == {"_complete"}


def test_served_request_shows_its_completion():
    """The span README names exists on the path the service takes."""
    obs.reset()
    obs.enable()
    try:
        with CompressionService(chips=1, backend="nx") as service:
            service.compress(JSON_4K, qos="interactive")
        spans = {span.span_id: span for span in obs.tracer().finished()}
    finally:
        obs.disable()
        obs.reset()

    def ancestors(span):
        while span.parent_id in spans:
            span = spans[span.parent_id]
            yield span.name

    completions = [span for span in spans.values()
                   if span.name == "csb.complete"]
    assert completions
    for span in completions:
        assert "service.request" in list(ancestors(span))
        assert span.attrs["cc"] == "SUCCESS"
