"""The z15 synchronous backend: the DFLTCC instruction re-issue loop.

This is the zlib-dfltcc shape: the deflate *body* is produced by the
accelerator (CMPR invocations re-issued while CC=3, the CPU-determined
completion), while the RFC 1950/1952 container framing stays in
software — exactly how the s390 zlib patch wraps the instruction.
Expansion skips the container header, runs XPND on a first operand
sized from the member's own ISIZE (growing it on CC=1), and verifies
the trailer XPND stopped at against the parameter block's running
check value.
"""

from __future__ import annotations

from dataclasses import replace

from ..deflate.containers import (FORMATS, body_start, checksum,
                                  decompress_target_len, frame,
                                  require_format, verify_trailer)
from ..errors import AcceleratorError
from ..nx.dht import DhtStrategy, canned_names
from ..nx.params import Z15, MachineParams, get_machine
from ..nx.z15 import ConditionCode, Dfltcc, ParameterBlock
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from ..perf.cost import accelerator_effective_gbps
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import BackendCapabilities, CompressionBackend


class DfltccBackend(CompressionBackend):
    """One CPU's view of the on-chip zEDC accelerator (synchronous)."""

    name = "dfltcc"

    def __init__(self, machine: MachineParams | str = Z15,
                 quantum: int = 1 << 20) -> None:
        super().__init__()
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine = machine
        # Raises AcceleratorError if the machine has no DFLTCC facility.
        self._facility = Dfltcc(machine=machine, processing_quantum=quantum)
        self._caps = BackendCapabilities(
            name=self.name,
            formats=FORMATS,
            strategies=tuple(s.value for s in DhtStrategy),
            synchronous=True,
            hardware=True,
            streaming=True,
            compress_gbps=accelerator_effective_gbps(machine, "compress"),
            decompress_gbps=accelerator_effective_gbps(machine,
                                                       "decompress"),
            per_call_overhead_s=(machine.submit_overhead_us
                                 + machine.dispatch_overhead_us) * 1e-6,
        )

    def capabilities(self) -> BackendCapabilities:
        # Recomputed per call: the dictionary service may push trained
        # canned tables after this backend was constructed.
        return replace(self._caps,
                       canned_dicts=tuple(
                           canned_names(include_trained=True)))

    # -- implementation ------------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool) -> DriverResult:
        require_format(fmt, history, final)
        block = ParameterBlock(dht_strategy=DhtStrategy(strategy),
                               history=history)
        body = bytearray()
        seconds = 0.0
        invocations = 0
        offset = 0
        while True:
            result = self._facility.compress(block, data[offset:],
                                             last=final)
            body += result.produced
            seconds += result.seconds
            invocations += 1
            offset += result.consumed
            if result.cc is ConditionCode.DONE:
                break
            if result.cc is not ConditionCode.PARTIAL:
                raise AcceleratorError(f"unexpected CC {result.cc!r}")
        if _TRACE.enabled and invocations > 1:
            # The CC=3 re-issue loop: how many CMPR issues this job took.
            _TRACE.event("dfltcc.reissue", invocations=invocations)
        if _REGISTRY.enabled:
            _REGISTRY.counter("repro_backend_dfltcc_invocations_total",
                              "DFLTCC instruction issues").inc(
                invocations, fn="cmpr")
        # The facility accumulated the CRC-32 chunk by chunk in the
        # parameter block: gzip makes no second pass over the input.
        output = frame(fmt, bytes(body),
                       checksum(fmt, data, crc=block.check_value),
                       block.total_in)
        stats = SubmissionStats(submissions=invocations,
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    def _decompress(self, payload: bytes, fmt: str,
                    history: bytes) -> DriverResult:
        header, window = body_start(fmt, payload, zdict=history)
        body = payload[header:]
        block = ParameterBlock(history=window)
        capacity = decompress_target_len(payload, fmt)
        invocations = 0
        while True:
            result = self._facility.expand(block, body,
                                           out_capacity=capacity)
            invocations += 1
            if result.cc is ConditionCode.DONE:
                break
            if result.cc is ConditionCode.OP1_FULL:
                if _TRACE.enabled:
                    _TRACE.event("overflow.target", length=capacity)
                capacity *= 2
                continue
            raise AcceleratorError(f"unexpected CC {result.cc!r}")
        # The trailer XPND stopped at, against the check value the
        # facility accumulated while expanding (gzip: no second pass).
        verify_trailer(fmt, payload, header + result.consumed,
                       checksum(fmt, result.produced,
                                crc=block.check_value),
                       len(result.produced))
        if _REGISTRY.enabled:
            _REGISTRY.counter("repro_backend_dfltcc_invocations_total",
                              "DFLTCC instruction issues").inc(
                invocations, fn="xpnd")
        stats = SubmissionStats(submissions=invocations,
                                elapsed_seconds=result.seconds)
        return DriverResult(output=result.produced, csb=None, stats=stats)

