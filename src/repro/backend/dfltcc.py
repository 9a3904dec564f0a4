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

import struct
from dataclasses import replace

from ..deflate.checksums import adler32
from ..deflate.containers import (decompress_target_len, frame_gzip,
                                  gzip_header_length, wrap_zlib)
from ..errors import AcceleratorError, ChecksumError, ConfigError, \
    DeflateError
from ..nx.dht import DhtStrategy, canned_names
from ..nx.params import Z15, MachineParams, get_machine
from ..nx.z15 import ConditionCode, Dfltcc, ParameterBlock
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from ..perf.cost import accelerator_effective_gbps
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import BackendCapabilities, CompressionBackend

_FORMATS = ("gzip", "zlib", "raw")


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
            formats=_FORMATS,
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
        if fmt not in _FORMATS:
            raise ConfigError(f"dfltcc backend does not produce {fmt!r}")
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
        if fmt == "raw":
            output = bytes(body)
        elif history or not final:
            raise ConfigError(
                f"{fmt!r} container requires a whole stream; "
                "use fmt='raw' for continuation units")
        elif fmt == "zlib":
            output = wrap_zlib(bytes(body), data)
        else:
            # The facility accumulated the CRC-32 chunk by chunk in the
            # parameter block: no second pass over the input.
            output = frame_gzip(bytes(body), block.check_value,
                                block.total_in)
        stats = SubmissionStats(submissions=invocations,
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    def _decompress(self, payload: bytes, fmt: str,
                    history: bytes) -> DriverResult:
        if fmt not in _FORMATS:
            raise ConfigError(f"dfltcc backend does not decode {fmt!r}")
        header = _header_length(payload, fmt)
        body = payload[header:]
        block = ParameterBlock(history=history)
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
        _verify_trailer(payload, header + result.consumed, result.produced,
                        block.check_value, fmt)
        if _REGISTRY.enabled:
            _REGISTRY.counter("repro_backend_dfltcc_invocations_total",
                              "DFLTCC instruction issues").inc(
                invocations, fn="xpnd")
        stats = SubmissionStats(submissions=invocations,
                                elapsed_seconds=result.seconds)
        return DriverResult(output=result.produced, csb=None, stats=stats)


def _header_length(payload: bytes, fmt: str) -> int:
    """Bytes of container framing in front of the raw deflate body."""
    if fmt == "raw":
        return 0
    if fmt == "zlib":
        if len(payload) < 6:
            raise DeflateError("zlib stream too short")
        return 2
    return gzip_header_length(payload)


def _verify_trailer(payload: bytes, tail: int, output: bytes,
                    check_value: int, fmt: str) -> None:
    """Check the container trailer at ``tail`` (where XPND stopped).

    gzip compares the CRC-32 the facility accumulated in the parameter
    block while expanding — no second pass over the plaintext.
    """
    if fmt == "zlib":
        if tail + 4 > len(payload):
            raise DeflateError("zlib stream truncated before Adler-32")
        (expected,) = struct.unpack_from(">I", payload, tail)
        if adler32(output) != expected:
            raise ChecksumError("zlib Adler-32 mismatch")
    elif fmt == "gzip":
        if tail + 8 > len(payload):
            raise DeflateError("gzip stream truncated before trailer")
        expected_crc, isize = struct.unpack_from("<II", payload, tail)
        if check_value != expected_crc:
            raise ChecksumError("gzip CRC-32 mismatch")
        if (len(output) & 0xFFFFFFFF) != isize:
            raise ChecksumError("gzip ISIZE mismatch")
