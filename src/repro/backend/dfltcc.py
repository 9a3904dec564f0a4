"""The z15 synchronous backend: the DFLTCC instruction re-issue loop.

This is the zlib-dfltcc shape: the deflate *body* is produced by the
accelerator (CMPR invocations re-issued while CC=3, the CPU-determined
completion), while the RFC 1950/1952 container framing stays in
software — exactly how the s390 zlib patch wraps the instruction.
Expansion skips the container header, runs XPND on a first operand
sized from the ISIZE trailer (growing it on CC=1), and verifies the
trailer XPND stopped at against the parameter block's running check
value; a gzip archive is expanded member by member that way.
"""

from __future__ import annotations

from ..deflate.containers import (FORMATS, body_start, checksum,
                                  decompress_target_len, frame,
                                  member_follows, require_format,
                                  verify_trailer)
from ..nx.dht import CannedLibrary, DhtStrategy
from ..nx.params import Z15, MachineParams, get_machine
from ..nx.z15 import Dfltcc, ParameterBlock, cmpr_loop, xpnd_loop
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
            synchronous=True,
            hardware=True,
            compress_gbps=accelerator_effective_gbps(machine, "compress"),
            decompress_gbps=accelerator_effective_gbps(machine,
                                                       "decompress"),
            per_call_overhead_s=(machine.submit_overhead_us
                                 + machine.dispatch_overhead_us) * 1e-6,
        )

    # -- implementation ------------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool,
                  library: CannedLibrary) -> DriverResult:
        require_format(fmt, history, final)
        block = ParameterBlock(dht_strategy=DhtStrategy(strategy),
                               history=history, library=library)
        body, seconds, invocations = cmpr_loop(self._facility, block, data,
                                               last=final)
        # The facility accumulated the CRC-32 chunk by chunk in the
        # parameter block: gzip makes no second pass over the input.
        output = frame(fmt, body,
                       checksum(fmt, data, crc=block.check_value),
                       block.total_in)
        stats = SubmissionStats(submissions=invocations,
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    def _decompress(self, payload: bytes, fmt: str,
                    history: bytes) -> DriverResult:
        capacity = decompress_target_len(payload, fmt)
        parts: list[bytes] = []
        seconds, invocations, end = 0.0, 0, 0
        while True:
            # XPND expands one raw stream: each gzip member is its own
            # operation with a fresh parameter block.
            header, window = body_start(fmt, payload, end, zdict=history)
            block = ParameterBlock(history=window)
            result, issues = xpnd_loop(self._facility, block,
                                       payload[header:], capacity)
            # The trailer XPND stopped at, against the check value the
            # facility accumulated while expanding (gzip: no second pass).
            end = verify_trailer(fmt, payload, header + result.consumed,
                                 checksum(fmt, result.produced,
                                          crc=block.check_value),
                                 len(result.produced))
            parts.append(result.produced)
            # The ISIZE hint is the last member's: a later member starts
            # from the largest target an earlier one needed.
            capacity = max(capacity, len(result.produced))
            seconds += result.seconds
            invocations += issues
            if not member_follows(fmt, payload, end):
                break
        stats = SubmissionStats(submissions=invocations,
                                elapsed_seconds=seconds)
        return DriverResult(output=b"".join(parts), csb=None, stats=stats)

