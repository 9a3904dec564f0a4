"""The z15 synchronous backend: the DFLTCC instruction re-issue loop.

This is the zlib-dfltcc shape: the deflate *body* is produced by the
accelerator (CMPR invocations re-issued while CC=3, the CPU-determined
completion), while the RFC 1950/1952 container framing stays in
software — exactly how the s390 zlib patch wraps the instruction.
Expansion is one XPND walk of the whole payload, every gzip member of
it (the model's facility runs the container walker every decoder
shares), into a first operand sized from the ISIZE trailer; on CC=1 the
loop keeps what the operand holds and re-issues into a fresh one, going
on from the state the parameter block carries.
"""

from __future__ import annotations

from ..deflate.containers import (FORMATS, checksum,
                                  decompress_target_len, frame,
                                  require_format)
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
                  library: CannedLibrary,
                  deadline_s: float | None) -> DriverResult:
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

    def _decompress(self, payload: bytes, fmt: str, history: bytes,
                    deadline_s: float | None, max_output: int) -> DriverResult:
        output, seconds, invocations = xpnd_loop(
            self._facility, ParameterBlock(history=history), payload, fmt,
            decompress_target_len(payload, fmt), max_output)
        stats = SubmissionStats(submissions=invocations,
                                target_overflows=invocations - 1,
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)
