"""The accelerator job engine: CRB in, CSB out.

``NxEngine.execute`` performs one complete coprocessor job against a
modelled address space: walk the source DDE through the MMU, run the
compression or decompression pipe, scatter the output through the target
DDE, and produce a CSB.  Translation faults abort the job with
``CC=TRANSLATION`` and the faulting address, exactly the software-visible
protocol the driver's touch-and-resubmit loop relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import OutputOverflow, TranslationFault
from ..obs.trace import TRACE as _TRACE
from ..sysstack.crb import CcCode, Crb, Csb, Op
from ..sysstack.mmu import AddressSpace
from .compressor import NxCompressor, NxCompressResult
from .decompressor import NxDecompressor, NxDecompressResult
from .dht import DhtStrategy
from .params import PIPELINE_FILL_CYCLES, EngineParams, MachineParams

_ABORT_OVERHEAD_CYCLES = 500  # suspend + CSB write after a fault


@dataclass
class JobOutcome:
    """Everything the engine reports about one executed CRB."""

    csb: Csb
    busy_seconds: float
    result: NxCompressResult | NxDecompressResult | None = None
    faulted_address: int | None = None


@dataclass
class EngineCounters:
    """Accumulated activity of one engine (for utilization reports)."""

    jobs: int = 0
    completed: int = 0
    faulted: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    busy_seconds: float = 0.0


@dataclass
class NxEngine:
    """One compression/decompression engine pair plus its DMA ports."""

    machine: MachineParams
    counters: EngineCounters = field(default_factory=EngineCounters,
                                     init=False)

    def __post_init__(self) -> None:
        from ..e842.engine import Engine842

        self.params: EngineParams = self.machine.engine
        self._compressor = NxCompressor(self.params)
        self._decompressor = NxDecompressor(self.params)
        self._e842 = Engine842()

    def execute(self, crb: Crb, space: AddressSpace) -> JobOutcome:
        """Run one coprocessor job to completion, fault, or overflow."""
        with _TRACE.span("engine.run", op=crb.function.op.name,
                         nbytes=crb.source.total_length) as span:
            outcome = self._execute(crb, space)
            span.set(cc=outcome.csb.cc.name,
                     busy_s=outcome.busy_seconds)
            if outcome.faulted_address is not None:
                span.event("fault.translation",
                           address=outcome.faulted_address)
            return outcome

    def _execute(self, crb: Crb, space: AddressSpace) -> JobOutcome:
        self.counters.jobs += 1
        reject = self._validate(crb)
        if reject is not None:
            busy = self._abort_seconds()
            self.counters.busy_seconds += busy
            csb = Csb(valid=True, cc=reject)
            if crb.csb_address:
                self._write_csb(crb, space, csb)
            return JobOutcome(csb=csb, busy_seconds=busy)
        try:
            source = self._gather_dde(crb.source, space)
            history = (self._gather_dde(crb.history_dde, space)
                       if crb.history_dde is not None else b"")
        except TranslationFault as fault:
            return self._fault_outcome(crb, space, fault)

        if crb.function.op is Op.COMPRESS:
            result = self._compressor.compress(
                source, strategy=DhtStrategy(crb.function.strategy),
                fmt=crb.function.fmt, history=history,
                final=crb.is_final, library=crb.library)
            output = result.data
            compute_seconds = result.seconds
        elif crb.function.op is Op.DECOMPRESS:
            try:
                result = self._decompressor.decompress(
                    source, fmt=crb.function.fmt,
                    max_output=crb.target.total_length, history=history)
            except OutputOverflow:
                # The decode stopped at the target cap, before any
                # checksum work; report the architected overflow CC so
                # the driver grows the buffer.
                return self._overflow_outcome(crb, space, 0, None)
            output = result.data
            compute_seconds = result.seconds
        elif crb.function.op is Op.COMPRESS_842:
            result = self._e842.compress(source)
            output = result.data
            compute_seconds = result.seconds
        else:  # Op.DECOMPRESS_842
            from ..e842.codec import E842Error, E842Overflow

            try:
                result = self._e842.decompress(
                    source, max_output=crb.target.total_length)
            except E842Overflow:
                return self._overflow_outcome(crb, space, 0, None)
            except E842Error:
                return self._reject(crb, space, CcCode.DATA_LENGTH)
            output = result.data
            compute_seconds = result.seconds

        if len(output) > crb.target.total_length:
            return self._overflow_outcome(crb, space, len(source), result)

        try:
            self._scatter(crb, space, output)
        except TranslationFault as fault:
            return self._fault_outcome(crb, space, fault)

        busy = self._busy_seconds(len(source), len(output), compute_seconds)
        csb = Csb(valid=True, cc=CcCode.SUCCESS,
                  processed_bytes=len(source), target_written=len(output))
        self._write_csb(crb, space, csb)
        self.counters.completed += 1
        self.counters.bytes_in += len(source)
        self.counters.bytes_out += len(output)
        self.counters.busy_seconds += busy
        return JobOutcome(csb=csb, busy_seconds=busy, result=result)

    def _validate(self, crb: Crb) -> CcCode | None:
        """Front-end CRB checks the hardware performs before starting."""
        if crb.csb_address == 0:
            return CcCode.INVALID_CRB
        if crb.target.total_length == 0:
            return CcCode.INVALID_CRB
        if (crb.function.op in (Op.DECOMPRESS, Op.DECOMPRESS_842)
                and crb.source.total_length == 0):
            return CcCode.DATA_LENGTH
        return None

    def _reject(self, crb: Crb, space: AddressSpace,
                cc: CcCode) -> JobOutcome:
        busy = self._abort_seconds()
        self.counters.busy_seconds += busy
        csb = Csb(valid=True, cc=cc)
        if crb.csb_address:
            self._write_csb(crb, space, csb)
        return JobOutcome(csb=csb, busy_seconds=busy)

    # -- data movement ----------------------------------------------------

    def _gather_dde(self, dde, space: AddressSpace) -> bytes:
        chunks = []
        for address, length in dde.segments():
            chunks.append(space.dma_read(address, length))
        return b"".join(chunks)

    def _scatter(self, crb: Crb, space: AddressSpace, output: bytes) -> None:
        pos = 0
        for address, length in crb.target.segments():
            if pos >= len(output):
                break
            chunk = output[pos:pos + length]
            space.dma_write(address, chunk)
            pos += len(chunk)

    def _write_csb(self, crb: Crb, space: AddressSpace, csb: Csb) -> None:
        space.write(crb.csb_address, csb.pack())

    # -- timing -------------------------------------------------------------

    def _busy_seconds(self, in_bytes: int, out_bytes: int,
                      compute_seconds: float) -> float:
        """Engine occupancy: compute overlapped with DMA in/out."""
        dma_in = in_bytes / (self.machine.dma_read_gbps * 1e9)
        dma_out = out_bytes / (self.machine.dma_write_gbps * 1e9)
        return max(compute_seconds, dma_in, dma_out)

    def _abort_seconds(self) -> float:
        cycles = PIPELINE_FILL_CYCLES + _ABORT_OVERHEAD_CYCLES
        return cycles / (self.params.clock_ghz * 1e9)

    # -- abnormal completions -----------------------------------------------

    def _fault_outcome(self, crb: Crb, space: AddressSpace,
                       fault: TranslationFault) -> JobOutcome:
        self.counters.faulted += 1
        busy = self._abort_seconds()
        self.counters.busy_seconds += busy
        csb = Csb(valid=True, cc=CcCode.TRANSLATION,
                  fault_address=fault.address)
        self._write_csb(crb, space, csb)
        return JobOutcome(csb=csb, busy_seconds=busy,
                          faulted_address=fault.address)

    def _overflow_outcome(self, crb: Crb, space: AddressSpace,
                          processed: int, result) -> JobOutcome:
        busy = self._abort_seconds()
        self.counters.busy_seconds += busy
        csb = Csb(valid=True, cc=CcCode.TARGET_SPACE,
                  processed_bytes=processed)
        self._write_csb(crb, space, csb)
        return JobOutcome(csb=csb, busy_seconds=busy, result=result)
