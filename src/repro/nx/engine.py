"""The accelerator job engine: CRB in, CSB out.

``NxEngine.execute`` performs one complete coprocessor job against a
modelled address space: walk the source DDE through the MMU, run the
compression or decompression pipe, scatter the output through the target
DDE, and produce a CSB.  Translation faults abort the job with
``CC=TRANSLATION`` and the faulting address, exactly the software-visible
protocol the driver's touch-and-resubmit loop relies on.  A decompress
whose target fills ends at the last block that fits with
``CC=TARGET_SPACE``: the target holds that output, and the result the
state the driver's next request continues from.
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
            return self.abort(crb, space, reject)
        try:
            source = self._gather_dde(crb.source, space)
            history = (self._gather_dde(crb.history_dde, space)
                       if crb.history_dde is not None else b"")
        except TranslationFault as fault:
            return self._fault(crb, space, fault)

        if crb.function.op is Op.COMPRESS:
            result = self._compressor.compress(
                source, strategy=DhtStrategy(crb.function.strategy),
                fmt=crb.function.fmt, history=history,
                final=crb.is_final, library=crb.library)
        elif crb.function.op is Op.DECOMPRESS:
            # A full target ends the decode at the last block that fits:
            # the CSB says how far it got, the result where to go on.
            result = self._decompressor.decompress(
                source, fmt=crb.function.fmt,
                max_output=crb.target.total_length, history=history,
                resume=crb.resume)
        elif crb.function.op is Op.COMPRESS_842:
            result = self._e842.compress(source)
        else:  # Op.DECOMPRESS_842
            from ..e842.codec import E842Error

            try:
                result = self._e842.decompress(
                    source, max_output=crb.target.total_length)
            except OutputOverflow:  # no state to go on from
                return self.abort(crb, space, CcCode.TARGET_SPACE)
            except E842Error:
                return self.abort(crb, space, CcCode.DATA_LENGTH)

        output = result.data
        if len(output) > crb.target.total_length:
            return self.abort(crb, space, CcCode.TARGET_SPACE)

        try:
            self._scatter(crb, space, output)
        except TranslationFault as fault:
            return self._fault(crb, space, fault)

        busy = self._busy_seconds(len(source), len(output), result.seconds)
        point = getattr(result, "resume", None)
        csb = Csb(valid=True, cc=CcCode.SUCCESS, processed_bytes=len(source),
                  target_written=len(output))
        if point is not None:
            csb.cc, csb.processed_bytes = (CcCode.TARGET_SPACE,
                                           point.bit_offset // 8)
        space.write(crb.csb_address, csb.pack())
        self.counters.completed += point is None
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

    # -- data movement ----------------------------------------------------

    def _gather_dde(self, dde, space: AddressSpace) -> bytes:
        return b"".join(space.dma_read(address, length)
                        for address, length in dde.segments())

    def _scatter(self, crb: Crb, space: AddressSpace, output: bytes) -> None:
        pos = 0
        for address, length in crb.target.segments():
            if pos >= len(output):
                break
            chunk = output[pos:pos + length]
            space.dma_write(address, chunk)
            pos += len(chunk)

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

    def abort(self, crb: Crb, space: AddressSpace, cc: CcCode,
              fault_address: int = 0) -> JobOutcome:
        """A job that ends with no output — refused, faulted, or out of
        target space with nothing to go on from — charged the abort."""
        busy = self._abort_seconds()
        self.counters.busy_seconds += busy
        csb = Csb(valid=True, cc=cc, fault_address=fault_address)
        if crb.csb_address:
            space.write(crb.csb_address, csb.pack())
        return JobOutcome(csb=csb, busy_seconds=busy, faulted_address=(
            fault_address if cc is CcCode.TRANSLATION else None))

    def _fault(self, crb: Crb, space: AddressSpace,
               fault: TranslationFault) -> JobOutcome:
        self.counters.faulted += 1
        return self.abort(crb, space, CcCode.TRANSLATION, fault.address)
