"""The z15 DFLTCC instruction model (Integrated Accelerator for zEDC).

On z15 the accelerator is driven *synchronously*: the CPU issues the
DEFLATE CONVERSION CALL (DFLTCC) instruction, whose operands name an
input buffer, an output buffer, and a ~1.5 KB parameter block carrying
all cross-call state (continuation flag, carried history, check value,
the DHT).  Key architectural behaviours modelled here:

* **Function codes** — QAF (query), GDHT (generate a DHT from a sample),
  CMPR (compress), XPND (expand).
* **CPU-determined completion** — the instruction may return CC=3 after
  processing a bounded amount of data so the OS can take interrupts;
  software simply re-issues until CC=0.  This is why DFLTCC needs no
  driver, no queue and no completion interrupt — and why its invocation
  overhead is a fraction of a microsecond.
* **Continuation state** — history and the check value live in the
  parameter block, so a stream can be compressed chunk by chunk with
  full window carry, and an expansion whose first operand fills goes on
  where it stopped (the synchronous analogue of the POWER9 history DDE
  protocol).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..deflate.checksums import crc32
from ..deflate.constants import WINDOW_SIZE
from ..deflate.containers import (SeekPoint, decompress_target_len,
                                  next_target_len)
from ..errors import NO_BOUND, AcceleratorError, OutputOverflow
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .compressor import NxCompressor
from .decompressor import NxDecompressor
from .dht import (BUILTIN, GDHT_SCAN_WINDOW, CannedLibrary, DhtStrategy,
                  select_canned_windowed)
from .params import Z15, MachineParams

class DfltccFunction(enum.IntEnum):
    """DFLTCC function codes (GR0 bits)."""

    QAF = 0    # query available functions
    GDHT = 1   # generate dynamic Huffman table
    CMPR = 2   # compress
    XPND = 4   # expand


class ConditionCode(enum.IntEnum):
    """Instruction condition codes."""

    DONE = 0          # operation completed
    OP1_FULL = 1      # first operand (output) exhausted
    OP2_EMPTY = 2     # second operand (input) exhausted mid-stream
    PARTIAL = 3       # CPU-determined completion: re-issue to continue


@dataclass
class ParameterBlock:
    """The in-memory state block both CMPR and XPND carry across calls."""

    continuation: bool = False
    history: bytes = b""
    check_value: int = 0
    dht_strategy: DhtStrategy = DhtStrategy.FIXED
    dht_sample: bytes = b""  # set by GDHT; CMPR uses it for canned pick
    library: CannedLibrary = BUILTIN  # the canned tables CMPR may use
    total_in: int = 0
    total_out: int = 0
    #: Where an expansion whose first operand filled goes on.
    resume: SeekPoint | None = None

    def size_check(self) -> None:
        if len(self.history) > WINDOW_SIZE:
            raise AcceleratorError("parameter block history exceeds 32 KB")


@dataclass
class DfltccResult:
    """Outcome of one DFLTCC invocation."""

    cc: ConditionCode
    consumed: int          # bytes taken from the second operand
    produced: bytes        # bytes appended to the first operand
    seconds: float         # modelled synchronous execution time
    overrun: tuple[int, int] | None = None  # CC=1: InflateStats.overrun


@dataclass
class Dfltcc:
    """One CPU's view of the on-chip zEDC accelerator."""

    machine: MachineParams = Z15
    # CPU-determined completion bound: how many input bytes one
    # invocation may process before CC=3 forces a re-issue.
    processing_quantum: int = 1 << 20

    def __post_init__(self) -> None:
        if not self.machine.synchronous:
            raise AcceleratorError(
                f"{self.machine.name} has no synchronous DFLTCC facility")
        self._compressor = NxCompressor(self.machine.engine)
        self._decompressor = NxDecompressor(self.machine.engine)

    # -- function code dispatch -------------------------------------------

    def query_available_functions(self) -> set[DfltccFunction]:
        """QAF: which function codes this machine implements."""
        return {DfltccFunction.QAF, DfltccFunction.GDHT,
                DfltccFunction.CMPR, DfltccFunction.XPND}

    def generate_dht(self, block: ParameterBlock,
                     sample: bytes) -> DfltccResult:
        """GDHT: derive a Huffman table from a source sample.

        The real facility stores a compressed DHT in the parameter
        block; the model records the sample and switches the strategy
        to DYNAMIC, which regenerates the same table at CMPR time.
        """
        block.dht_sample = sample[:4096]
        block.dht_strategy = DhtStrategy.DYNAMIC
        seconds = (self.machine.engine.dht_base_cycles
                   / (self.machine.engine.clock_ghz * 1e9))
        return DfltccResult(cc=ConditionCode.DONE, consumed=len(sample),
                            produced=b"", seconds=seconds)

    def compress(self, block: ParameterBlock, data: bytes,
                 last: bool = True) -> DfltccResult:
        """CMPR: one synchronous compression invocation.

        Processes at most ``processing_quantum`` input bytes; returns
        CC=3 with the partial output if input remains (the caller
        re-issues with the rest).  The output buffer is sized to hold
        what the engine produces, so CMPR never ends in CC=1.
        """
        block.size_check()
        chunk = data[:self.processing_quantum]
        remaining_after = len(data) - len(chunk)
        chunk_last = last and remaining_after == 0

        # The GDHT sample drives the canned-table pick, but only when it
        # covers at least one full scan window: a shorter sample would
        # make the facility index past its end, so the architecture
        # degrades the request to a freshly generated dynamic DHT.
        strategy = block.dht_strategy
        canned_name = None
        if strategy in (DhtStrategy.CANNED, DhtStrategy.AUTO) \
                and block.dht_sample:
            if len(block.dht_sample) < GDHT_SCAN_WINDOW:
                strategy = DhtStrategy.DYNAMIC
            else:
                canned_name = select_canned_windowed(
                    block.dht_sample, block.library, len(data))

        result = self._compressor.compress(
            chunk, strategy=strategy, fmt="raw",
            history=block.history, final=chunk_last,
            canned_name=canned_name, library=block.library)
        produced = result.data
        block.history = (block.history + chunk)[-WINDOW_SIZE:]
        block.check_value = crc32(chunk, block.check_value)
        block.total_in += len(chunk)
        block.total_out += len(produced)
        block.continuation = not chunk_last

        cc = ConditionCode.DONE if remaining_after == 0 \
            else ConditionCode.PARTIAL
        return DfltccResult(cc=cc, consumed=len(chunk), produced=produced,
                            seconds=self._issue_seconds() + result.seconds)

    def expand(self, block: ParameterBlock, payload: bytes,
               fmt: str = "raw", *, out_capacity: int) -> DfltccResult:
        """XPND: synchronous decompression of a ``fmt`` payload.

        Output-side partial completion: when the plaintext outgrows the
        first operand, the expansion ends at the last block that fits
        with CC=1, and the parameter block carries where it stopped
        (``resume``; its window is the block's history, its running
        check the check value).  Re-issued with the same payload into a
        fresh first operand, it goes on from there; ``consumed`` is how
        far into the payload it got.
        """
        block.size_check()
        result = self._decompressor.decompress(
            payload, fmt=fmt, max_output=out_capacity,
            history=block.history, resume=block.resume)
        point = block.resume = result.resume
        seconds = self._issue_seconds() + result.seconds
        if point is None:
            return DfltccResult(cc=ConditionCode.DONE, produced=result.data,
                                consumed=result.consumed_bytes,
                                seconds=seconds)
        block.history, block.check_value = point.window, point.check
        return DfltccResult(cc=ConditionCode.OP1_FULL, produced=result.data,
                            consumed=point.bit_offset // 8, seconds=seconds,
                            overrun=result.stats.overrun)

    def _issue_seconds(self) -> float:
        """Per-invocation cost: issue + millicode entry, sub-microsecond."""
        return (self.machine.submit_overhead_us
                + self.machine.dispatch_overhead_us) * 1e-6


def cmpr_loop(facility: Dfltcc, block: ParameterBlock, data: bytes,
              last: bool = True) -> tuple[bytes, float, int]:
    """The software loop around CMPR: re-issue while CC=3.

    Returns ``(raw deflate stream, modelled seconds, invocations)``.
    """
    out = bytearray()
    seconds = 0.0
    invocations = 0
    offset = 0
    while True:
        result = facility.compress(block, data[offset:], last=last)
        out += result.produced
        seconds += result.seconds
        invocations += 1
        offset += result.consumed
        if result.cc is ConditionCode.DONE:
            break
        if result.cc is not ConditionCode.PARTIAL:
            raise AcceleratorError(f"unexpected CC {result.cc!r}")
    if invocations > 1:
        # The CC=3 re-issue loop: how many CMPR issues this job took.
        _TRACE.event("dfltcc.reissue", invocations=invocations)
    _count_issues(invocations, "cmpr")
    return bytes(out), seconds, invocations


def xpnd_loop(facility: Dfltcc, block: ParameterBlock, payload: bytes,
              fmt: str, capacity: int,
              bound: int = NO_BOUND) -> tuple[bytes, float, int]:
    """The software loop around XPND: on CC=1, keep what the first
    operand holds and re-issue into a fresh one, up to ``bound`` bytes.

    Returns ``(output, modelled seconds of every issue, issues)``.
    """
    parts: list[bytes] = []
    seconds, invocations, left = 0.0, 0, bound
    capacity = min(capacity, bound)
    while True:
        result = facility.expand(block, payload, fmt, out_capacity=capacity)
        parts.append(result.produced)
        seconds += result.seconds
        invocations += 1
        _count_issues(1, "xpnd")
        if result.cc is ConditionCode.DONE:
            break
        if result.cc is not ConditionCode.OP1_FULL:
            raise AcceleratorError(f"unexpected CC {result.cc!r}")
        _TRACE.event("overflow.target", length=capacity)
        if capacity == left:
            raise OutputOverflow("output exceeds allowed size")
        left -= len(result.produced)
        capacity = next_target_len(capacity, block.resume, result.overrun,
                                   len(payload), left)
    return b"".join(parts), seconds, invocations


def _count_issues(invocations: int, fn: str) -> None:
    _REGISTRY.counter("repro_backend_dfltcc_invocations_total",
                      "DFLTCC instruction issues").inc(invocations, fn=fn)


def dfltcc_compress(data: bytes,
                    quantum: int = 1 << 20) -> tuple[bytes, float, int]:
    """One raw stream with a dynamic DHT through :func:`cmpr_loop` on a
    fresh z15 facility."""
    return cmpr_loop(Dfltcc(processing_quantum=quantum),
                     ParameterBlock(dht_strategy=DhtStrategy.DYNAMIC), data)


def dfltcc_expand(payload: bytes) -> tuple[bytes, float]:
    """One raw stream through :func:`xpnd_loop` on a fresh z15 facility."""
    output, seconds, _ = xpnd_loop(Dfltcc(), ParameterBlock(), payload,
                                   "raw", decompress_target_len(payload,
                                                                "raw"))
    return output, seconds
