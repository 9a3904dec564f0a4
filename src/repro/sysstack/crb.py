"""Coprocessor Request Block (CRB) and status structures.

A user thread describes one accelerator job with a 128-byte CRB: the
function code (compress/decompress, Huffman strategy, wire format),
scatter/gather descriptors for source and target, and the address of a
Coprocessor Status Block (CSB) that the engine writes on completion.
The layouts here are modelled, not bit-exact, but they serialize to the
documented sizes so that the VAS copy/paste path moves realistic payloads.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from ..deflate.containers import SeekPoint
from ..errors import JobError
from ..nx.dht import BUILTIN, CannedLibrary
from .dde import Dde

CRB_BYTES = 128
CSB_BYTES = 16


class Op(enum.Enum):
    """Top-level operation selected by the CRB function code.

    The NX unit exposes both its gzip engines and its 842 engines
    through the same switchboard; the function code picks the pipe.
    """

    COMPRESS = 1
    DECOMPRESS = 2
    COMPRESS_842 = 3
    DECOMPRESS_842 = 4


class CcCode(enum.IntEnum):
    """CSB completion codes (the subset the driver must handle)."""

    SUCCESS = 0
    INVALID_CRB = 4
    DATA_LENGTH = 13
    TRANSLATION = 65     # page fault: fault address is in the CSB
    TARGET_SPACE = 66    # output did not fit in the target DDE
    FUNCTION = 17        # unimplemented function code


@dataclass(frozen=True)
class FunctionCode:
    """Operation + Huffman strategy + wire format, packed into the CRB."""

    op: Op
    strategy: str = "auto"   # fixed | dynamic | canned | auto
    fmt: str = "raw"         # raw | zlib | gzip

    _STRATEGIES = ("fixed", "dynamic", "canned", "auto")
    _FORMATS = ("raw", "zlib", "gzip")

    def encode(self) -> int:
        if self.strategy not in self._STRATEGIES:
            raise JobError(f"bad strategy {self.strategy!r}")
        if self.fmt not in self._FORMATS:
            raise JobError(f"bad format {self.fmt!r}")
        return (self.op.value << 6
                | self._STRATEGIES.index(self.strategy) << 2
                | self._FORMATS.index(self.fmt))

    @classmethod
    def decode(cls, value: int) -> "FunctionCode":
        try:
            op = Op(value >> 6)
        except ValueError as exc:
            raise JobError(f"bad function code {value:#x}") from exc
        return cls(op=op,
                   strategy=cls._STRATEGIES[(value >> 2) & 0xF],
                   fmt=cls._FORMATS[value & 0x3])


@dataclass
class Csb:
    """Coprocessor Status Block written by the engine at job end."""

    valid: bool = False
    cc: CcCode = CcCode.SUCCESS
    processed_bytes: int = 0
    target_written: int = 0
    fault_address: int = 0

    def pack(self) -> bytes:
        return struct.pack("<BBHIII", 1 if self.valid else 0, int(self.cc),
                           0, self.processed_bytes, self.target_written,
                           self.fault_address)

    @classmethod
    def unpack(cls, raw: bytes) -> "Csb":
        valid, cc, _pad, processed, written, fault = struct.unpack(
            "<BBHIII", raw[:CSB_BYTES])
        return cls(valid=bool(valid), cc=CcCode(cc),
                   processed_bytes=processed, target_written=written,
                   fault_address=fault)


# CRB flag bits.
CRB_FLAG_HISTORY = 0x1   # a history DDE follows the target DDE
CRB_FLAG_CONTINUED = 0x2  # not the final request of a stream


@dataclass
class Crb:
    """One coprocessor request, as pasted to a VAS window."""

    function: FunctionCode
    source: Dde
    target: Dde
    csb_address: int
    sequence: int = 0
    flags: int = 0
    history_dde: Dde | None = None  # preset dictionary / carried window
    # The parameter block it points at: the canned DHTs the job may use,
    # and where a continued decode goes on (its window is the history).
    # Not packed: the real CRB carries only the block's address.
    library: CannedLibrary = field(default=BUILTIN, repr=False)
    resume: SeekPoint | None = None
    _pad: bytes = field(default=b"", repr=False)

    @property
    def is_final(self) -> bool:
        return not (self.flags & CRB_FLAG_CONTINUED)

    def pack(self) -> bytes:
        """Serialize to the 128-byte paste payload."""
        flags = self.flags
        if self.history_dde is not None:
            flags |= CRB_FLAG_HISTORY
        body = struct.pack(
            "<IIQ", self.function.encode(), flags, self.csb_address)
        body += struct.pack("<I", self.sequence)
        body += self.source.pack()
        body += self.target.pack()
        if self.history_dde is not None:
            body += self.history_dde.pack()
        if len(body) > CRB_BYTES:
            raise JobError("CRB fields exceed 128 bytes")
        return body + b"\x00" * (CRB_BYTES - len(body))

    @classmethod
    def unpack(cls, raw: bytes, library: CannedLibrary = BUILTIN,
               resume: SeekPoint | None = None) -> "Crb":
        if len(raw) != CRB_BYTES:
            raise JobError(f"CRB must be {CRB_BYTES} bytes, got {len(raw)}")
        fc, flags, csb_address = struct.unpack_from("<IIQ", raw, 0)
        (sequence,) = struct.unpack_from("<I", raw, 16)
        source, offset = Dde.unpack(raw, 20)
        target, offset = Dde.unpack(raw, offset)
        history = None
        if flags & CRB_FLAG_HISTORY:
            history, _offset = Dde.unpack(raw, offset)
        return cls(function=FunctionCode.decode(fc), source=source,
                   target=target, csb_address=csb_address,
                   sequence=sequence, flags=flags, history_dde=history,
                   library=library, resume=resume)
