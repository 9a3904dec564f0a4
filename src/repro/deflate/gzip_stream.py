"""Incremental gzip reading: arbitrary chunks in, verified plaintext out.

Builds on :class:`~repro.deflate.inflate_stream.InflateStream`: parses
the member header as bytes arrive, streams the DEFLATE body, verifies
CRC-32 and ISIZE at the trailer, and rolls straight into the next
member for multi-member archives — the decompression path a restore
pipeline actually needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import DeflateError
from .checksums import crc32
from .containers import gzip_header_end, verify_trailer
from .inflate_stream import InflateStream


class _Phase(enum.Enum):
    HEADER = "header"
    BODY = "body"
    TRAILER = "trailer"
    DONE = "done"


@dataclass
class GzipReader:
    """Feed gzip bytes in any chunking; emits verified plaintext."""

    allow_multiple_members: bool = True
    members_read: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._phase = _Phase.HEADER
        self._buf = bytearray()
        self._inflater: InflateStream | None = None
        self._crc = 0
        self._size = 0

    @property
    def finished(self) -> bool:
        return self._phase is _Phase.DONE

    def feed(self, chunk: bytes) -> bytes:
        """Consume ``chunk``; return any newly decoded plaintext."""
        self._buf.extend(chunk)
        return self._advance(final=False)

    def finish(self) -> bytes:
        """Declare end of input; the stream must be complete."""
        out = self._advance(final=True)
        if self._phase is _Phase.HEADER and self.members_read > 0 \
                and not self._buf:
            self._phase = _Phase.DONE
        if self._phase is not _Phase.DONE:
            raise DeflateError("truncated gzip stream")
        return out

    def _advance(self, final: bool) -> bytes:
        out = bytearray()
        progress = True
        while progress:
            progress = False
            if self._phase is _Phase.HEADER:
                progress = self._try_header()
            elif self._phase is _Phase.BODY:
                produced, progress = self._pump_body(final)
                out += produced
            elif self._phase is _Phase.TRAILER:
                progress = self._try_trailer()
            else:
                if self._buf:
                    raise DeflateError("data after final gzip member")
                break
        return bytes(out)

    # -- phases -----------------------------------------------------------

    def _try_header(self) -> bool:
        if not self._buf and self.members_read > 0:
            return False
        length = gzip_header_end(self._buf)
        if length is None:
            return False
        del self._buf[:length]
        self._inflater = InflateStream()
        self._crc = 0
        self._size = 0
        self._phase = _Phase.BODY
        return True

    def _pump_body(self, final: bool) -> tuple[bytes, bool]:
        chunk = bytes(self._buf)
        self._buf.clear()
        produced = self._inflater.feed(chunk)
        if final and not self._inflater.finished:
            produced += self._inflater.finish()
        self._account(produced)
        if not self._inflater.finished:
            return produced, False  # all of it so far; wait for more
        self._buf[:0] = self._inflater.unused_bytes()
        self._phase = _Phase.TRAILER
        return produced, True

    def _account(self, produced: bytes) -> None:
        self._crc = crc32(produced, self._crc)
        self._size += len(produced)

    def _try_trailer(self) -> bool:
        if len(self._buf) < 8:
            return False
        end = verify_trailer("gzip", self._buf, 0, self._crc, self._size)
        del self._buf[:end]
        self.members_read += 1
        self._phase = (_Phase.HEADER if self.allow_multiple_members
                       else _Phase.DONE)
        return True
