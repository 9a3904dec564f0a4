"""One stream pair over any engine.

Each continuation request carries the previous 32 KB of plaintext as a
history DDE and ends in a sync flush, so the units concatenate into one
raw stream.  :class:`CompressStream` runs that protocol over any unit
producer (an NX session's ``compress_chunk``, the software ``deflate``)
and frames it; :class:`DecompressStream` reads any container, every
gzip member, in any chunking.  Both learn the wire format only from
the table in :mod:`repro.deflate.containers`.
"""

from __future__ import annotations

from typing import Callable

from ..errors import DeflateError, StreamStateError
from .constants import WINDOW_SIZE
from .containers import (checksum, header, header_end, member_follows,
                         require_format, trailer, verify_trailer)
from .inflate_stream import InflateStream


class CompressStream:
    """Chunk-at-a-time compression into one framed stream.

    Usage::

        stream = session.compress_stream(fmt="gzip")
        out = stream.write(chunk1) + stream.write(chunk2) + stream.finish()

    ``unit(chunk, history, final)`` returns one raw continuation unit
    of ``chunk``, its matches primed with ``history``.  ``zdict`` primes
    the first unit's window; a zlib stream names it in its header
    (FDICT + DICTID).
    """

    def __init__(self, unit: Callable[[bytes, bytes, bool], bytes],
                 fmt: str, zdict: bytes = b"") -> None:
        require_format(fmt)
        self.fmt = fmt
        self._unit = unit
        self._header = header(fmt, zdict=zdict)
        self._history = zdict[-WINDOW_SIZE:]
        self._check: int | None = None
        self._size = 0
        self._finished = False

    def write(self, chunk: bytes, final: bool = False) -> bytes:
        """Compress one chunk; returns the wire bytes it produced."""
        if self._finished:
            raise StreamStateError("stream already finished")
        out, self._header = self._header, b""
        out += self._unit(chunk, self._history, final)
        self._check = checksum(self.fmt, chunk, self._check)
        self._size += len(chunk)
        self._history = (self._history + chunk)[-WINDOW_SIZE:]
        if final:
            self._finished = True
            out += trailer(self.fmt, self._check, self._size)
        return out

    def finish(self, chunk: bytes = b"") -> bytes:
        """Compress the last chunk (may be empty) and close the stream."""
        return self.write(chunk, final=True)


class DecompressStream:
    """Feed a stream in any chunking; emits verified plaintext.

    ``feed`` returns all the plaintext the input so far determines (a
    stream fed whole is complete on ``feed`` alone); ``finish`` says no
    more input comes, and the input must then end where a stream does.
    A gzip payload is every member of it; anything after a zlib or raw
    stream is a :class:`DeflateError`.
    """

    def __init__(self, fmt: str, zdict: bytes = b"") -> None:
        require_format(fmt)
        self.fmt = fmt
        self._zdict = zdict
        self.members_read = 0
        self._buf = b""
        self._body: InflateStream | None = None  # the open stream's body
        self._check = 0
        self._size = 0

    @property
    def finished(self) -> bool:
        """Does the input so far end where a stream ends?"""
        return self.members_read > 0 and self._body is None and not self._buf

    def feed(self, chunk: bytes) -> bytes:
        """Consume ``chunk``; return any newly decoded plaintext."""
        self._buf += chunk
        return self._advance(more=True)

    def finish(self) -> bytes:
        """Declare the end of the input; the stream must be complete."""
        out = self._advance(more=False)
        if not self.finished:
            raise DeflateError(f"truncated {self.fmt} stream")
        return out

    def _advance(self, more: bool) -> bytes:
        out = bytearray()
        while self._buf or self._body is not None or not self.members_read:
            if self._body is None:
                if self.members_read and not member_follows(
                        self.fmt, self._buf, 0):
                    raise DeflateError(f"data after the {self.fmt} stream")
                found = header_end(self.fmt, self._buf, 0, self._zdict)
                if found is None:
                    break  # the header is not all here yet
                start, window = found
                self._buf = self._buf[start:]
                self._body = InflateStream(history=window)
                self._check, self._size = checksum(self.fmt, b""), 0
            if not self._body.finished:
                produced = self._body.feed(self._buf)
                if not more and not self._body.finished:
                    produced += self._body.finish()
                self._buf = b""
                self._check = checksum(self.fmt, produced, self._check)
                self._size += len(produced)
                out += produced
                if not self._body.finished:
                    break
                self._buf = self._body.unused_bytes()
            if len(self._buf) < len(trailer(self.fmt, 0, 0)):
                break
            end = verify_trailer(self.fmt, self._buf, 0, self._check,
                                 self._size)
            self._buf = self._buf[end:]
            self._body = None
            self.members_read += 1
        return bytes(out)
