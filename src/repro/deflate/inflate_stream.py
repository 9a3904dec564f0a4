"""Incremental DEFLATE decoding: feed arbitrary chunks, get output.

The one-shot :func:`repro.deflate.inflate.inflate` needs the whole
stream; a *general* consumer (a proxy, a tape restore, the reader of a
compressor's continuation units) receives byte chunks that can split
the stream anywhere — mid-code, mid-header, mid-stored-block.
:class:`InflateStream` handles that:

* ``feed(chunk)`` decodes everything the input so far determines and
  returns the newly produced plaintext;
* ``finish()`` says no more input will come (it is an error if the
  stream is incomplete) and returns the final bytes.

There is no decoder here: a block is three stages, each one a call into
``inflate.py`` that can be told the input may grow.  A *header* that
runs out is read again from its first bit when there is more (it is a
few hundred bytes at most); *stored* data is copied as it arrives; a
*Huffman body* goes through the one hot loop, which with ``more=True``
returns at a token boundary 16 bytes short of the end of the input
instead of decoding zero padding.  Those last bytes are then decoded
speculatively by the same loop in its one-shot form: kept if it reaches
end-of-block, undone if it raises ``InputTruncated`` — which it tests
before anything else, so no other verdict can come from padding.  A
complete stream is therefore complete on ``feed`` alone, and a peer
that sends one message and waits for the answer is never held up by a
withheld tail.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NO_BOUND, DeflateError, InputTruncated, OutputOverflow
from .bitio import reader_at
from .constants import BTYPE_STORED, WINDOW_SIZE
from .inflate import InflateStats, _inflate_huffman_block, read_block_header


@dataclass
class InflateStream:
    """Resumable raw-DEFLATE decoder."""

    history: bytes = b""
    max_output: int = NO_BOUND

    def __post_init__(self) -> None:
        # The window, then plaintext; trimmed to the window after a call.
        self._out = bytearray(self.history[-WINDOW_SIZE:])
        self._cap = len(self._out) + self.max_output  # on len(_out)
        self._pending = b""   # input from the byte of the next unread bit
        self._bit = 0         # ... which is this bit of it
        self._block = None    # (BFINAL, BTYPE, body left) of the open block
        self._stats = InflateStats()
        self._done = False

    @property
    def finished(self) -> bool:
        return self._done

    def feed(self, chunk: bytes) -> bytes:
        """Take ``chunk``; return the plaintext the input now determines."""
        if self._done and chunk:
            raise DeflateError("data after final block")
        self._pending += chunk
        return self._drain(more=True)

    def finish(self) -> bytes:
        """No more input: decode to the end of the stream."""
        return self._drain(more=False)

    def unused_bytes(self) -> bytes:
        """Bytes past the final block (container trailers)."""
        if not self._done:
            raise DeflateError("stream not finished")
        return self._pending[(self._bit + 7) // 8:]

    def _drain(self, more: bool) -> bytes:
        """Decode until the stream ends or, with ``more``, until the
        next step needs input that has not come; without, that raises."""
        data = self._pending
        out = self._out
        emitted = len(out)
        reader = reader_at(data, self._bit)
        while not self._done:
            mark, size = reader.bits_consumed, len(out)
            try:
                if self._block is None:
                    self._block = read_block_header(reader)
                final, btype, body = self._block
                if btype == BTYPE_STORED:
                    held = len(data) - (reader.bits_consumed >> 3)
                    take = min(body, held) if more else body
                    out += reader.read_bytes(take)
                    if len(out) > self._cap:
                        raise OutputOverflow("output exceeds allowed size")
                    if take < body:
                        self._block = final, btype, body - take
                        break
                elif not _inflate_huffman_block(reader, out, *body,
                                                self._stats, self._cap,
                                                more):
                    mark, size = reader.bits_consumed, len(out)
                    _inflate_huffman_block(reader, out, *body, self._stats,
                                           self._cap)
            except InputTruncated:
                if not more:
                    raise
                del out[size:]
                reader = reader_at(data, mark)
                break
            self._block = None
            self._done = bool(final)
        new = bytes(out[emitted:])
        # Keep what a later call can reach: input from the next unread
        # bit on, output as far back as a distance goes.
        self._bit = reader.bits_consumed
        self._pending = data[self._bit >> 3:]
        self._bit &= 7
        excess = len(out) - WINDOW_SIZE
        if excess > 0:
            del out[:excess]
            self._cap -= excess
        return new
