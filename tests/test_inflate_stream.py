"""Incremental DEFLATE decoding: arbitrary chunk boundaries."""

import zlib as stdzlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.compress import deflate
from repro.deflate.inflate_stream import InflateStream
from repro.errors import DeflateError, OutputOverflow
from repro.workloads.generators import generate


def inflate_incremental(chunks: list[bytes], history: bytes = b"") -> bytes:
    """Run ``chunks`` through one :class:`InflateStream`."""
    stream = InflateStream(history=history)
    out = bytearray()
    for chunk in chunks:
        out += stream.feed(chunk)
    out += stream.finish()
    return bytes(out)


def split_at(payload: bytes, cuts: list[int]) -> list[bytes]:
    chunks = []
    prev = 0
    for cut in sorted(set(c % (len(payload) + 1) for c in cuts)):
        chunks.append(payload[prev:cut])
        prev = cut
    chunks.append(payload[prev:])
    return chunks


class TestBasics:
    def test_single_feed(self, text_20k):
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        out = stream.feed(payload) + stream.finish()
        assert out == text_20k

    def test_byte_at_a_time(self):
        data = generate("json_records", 4000, seed=1)
        payload = deflate(data, 6).data
        stream = InflateStream()
        out = bytearray()
        for byte in payload:
            out += stream.feed(bytes([byte]))
        out += stream.finish()
        assert bytes(out) == data

    def test_mid_header_split(self, text_20k):
        payload = deflate(text_20k, 6).data
        assert inflate_incremental([payload[:1], payload[1:3],
                                    payload[3:]]) == text_20k

    def test_stored_blocks(self, text_20k):
        payload = deflate(text_20k, 0).data
        assert inflate_incremental(
            split_at(payload, [3, 5, 100, 70000])) == text_20k

    def test_multiblock_stream(self, text_20k):
        payload = deflate(text_20k, 6, block_tokens=256).data
        assert inflate_incremental(
            split_at(payload, list(range(100, 6000, 700)))) == text_20k

    def test_stdlib_payload(self, json_20k):
        payload = stdzlib.compress(json_20k, 9)[2:-4]
        assert inflate_incremental(
            split_at(payload, [10, 500, 900])) == json_20k

    def test_output_streams_before_finish(self, text_20k):
        """Plaintext becomes available as input arrives, not at finish."""
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        early = stream.feed(payload[: len(payload) // 2])
        assert len(early) > 0
        rest = stream.feed(payload[len(payload) // 2:]) + stream.finish()
        assert early + rest == text_20k


class TestCompleteOnFeed:
    @pytest.mark.parametrize("level", [0, 1, 6])
    @pytest.mark.parametrize("size", [0, 1, 20, 20000])
    def test_a_stream_fed_whole_needs_no_finish(self, size, level, text_20k):
        data = text_20k[:size]
        stream = InflateStream()
        assert stream.feed(deflate(data, level).data) == data
        assert stream.finished
        assert stream.finish() == b""

    def test_feed_returns_what_the_input_determines(self, text_20k):
        """Up to a flush point every byte is out, whatever follows."""
        head, tail = text_20k[:9000], text_20k[9000:]
        unit = deflate(head, 6, final=False).data
        stream = InflateStream()
        assert stream.feed(unit) == head
        assert not stream.finished
        rest = deflate(tail, 6, history=head).data
        assert stream.feed(rest) == tail
        assert stream.finished


class TestWindowAndDict:
    def test_large_output_window_trimming(self):
        data = generate("log_lines", 150000, seed=2)
        payload = deflate(data, 6).data
        chunks = [payload[i:i + 512]
                  for i in range(0, len(payload), 512)]
        assert inflate_incremental(chunks) == data

    def test_history_dictionary(self, json_20k):
        hist = json_20k[:8000]
        rest = json_20k[8000:]
        payload = deflate(rest, 6, history=hist).data
        assert inflate_incremental([payload[:40], payload[40:]],
                                   history=hist) == rest

    def test_max_output_enforced(self):
        payload = deflate(bytes(100000), 6).data
        stream = InflateStream(max_output=1000)
        with pytest.raises(OutputOverflow):
            stream.feed(payload)
            stream.finish()


class TestProtocol:
    def test_finished_flag(self, text_20k):
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        stream.feed(payload)
        stream.finish()
        assert stream.finished

    def test_unused_bytes(self, text_20k):
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        stream.feed(payload + b"\x01\x02\x03")
        stream.finish()
        assert stream.unused_bytes() == b"\x01\x02\x03"

    def test_truncated_raises_on_finish(self, text_20k):
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        stream.feed(payload[: len(payload) // 2])
        with pytest.raises(DeflateError):
            stream.finish()

    def test_feed_after_done_rejected(self, text_20k):
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        stream.feed(payload)
        stream.finish()
        with pytest.raises(DeflateError):
            stream.feed(b"more")

    def test_corrupt_stream_raises(self, text_20k):
        payload = bytearray(deflate(text_20k, 6).data)
        payload[0] |= 0x06  # force reserved btype
        stream = InflateStream()
        with pytest.raises(DeflateError):
            stream.feed(bytes(payload))
            stream.finish()


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=4000), st.lists(st.integers(min_value=0),
                                          max_size=12),
       st.sampled_from([0, 1, 6, 9]))
def test_chunking_invariance_property(data, cuts, level):
    """Any chunking of any valid stream decodes to the same bytes."""
    payload = deflate(data, level).data
    assert inflate_incremental(split_at(payload, cuts)) == data


class TestTrailingGarbage:
    def test_zero_while_decoding_and_exact_after(self, text_20k):
        payload = deflate(text_20k, 6).data
        stream = InflateStream()
        stream.feed(payload[:10])
        with pytest.raises(DeflateError, match="not finished"):
            stream.unused_bytes()
        stream.feed(payload[10:] + b"JUNKJUNK")
        stream.finish()
        assert stream.unused_bytes() == b"JUNKJUNK"

    def test_clean_stream_has_none(self, json_20k):
        payload = deflate(json_20k, 6).data
        stream = InflateStream()
        stream.feed(payload)
        stream.finish()
        assert stream.unused_bytes() == b""
