"""Incremental gzip reading through ``DecompressStream("gzip")``."""

import gzip as stdgzip
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.containers import gzip_compress
from repro.deflate.stream import DecompressStream
from repro.errors import ChecksumError, DeflateError


def run_chunks(payload: bytes, size: int) -> tuple[bytes, DecompressStream]:
    reader = DecompressStream("gzip")
    out = bytearray()
    for i in range(0, len(payload), size):
        out += reader.feed(payload[i:i + size])
    out += reader.finish()
    return bytes(out), reader


class TestSingleMember:
    def test_one_shot(self, text_20k):
        out, reader = run_chunks(gzip_compress(text_20k), 1 << 20)
        assert out == text_20k
        assert reader.members_read == 1
        assert reader.finished

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunkings(self, chunk, json_20k):
        out, _reader = run_chunks(stdgzip.compress(json_20k), chunk)
        assert out == json_20k

    def test_header_with_filename_split(self, text_20k):
        buf = io.BytesIO()
        with stdgzip.GzipFile(filename="name.bin", mode="wb",
                              fileobj=buf) as handle:
            handle.write(text_20k)
        payload = buf.getvalue()
        reader = DecompressStream("gzip")
        out = (reader.feed(payload[:5]) + reader.feed(payload[5:12])
               + reader.feed(payload[12:]) + reader.finish())
        assert out == text_20k

    def test_output_streams_early(self, text_20k):
        payload = gzip_compress(text_20k)
        reader = DecompressStream("gzip")
        early = reader.feed(payload[:len(payload) // 2])
        assert early
        assert early == text_20k[:len(early)]


class TestCompleteOnFeed:
    @pytest.mark.parametrize("size", [0, 1, 20000])
    def test_a_member_fed_whole_needs_no_finish(self, size, text_20k):
        """A peer that sends one member and waits for the answer gets
        all of it from ``feed``: no tail is held back for ``finish``."""
        data = text_20k[:size]
        for payload in (gzip_compress(data), stdgzip.compress(data)):
            reader = DecompressStream("gzip")
            assert reader.feed(payload) == data
            assert reader.members_read == 1
            assert reader.finish() == b""


class TestMultiMember:
    def test_two_members(self, text_20k, json_20k):
        archive = gzip_compress(text_20k) + stdgzip.compress(json_20k)
        out, reader = run_chunks(archive, 333)
        assert out == text_20k + json_20k
        assert reader.members_read == 2



class TestErrors:
    def test_crc_mismatch(self, text_20k):
        payload = bytearray(gzip_compress(text_20k))
        payload[-6] ^= 0xFF
        reader = DecompressStream("gzip")
        with pytest.raises(ChecksumError):
            reader.feed(bytes(payload))
            reader.finish()

    def test_isize_mismatch(self, text_20k):
        payload = bytearray(gzip_compress(text_20k))
        payload[-1] ^= 0xFF
        reader = DecompressStream("gzip")
        with pytest.raises(ChecksumError):
            reader.feed(bytes(payload))
            reader.finish()

    def test_bad_magic(self):
        reader = DecompressStream("gzip")
        with pytest.raises(DeflateError):
            reader.feed(b"NOTGZIP---" * 2)

    def test_truncated(self, text_20k):
        payload = gzip_compress(text_20k)
        reader = DecompressStream("gzip")
        reader.feed(payload[: len(payload) // 3])
        with pytest.raises(DeflateError):
            reader.finish()

    def test_empty_input(self):
        reader = DecompressStream("gzip")
        with pytest.raises(DeflateError):
            reader.finish()


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=3000),
       st.integers(min_value=1, max_value=500))
def test_chunking_invariance_property(data, chunk):
    payload = stdgzip.compress(data)
    out, reader = run_chunks(payload, chunk)
    assert out == data
    assert reader.members_read == 1
