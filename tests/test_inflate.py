"""Decompressor: correct decoding and strict malformed-stream rejection."""

import zlib

import pytest

from repro.deflate.bitio import BitWriter
from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate, inflate_core, inflate_with_stats
from repro.errors import DeflateError


class TestInflate:
    def test_stored_block(self):
        w = BitWriter()
        w.write_bits(1, 1)  # final
        w.write_bits(0, 2)  # stored
        w.align_to_byte()
        w.write_bytes(bytes([5, 0, 0xFA, 0xFF]))
        w.write_bytes(b"hello")
        assert inflate(w.getvalue()) == b"hello"

    def test_stored_len_nlen_mismatch(self):
        w = BitWriter()
        w.write_bits(1, 1)
        w.write_bits(0, 2)
        w.align_to_byte()
        w.write_bytes(bytes([5, 0, 0x00, 0x00]))  # bad NLEN
        w.write_bytes(b"hello")
        with pytest.raises(DeflateError, match="LEN/NLEN"):
            inflate(w.getvalue())

    def test_reserved_btype_rejected(self):
        w = BitWriter()
        w.write_bits(1, 1)
        w.write_bits(3, 2)
        with pytest.raises(DeflateError, match="reserved"):
            inflate(w.getvalue())

    def test_truncated_stream(self):
        good = deflate(b"some compressible text " * 50, level=6).data
        with pytest.raises(DeflateError):
            inflate(good[: len(good) // 2])

    def test_distance_before_start_rejected(self):
        # zlib with a preset window can create such streams; craft one
        # via fixed-Huffman bytes: literal 'a', then match dist 2 len 3.
        from repro.deflate.compress import BlockPlan, emit_block
        from repro.deflate.constants import BTYPE_FIXED

        plan = BlockPlan(tokens=[ord("a"), (3, 2)], raw=b"",
                         btype=BTYPE_FIXED)
        w = BitWriter()
        emit_block(w, plan, final=True)
        with pytest.raises(DeflateError, match="back-reference"):
            inflate(w.getvalue())

    def test_output_cap_enforced(self):
        data = deflate(bytes(100000), level=6).data
        with pytest.raises(DeflateError, match="exceeds"):
            inflate_core(data, max_output=1000)

    def test_stats_reflect_stream(self, text_20k):
        payload = deflate(text_20k, level=6).data
        out, stats, bits = inflate_with_stats(payload)
        assert out == text_20k
        assert stats.literals + stats.match_bytes == len(text_20k)
        assert stats.blocks  # at least one block
        assert bits <= len(payload) * 8

    def test_multiple_blocks_counted(self, text_20k):
        payload = deflate(text_20k, level=6, block_tokens=512).data
        _out, stats, _bits = inflate_with_stats(payload)
        assert len(stats.blocks) > 1

    def test_decodes_stdlib_best_compression(self, json_20k):
        payload = zlib.compress(json_20k, 9)[2:-4]
        assert inflate(payload) == json_20k

    def test_decodes_stdlib_huffman_only(self, json_20k):
        comp = zlib.compressobj(6, zlib.DEFLATED, -15, 9,
                                zlib.Z_HUFFMAN_ONLY)
        payload = comp.compress(json_20k) + comp.flush()
        assert inflate(payload) == json_20k

    def test_decodes_stdlib_fixed_blocks(self):
        # Small inputs make zlib emit fixed-Huffman blocks.
        data = b"abc"
        payload = zlib.compress(data, 6)[2:-4]
        assert inflate(payload) == data

    def test_bits_consumed_allows_trailer_location(self, text_20k):
        payload = deflate(text_20k, level=6).data
        _out, _stats, bits = inflate_with_stats(payload + b"TRAILER")
        assert (bits + 7) // 8 == len(payload)


class TestDynamicHeaderValidation:
    def _header_stream(self, mutate):
        payload = bytearray(deflate(b"dynamic header test " * 200,
                                    level=6).data)
        mutate(payload)
        return bytes(payload)

    def test_corrupt_stream_raises_not_crashes(self, text_20k):
        payload = bytearray(deflate(text_20k, level=6).data)
        for pos in range(0, len(payload), 97):
            corrupted = bytearray(payload)
            corrupted[pos] ^= 0xFF
            try:
                inflate(bytes(corrupted))
            except DeflateError:
                pass  # rejection is the expected outcome
            # Silent wrong output is possible for some corruptions and
            # is caught by container checksums, tested elsewhere.
