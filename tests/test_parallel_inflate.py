"""The serial indexing decode: byte parity with the stdlib decoders.

:func:`~repro.deflate.seekindex.decode_indexed` is the one container
walker ``repro cat`` decodes with while it records a seek index: it
must decode every stream the other decoders do, verify every container
trailer it crosses (multi-member gzip, zlib Adler-32), and stop at its
output cap before materialising a bomb.
"""

import gzip as stdgzip
import random
import tracemalloc
import zlib as stdzlib

import pytest

from repro.deflate.compress import deflate
from repro.deflate.containers import gzip_compress, zlib_compress
from repro.deflate.seekindex import decode_indexed, read_range
from repro.errors import ChecksumError, DeflateError, OutputOverflow
from repro.workloads.generators import generate


def _zero_bomb_archive() -> bytes:
    """A small text member, then three 4 MB zero runs (~4 KB each)."""
    bomb = stdgzip.compress(bytes(4 << 20), 6)
    return stdgzip.compress(generate("markov_text", 20000, seed=53), 6) \
        + bomb * 3


class TestSerialParity:
    """The serial indexing decode must match the stdlib decoders
    bit-for-bit."""

    @pytest.mark.parametrize("name", ["empty", "one", "tiny", "text",
                                      "json", "random", "binary",
                                      "zeros"])
    def test_gzip_suite(self, payload_suite, name):
        data = payload_suite[name]
        blob = gzip_compress(data, level=6)
        result = decode_indexed(blob, "gzip")
        assert result.data == data == stdgzip.decompress(blob)
        assert result.index.members == 1

    @pytest.mark.parametrize("name", ["text", "random", "zeros"])
    def test_zlib_suite(self, payload_suite, name):
        data = payload_suite[name]
        blob = zlib_compress(data, level=6)
        assert decode_indexed(blob, "zlib").data \
            == stdzlib.decompress(blob) == data

    def test_raw_stream(self, text_20k):
        body = deflate(text_20k, level=6).data
        assert decode_indexed(body, "raw").data == text_20k

    @pytest.mark.parametrize("fmt", ["gzip", "zlib", "raw"])
    def test_stdlib_streams(self, fmt):
        data = generate("source_code", 150000, seed=48)
        wbits = {"gzip": 31, "zlib": 15, "raw": -15}[fmt]
        comp = stdzlib.compressobj(6, stdzlib.DEFLATED, wbits)
        blob = comp.compress(data) + comp.flush()
        result = decode_indexed(blob, fmt)
        assert result.data == data and result.index.members == 1

    def test_multi_member_gzip(self, text_20k, json_20k, random_8k):
        parts = [text_20k, random_8k, b"tiny", json_20k]
        archive = b"".join(gzip_compress(p, level=6) for p in parts)
        result = decode_indexed(archive, "gzip")
        assert result.data == b"".join(parts) \
            == stdgzip.decompress(archive)
        assert result.index.members == 4

    def test_stored_blocks_level0(self, text_20k):
        blob = gzip_compress(text_20k, level=0)
        assert decode_indexed(blob, "gzip").data == text_20k

    def test_stdlib_members_interleaved(self, text_20k, json_20k):
        archive = stdgzip.compress(text_20k, 9) \
            + gzip_compress(json_20k, level=6) \
            + stdgzip.compress(b"x", 1)
        assert decode_indexed(archive, "gzip").data \
            == text_20k + json_20k + b"x"

    def test_stored_member_archive(self):
        parts = [generate("json_records", 40000, seed=46),
                 generate("random_bytes", 30000, seed=47)]
        archive = gzip_compress(parts[0], level=0) \
            + gzip_compress(parts[1], level=6)
        assert decode_indexed(archive, "gzip").data == b"".join(parts)

    @pytest.mark.parametrize("decoy", ["junk", "whole-member"])
    def test_false_member_magic_in_stored_block(self, decoy):
        """A member magic inside a stored block — even an embedded .gz
        that decodes and verifies — is data, not a member boundary."""
        inner = {"junk": b"\x1f\x8b\x08\x00" + bytes(range(200)),
                 "whole-member": stdgzip.compress(
                     generate("log_lines", 40000, seed=54), 6)}[decoy]
        plain = generate("markov_text", 10000, seed=55) + inner \
            + generate("markov_text", 10000, seed=56)
        blob = gzip_compress(plain, level=0)
        result = decode_indexed(blob, "gzip")
        assert result.data == plain == stdgzip.decompress(blob)
        assert result.index.members == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_archives(self, seed):
        rng = random.Random(0x5EED + seed)
        parts, members = [], []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.choice(["markov_text", "json_records",
                               "random_bytes", "zero_bytes"])
            data = generate(kind, rng.randrange(1, 50000), seed=seed)
            parts.append(data)
            members.append(gzip_compress(data,
                                         level=rng.choice([0, 1, 6, 9])))
        archive = b"".join(members)
        plain = b"".join(parts)
        assert plain == stdgzip.decompress(archive)
        result = decode_indexed(archive, "gzip", index_spacing=4096)
        assert result.data == plain
        assert result.index.members == len(members)


class TestValidation:
    def test_unknown_format(self):
        with pytest.raises(DeflateError):
            decode_indexed(b"\x00" * 32, "brotli")

    def test_gzip_crc_mismatch(self, text_20k):
        blob = bytearray(gzip_compress(text_20k, level=6))
        blob[-5] ^= 0xFF  # inside the CRC32 trailer field
        with pytest.raises(ChecksumError):
            decode_indexed(bytes(blob), "gzip")

    def test_zlib_adler_mismatch(self, text_20k):
        blob = bytearray(zlib_compress(text_20k, level=6))
        blob[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_indexed(bytes(blob), "zlib")

    def test_trailing_garbage_rejected(self, text_20k):
        blob = gzip_compress(text_20k, level=6) + b"not a member"
        with pytest.raises(DeflateError):
            decode_indexed(blob, "gzip")

    def test_max_output_enforced(self, text_20k):
        blob = gzip_compress(text_20k, level=6)
        with pytest.raises(OutputOverflow):
            decode_indexed(blob, "gzip", max_output=100)

    def test_truncated_gzip(self, text_20k):
        blob = gzip_compress(text_20k, level=6)
        with pytest.raises(DeflateError):
            decode_indexed(blob[:len(blob) // 2], "gzip")

    def test_zero_bomb_stops_at_the_cap(self):
        """The budget reaches the block walker: a member that would
        expand to 4 MB is abandoned at the cap, not after it has been
        materialised (the peak also holds first-use decoder tables)."""
        archive = _zero_bomb_archive()
        tracemalloc.start()
        try:
            with pytest.raises(OutputOverflow):
                decode_indexed(archive, "gzip", max_output=65536)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak  # half of one bomb member


class TestResultIndex:
    def test_build_index_and_read_range(self):
        parts = [generate("csv_table", 90000, seed=51),
                 generate("log_lines", 90000, seed=52)]
        plain = b"".join(parts)
        blob = b"".join(gzip_compress(p, level=6) for p in parts)
        result = decode_indexed(blob, "gzip", index_spacing=32768)
        rr = read_range(blob, 120000, 5000, index=result.index)
        assert rr.data == plain[120000:125000]
        assert rr.skipped_bytes > 0

    def test_points_at_member_body_starts(self):
        # Multi-member: body starts are always recorded, so the index
        # is guaranteed at least one point per member.
        parts = [generate("markov_text", 50000, seed=49 + i)
                 for i in range(3)]
        blob = b"".join(gzip_compress(p, level=6) for p in parts)
        result = decode_indexed(blob, "gzip", index_spacing=16384)
        assert result.data == b"".join(parts)
        offs = [p.out_offset for p in result.index.points]
        assert offs == sorted(offs) and len(offs) >= 3
        assert 50000 in offs and 100000 in offs  # member body starts
