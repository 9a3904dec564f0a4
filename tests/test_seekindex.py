"""Seek index: serialisation safety and random reads that skip work.

The invariant under test: an index can be *lost* (unreadable blobs
raise the typed ``SeekIndexError`` and callers fall back to a full
decode) but it can never be *wrong* — no corruption of the sidecar may
steer ``read_range`` toward bytes that differ from decompress-then-
slice.

:func:`~repro.deflate.seekindex.decode_indexed`, the serial decode
``repro cat`` records an index with, must decode every stream the other
decoders do, byte for byte with the stdlib: verify every container
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
from repro.deflate.seekindex import (DEFAULT_SPACING, MAGIC, SeekIndex,
                                    decode_indexed, read_range)
from repro.errors import (ChecksumError, DeflateError, OutputOverflow,
                          ReproError, SeekIndexError)
from repro.obs.metrics import REGISTRY
from repro.workloads.generators import generate


@pytest.fixture(scope="module")
def archive():
    """Three-member gzip archive plus its plain bytes and index."""
    parts = [generate("markov_text", 80000, seed=61),
             generate("json_records", 60000, seed=62),
             generate("binary_executable", 50000, seed=63)]
    plain = b"".join(parts)
    blob = b"".join(gzip_compress(p, level=6) for p in parts)
    result = decode_indexed(blob, "gzip", index_spacing=32768)
    assert result.data == plain
    return blob, plain, result.index


class TestRoundTrip:
    def test_bytes_round_trip(self, archive):
        _, _, index = archive
        back = SeekIndex.from_bytes(index.to_bytes())
        assert back.fmt == index.fmt
        assert back.compressed_size == index.compressed_size
        assert back.output_size == index.output_size
        assert back.members == index.members
        assert back.points == index.points

    def test_save_load(self, archive, tmp_path):
        _, _, index = archive
        path = tmp_path / "a.rsix"
        index.save(path)
        assert SeekIndex.load(path).points == index.points

    def test_save_is_atomic_replace(self, archive, tmp_path,
                                    monkeypatch):
        """A crashed save never leaves a torn sidecar behind.

        The write goes to a same-directory temp file first; if the
        write dies, the old index must survive untouched and the temp
        file must be cleaned up.
        """
        import os

        _, _, index = archive
        path = tmp_path / "a.rsix"
        index.save(path)
        before = path.read_bytes()

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            index.save(path)
        monkeypatch.setattr(os, "replace", real_replace)
        # Old sidecar intact, no temp litter, still loads.
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.rsix"]
        assert SeekIndex.load(path).points == index.points

    def test_build_index_function(self, archive):
        blob, plain, _ = archive
        index = decode_indexed(blob, "gzip", index_spacing=32768).index
        assert index.output_size == len(plain)
        assert index.compressed_size == len(blob)
        rr = read_range(blob, 100000, 3000, index=index)
        assert rr.data == plain[100000:103000]

    def test_locate_monotonic(self, archive):
        _, _, index = archive
        offs = [p.out_offset for p in index.points]
        assert offs == sorted(offs)
        assert index.locate(0).out_offset == 0
        late = index.locate(index.output_size - 1)
        assert late.out_offset <= index.output_size - 1


class TestCorruption:
    """Every mutilation must raise SeekIndexError, never decode wrong."""

    def test_bad_magic(self, archive):
        _, _, index = archive
        blob = bytearray(index.to_bytes())
        blob[:4] = b"XSIX"
        with pytest.raises(SeekIndexError):
            SeekIndex.from_bytes(bytes(blob))

    def test_unknown_version(self, archive):
        _, _, index = archive
        blob = bytearray(index.to_bytes())
        blob[4] = 0xFF  # version low byte
        with pytest.raises(SeekIndexError):
            SeekIndex.from_bytes(bytes(blob))

    @pytest.mark.parametrize("cut", [0, 3, 10, 40, -5, -1])
    def test_truncation(self, archive, cut):
        _, _, index = archive
        blob = index.to_bytes()
        with pytest.raises(SeekIndexError):
            SeekIndex.from_bytes(blob[:cut if cut >= 0 else cut])

    @pytest.mark.parametrize("pos", [6, 20, 100, -8])
    def test_bit_flips_caught_by_crc(self, archive, pos):
        _, _, index = archive
        blob = bytearray(index.to_bytes())
        blob[pos] ^= 0x01
        with pytest.raises(SeekIndexError):
            SeekIndex.from_bytes(bytes(blob))

    def test_stray_trailing_bytes(self, archive):
        _, _, index = archive
        with pytest.raises(SeekIndexError):
            SeekIndex.from_bytes(index.to_bytes() + b"\x00")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SeekIndexError):
            SeekIndex.load(tmp_path / "nope.rsix")

    def test_magic_constant(self):
        assert MAGIC == b"RSIX"

    def test_mismatched_payload_rejected(self, archive):
        blob, _, index = archive
        with pytest.raises(SeekIndexError):
            read_range(blob[:-1], 0, 10, index=index)


class TestReadRange:
    @pytest.mark.parametrize("kind", ["markov_text", "json_records",
                                      "random_bytes", "zero_bytes",
                                      "csv_table", "dna_sequence"])
    def test_golden_parity_per_family(self, kind):
        parts = [generate(kind, 45000, seed=s) for s in (71, 72)]
        plain = b"".join(parts)
        blob = b"".join(gzip_compress(p, level=6) for p in parts)
        result = decode_indexed(blob, "gzip", index_spacing=16384)
        for off in (0, 1, 44999, 45000, 60001, len(plain) - 10):
            rr = read_range(blob, off, 4096, index=result.index)
            assert rr.data == plain[off:off + 4096], (kind, off)

    def test_prefix_is_skipped(self, archive):
        blob, plain, index = archive
        off = 150000
        rr = read_range(blob, off, 2000, index=index)
        assert rr.data == plain[off:off + 2000]
        assert rr.skipped_bytes > 0
        assert rr.decoded_bytes < len(plain)
        assert rr.skipped_bytes + rr.decoded_bytes >= off + 2000

    def test_read_crossing_member_boundary(self, archive):
        blob, plain, index = archive
        off = 80000 - 500  # straddles member 0 -> 1
        rr = read_range(blob, off, 1000, index=index)
        assert rr.data == plain[off:off + 1000]

    def test_clip_past_end(self, archive):
        blob, plain, index = archive
        rr = read_range(blob, len(plain) - 100, 5000, index=index)
        assert rr.data == plain[-100:]

    def test_zero_length(self, archive):
        blob, _, index = archive
        assert read_range(blob, 1000, 0, index=index).data == b""

    def test_negative_rejected(self, archive):
        blob, _, index = archive
        with pytest.raises(DeflateError):
            read_range(blob, -1, 10, index=index)
        with pytest.raises(DeflateError):
            read_range(blob, 0, -10, index=index)

    def test_zlib_index_round_trip(self):
        data = generate("markov_text", 90000, seed=73)
        blob = zlib_compress(data, level=6)
        result = decode_indexed(blob, "zlib", index_spacing=16384)
        rr = read_range(blob, 40000, 1000, index=result.index)
        assert rr.data == data[40000:41000]

    def test_metrics_record_skip(self, archive):
        blob, plain, index = archive
        REGISTRY.enabled = True
        try:
            REGISTRY.reset()
            read_range(blob, 150000, 1024, index=index)
            snap = REGISTRY.snapshot()
            skipped = snap["repro_inflate_range_skipped_bytes_total"]
            assert skipped["values"][0]["value"] > 0
            reads = snap["repro_inflate_random_reads_total"]
            assert reads["values"][0]["value"] == 1
        finally:
            REGISTRY.enabled = False
            REGISTRY.reset()

    def test_default_spacing_sane(self):
        assert DEFAULT_SPACING == 1 << 20


class TestReproErrorHierarchy:
    def test_seekindexerror_is_reproerror_not_deflate(self):
        assert issubclass(SeekIndexError, ReproError)
        assert not issubclass(SeekIndexError, DeflateError)


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
