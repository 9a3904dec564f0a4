"""zlib strategies, multi-member gzip, and the file-set workload."""

import gzip as stdgzip
import zlib as stdzlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.compress import deflate
from repro.deflate.containers import (
    decode_with_stats,
    gzip_compress,
    gzip_decompress,
)
from repro.deflate.inflate import inflate
from repro.deflate.matcher import tokenize_huffman_only, tokenize_rle
from repro.errors import DeflateError
from repro.workloads.filesets import (MAX_BYTES, MIN_BYTES, FileSetSpec,
                                     make_fileset, total_bytes)
from repro.workloads.generators import generate


class TestHuffmanOnly:
    def test_no_matches(self, text_20k):
        tokens, stats = tokenize_huffman_only(text_20k)
        assert stats.matches == 0
        assert stats.literals == len(text_20k)
        assert all(isinstance(t, int) for t in tokens)

    def test_roundtrip_and_interop(self, text_20k):
        result = deflate(text_20k, strategy="huffman_only")
        assert inflate(result.data) == text_20k
        assert stdzlib.decompress(result.data, -15) == text_20k

    def test_size_close_to_stdlib(self, json_20k):
        ours = len(deflate(json_20k, strategy="huffman_only").data)
        comp = stdzlib.compressobj(6, stdzlib.DEFLATED, -15, 9,
                                   stdzlib.Z_HUFFMAN_ONLY)
        theirs = len(comp.compress(json_20k) + comp.flush())
        assert ours == pytest.approx(theirs, rel=0.03)

    def test_weaker_than_default(self, text_20k):
        huff = len(deflate(text_20k, strategy="huffman_only").data)
        default = len(deflate(text_20k).data)
        assert default < huff


class TestRle:
    def test_only_distance_one(self):
        data = b"aaaabbbbccccabcabc"
        tokens, _stats = tokenize_rle(data)
        for tok in tokens:
            if not isinstance(tok, int):
                assert tok[1] == 1

    def test_roundtrip_and_interop(self):
        data = generate("database_pages", 30000, seed=17)
        result = deflate(data, strategy="rle")
        assert inflate(result.data) == data
        assert stdzlib.decompress(result.data, -15) == data

    def test_matches_stdlib_size_exactly_on_runs(self):
        data = generate("database_pages", 30000, seed=7)
        ours = len(deflate(data, strategy="rle").data)
        comp = stdzlib.compressobj(6, stdzlib.DEFLATED, -15, 9,
                                   stdzlib.Z_RLE)
        theirs = len(comp.compress(data) + comp.flush())
        assert ours == pytest.approx(theirs, rel=0.02)

    def test_long_runs_collapse(self):
        result = deflate(b"x" * 100000, strategy="rle")
        assert len(result.data) < 1000

    def test_between_huffman_and_default_on_runs(self):
        data = generate("database_pages", 30000, seed=9)
        huff = len(deflate(data, strategy="huffman_only").data)
        rle = len(deflate(data, strategy="rle").data)
        default = len(deflate(data).data)
        assert default <= rle <= huff

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DeflateError):
            deflate(b"x", strategy="filtered")

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=2000))
    def test_rle_roundtrip_property(self, data):
        result = deflate(data, strategy="rle")
        assert inflate(result.data) == data


class TestMultiMemberGzip:
    def test_two_members(self, text_20k, json_20k):
        archive = gzip_compress(text_20k) + gzip_compress(json_20k)
        assert gzip_decompress(archive) == text_20k + json_20k

    def test_stdlib_agrees(self, text_20k, json_20k):
        archive = gzip_compress(text_20k) + gzip_compress(json_20k)
        assert stdgzip.decompress(archive) == text_20k + json_20k

    def test_we_decode_stdlib_members(self, text_20k):
        archive = stdgzip.compress(text_20k) + stdgzip.compress(b"tail")
        assert gzip_decompress(archive) == text_20k + b"tail"

    def test_member_length(self, text_20k):
        member = gzip_compress(text_20k)
        archive = member + gzip_compress(b"x")
        assert decode_with_stats(member, "gzip")[2] == len(member)
        assert decode_with_stats(archive, "gzip")[2] == len(archive)

    def test_single_member(self, text_20k):
        assert gzip_decompress(gzip_compress(text_20k)) == text_20k

    def test_empty_archive(self):
        # Unlike stdlib gzip.decompress, no bytes is not an archive: the
        # engines refuse an empty source too.
        with pytest.raises(DeflateError):
            gzip_decompress(b"")

    def test_bad_magic_mid_archive(self, text_20k):
        archive = gzip_compress(text_20k) + b"JUNK" * 5
        with pytest.raises(DeflateError):
            gzip_decompress(archive)


class TestFilesets:
    def test_deterministic(self):
        a = make_fileset(FileSetSpec(files=10, seed=3))
        b = make_fileset(FileSetSpec(files=10, seed=3))
        assert a == b

    def test_seed_changes_content(self):
        a = make_fileset(FileSetSpec(files=10, seed=3))
        b = make_fileset(FileSetSpec(files=10, seed=4))
        assert a != b

    def test_file_count_and_bounds(self):
        fileset = make_fileset(FileSetSpec(files=30, seed=1))
        assert len(fileset) == 30
        assert all(MIN_BYTES <= len(v) <= MAX_BYTES
                   for v in fileset.values())

    def test_total_bytes(self):
        fileset = make_fileset(FileSetSpec(files=5, seed=2))
        assert total_bytes(fileset) == sum(len(v)
                                           for v in fileset.values())

    def test_type_mix_present(self):
        fileset = make_fileset(FileSetSpec(files=80, seed=6))
        extensions = {name[name.rfind("."):] for name in fileset}
        assert len(extensions) >= 4  # a healthy mix at this size
