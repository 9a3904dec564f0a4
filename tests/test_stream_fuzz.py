"""Stateful streaming fuzz: randomized chunk-boundary schedules.

The streaming layers hold state between calls — a 32 KB history window
on the compress side, a partially decoded element plus buffered bits on
the inflate side — so their bugs live at chunk *boundaries*: a split
mid-Huffman-code, a zero-length write, a flush followed by more data.
These tests drive them with seeded random schedules (boundaries placed
anywhere, including empty chunks and 1-byte feeds) and hold the whole
family to one oracle: byte parity with the one-shot path (stdlib's,
for :class:`DecompressStream` over every container).
"""

from __future__ import annotations

import gzip
import random
import zlib

import pytest

from repro import NxGzip
from repro.deflate.inflate import inflate_with_stats
from repro.deflate.inflate_stream import InflateStream
from repro.deflate.stream import DecompressStream
from repro.errors import DeflateError, StreamStateError
from tests.test_inflate_stream import inflate_incremental
from repro.workloads.generators import generate

SEEDS = (3, 17, 101, 424243)


def random_schedule(rng: random.Random, total: int,
                    zero_chunks: bool = True) -> list[int]:
    """Chunk sizes summing to ``total``, with occasional empty chunks."""
    sizes: list[int] = []
    remaining = total
    while remaining > 0:
        if zero_chunks and rng.random() < 0.15:
            sizes.append(0)
            continue
        step = rng.choice((1, 7, rng.randint(1, 97),
                           rng.randint(1, 4096),
                           rng.randint(1, max(1, remaining))))
        step = min(step, remaining)
        sizes.append(step)
        remaining -= step
    if zero_chunks:
        sizes.append(0)
    return sizes


def split(data: bytes, sizes: list[int]) -> list[bytes]:
    chunks, offset = [], 0
    for size in sizes:
        chunks.append(data[offset:offset + size])
        offset += size
    assert offset == len(data)
    return chunks


@pytest.fixture(scope="module")
def corpus() -> dict[str, bytes]:
    return {
        "text": generate("markov_text", 60000, seed=31),
        "json": generate("json_records", 60000, seed=32),
        "binary": generate("binary_executable", 40000, seed=33),
        "random": generate("random_bytes", 16384, seed=34),
        "zeros": bytes(30000),
    }


class TestCompressStreamFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fmt", ["gzip", "zlib", "raw"])
    def test_random_boundaries_round_trip(self, corpus, seed, fmt):
        rng = random.Random(seed)
        name = rng.choice(sorted(corpus))
        data = corpus[name]
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt=fmt)
            out = b""
            for chunk in split(data, random_schedule(rng, len(data))):
                out += stream.write(chunk)
            out += stream.finish()
        if fmt == "gzip":
            assert gzip.decompress(out) == data
        elif fmt == "zlib":
            assert zlib.decompress(out) == data
        else:
            assert zlib.decompress(out, wbits=-15) == data

    @pytest.mark.parametrize("seed", SEEDS)
    def test_parity_with_one_shot(self, corpus, seed):
        """Chunked and one-shot agree on the *decompressed* bytes for
        every schedule (the wire bytes legitimately differ: block
        boundaries follow the chunking)."""
        rng = random.Random(seed * 7)
        data = corpus["json"]
        with NxGzip("POWER9") as session:
            one_shot = session.compress(data, fmt="gzip").data
            stream = session.compress_stream(fmt="gzip")
            chunked = b"".join(
                stream.write(c)
                for c in split(data, random_schedule(rng, len(data))))
            chunked += stream.finish()
        assert gzip.decompress(one_shot) == gzip.decompress(chunked)

    def test_all_zero_length_chunks(self):
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="gzip")
            out = stream.write(b"") + stream.write(b"") + stream.finish()
        assert gzip.decompress(out) == b""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_flush_points_decode_incrementally(self, seed):
        """Every non-final unit ends in a sync flush, so a reader can
        decode unit-by-unit without waiting for the stream to close."""
        rng = random.Random(seed + 99)
        data = generate("log_lines", 50000, seed=seed)
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="raw")
            units = [stream.write(c) for c in
                     split(data, random_schedule(rng, len(data),
                                                 zero_chunks=False))]
            units.append(stream.finish())
        reader = DecompressStream("raw")
        restored = b"".join(reader.feed(u) for u in units)
        assert restored + reader.finish() == data
        # And the reassembled raw stream is a valid one-shot stream.
        assert zlib.decompress(b"".join(units), wbits=-15) == data

    def test_write_after_finish_raises(self):
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="gzip")
            stream.finish(b"done")
            with pytest.raises(StreamStateError):
                stream.write(b"more")

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_interleaved_history_windows(self, seed):
        """Chunks larger than the 32 KB window still carry the right
        history into every continuation request."""
        rng = random.Random(seed)
        data = generate("markov_text", 150000, seed=seed)
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="gzip")
            out = b""
            offset = 0
            while offset < len(data):
                step = rng.choice((1000, 33000, 65536))
                out += stream.write(data[offset:offset + step])
                offset += step
            out += stream.finish()
        assert gzip.decompress(out) == data


class TestInflateStreamFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_random_feed_boundaries(self, corpus, seed, level):
        """Arbitrary splits — mid-header, mid-code, 1-byte feeds — all
        decode to exactly the one-shot plaintext."""
        rng = random.Random(seed * 13 + level)
        name = rng.choice(sorted(corpus))
        data = corpus[name]
        payload = zlib.compress(data, level)[2:-4]  # raw deflate
        chunks = split(payload, random_schedule(rng, len(payload)))
        assert inflate_incremental(chunks) == data

    @pytest.mark.parametrize("seed", SEEDS)
    def test_parity_with_one_shot_inflate(self, seed):
        rng = random.Random(seed)
        data = generate("json_records", 40000, seed=seed)
        payload = zlib.compress(data, 6)[2:-4]
        one_shot, _stats, _bits = inflate_with_stats(payload)
        chunks = split(payload, random_schedule(rng, len(payload)))
        stream = InflateStream()
        out = bytearray()
        for chunk in chunks:
            out += stream.feed(chunk)
        out += stream.finish()
        assert bytes(out) == one_shot == data

    def test_byte_at_a_time(self):
        data = generate("markov_text", 8000, seed=5)
        payload = zlib.compress(data, 9)[2:-4]
        stream = InflateStream()
        out = bytearray()
        for i in range(len(payload)):
            out += stream.feed(payload[i:i + 1])
        out += stream.finish()
        assert bytes(out) == data

    def test_finished_flag_and_trailing_data(self):
        data = b"finished-flag " * 500
        payload = zlib.compress(data, 6)[2:-4]
        stream = InflateStream()
        stream.feed(payload)
        stream.finish()
        assert stream.finished
        with pytest.raises(DeflateError):
            stream.feed(b"\x00extra")

    def test_truncated_stream_is_typed_error(self):
        data = generate("json_records", 20000, seed=9)
        payload = zlib.compress(data, 6)[2:-4]
        stream = InflateStream()
        stream.feed(payload[:len(payload) // 2])
        with pytest.raises(DeflateError):
            stream.finish()

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_stream_output_feeds_inflate_stream(self, seed):
        """End-to-end cross-layer fuzz: the NX streaming compressor's
        raw output, re-split on fresh random boundaries, through the
        incremental decoder."""
        rng = random.Random(seed + 1000)
        data = generate("log_lines", 60000, seed=seed)
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="raw")
            wire = b"".join(
                stream.write(c) for c in
                split(data, random_schedule(rng, len(data))))
            wire += stream.finish()
        chunks = split(wire, random_schedule(rng, len(wire)))
        assert inflate_incremental(chunks) == data


def _feed_all(stream: DecompressStream, chunks: list[bytes]) -> bytes:
    out = b"".join(stream.feed(chunk) for chunk in chunks)
    return out + stream.finish()


class TestDecompressStreamFuzz:
    """Every container, in random chunkings, against stdlib's decoders."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_member_gzip(self, corpus, seed):
        rng = random.Random(seed * 31)
        names = [rng.choice(sorted(corpus)) for _ in range(3)]
        members = [gzip.compress(corpus[name][:rng.randint(0, 20000)],
                                 compresslevel=rng.choice((1, 6, 9)),
                                 mtime=0) for name in names]
        archive = b"".join(members)
        stream = DecompressStream("gzip")
        chunks = split(archive, random_schedule(rng, len(archive)))
        assert _feed_all(stream, chunks) == gzip.decompress(archive)
        assert stream.members_read == len(members)
        assert stream.finished

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("primed", [False, True], ids=["plain", "fdict"])
    def test_zlib(self, corpus, seed, primed):
        rng = random.Random(seed * 37 + primed)
        data = corpus[rng.choice(sorted(corpus))]
        zdict = corpus["json"][:rng.randint(1, 40000)] if primed else b""
        packer = zlib.compressobj(6, zlib.DEFLATED, 15,
                                  **({"zdict": zdict} if primed else {}))
        payload = packer.compress(data) + packer.flush()
        assert bool(payload[1] & 0x20) == primed  # FDICT
        stream = DecompressStream("zlib", zdict=zdict)
        chunks = split(payload, random_schedule(rng, len(payload)))
        assert _feed_all(stream, chunks) == data
        assert stream.members_read == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_with_zdict(self, corpus, seed):
        rng = random.Random(seed * 41)
        data = corpus[rng.choice(sorted(corpus))]
        zdict = corpus["text"][:rng.randint(1, 60000)]
        packer = zlib.compressobj(6, zlib.DEFLATED, -15, zdict=zdict)
        payload = packer.compress(data) + packer.flush()
        stream = DecompressStream("raw", zdict=zdict)
        chunks = split(payload, random_schedule(rng, len(payload)))
        assert _feed_all(stream, chunks) == data

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fmt", ["gzip", "zlib"])
    def test_trailing_bytes_raise(self, seed, fmt):
        """What follows a zlib stream, or a gzip member when it is not
        another member, is refused on ``feed`` or at ``finish``."""
        rng = random.Random(seed * 43)
        data = generate("markov_text", 5000, seed=seed)
        payload = (gzip.compress(data, mtime=0) if fmt == "gzip"
                   else zlib.compress(data))
        tail = rng.choice((b"\x00", b"junk", zlib.compress(b"x"),
                           bytes(rng.randrange(256) for _ in range(40))))
        wire = payload + tail
        stream = DecompressStream(fmt)
        with pytest.raises(DeflateError):
            _feed_all(stream, split(wire, random_schedule(rng, len(wire))))
