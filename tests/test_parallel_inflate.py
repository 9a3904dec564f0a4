"""Parallel inflate: byte parity for every worker count.

The engine has three moving parts — the worker-side member-run decoder,
the parent-side resolver that splices a run or decodes inline, and the
container bookkeeping (multi-member gzip, zlib Adler, raw history).
Most tests drive the machinery *inline* (plan jobs, run
``inflate_chunk_job`` on each, resolve) so the splice logic is
exercised deterministically; the pooled cases go through the real
(session-warm) process pool end-to-end.  A planned job carries its own
byte range of the payload, so it runs here exactly as it would there.
"""

import gzip as stdgzip
import random
import tracemalloc
import zlib as stdzlib

import pytest

from repro.deflate.compress import deflate
from repro.deflate.containers import gzip_compress, wrap_gzip, zlib_compress
from repro.deflate.parallel_inflate import (
    _plan_jobs, _Resolver, inflate_chunk_job, parallel_inflate,
    read_range)
from repro.errors import ChecksumError, DeflateError, OutputOverflow
from repro.workloads.generators import generate


def _speculative(payload: bytes, fmt: str = "gzip", *,
                 chunk_size: int = 8192, history: bytes = b"",
                 build_index: bool = False, spacing: int = 65536):
    """The pooled path, run inline: every planned member run is decoded
    in-process and handed to the resolver exactly as pool records are."""
    jobs = _plan_jobs(payload, fmt, chunk_size)
    spacing = spacing if build_index else None
    records = [inflate_chunk_job(spacing=spacing, **job) for job in jobs]
    specs = {record["start_bit"]: record
             for record in records if record["ok"]}
    resolver = _Resolver(payload, fmt, specs, spacing, 1 << 62)
    resolver.open(history)
    resolver.run()
    counters = {"used": resolver.used, "serial": resolver.serial}
    return bytes(resolver.out), counters, resolver


def _zero_bomb_archive() -> bytes:
    """A small text member, then three 4 MB zero runs (~4 KB each)."""
    bomb = stdgzip.compress(bytes(4 << 20), 6)
    return stdgzip.compress(generate("markov_text", 20000, seed=53), 6) \
        + bomb * 3


class TestSerialParity:
    """workers=1 must match the stdlib decoders bit-for-bit."""

    @pytest.mark.parametrize("name", ["empty", "one", "tiny", "text",
                                      "json", "random", "binary",
                                      "zeros"])
    def test_gzip_suite(self, payload_suite, name):
        data = payload_suite[name]
        blob = gzip_compress(data, level=6)
        result = parallel_inflate(blob, "gzip", workers=1)
        assert result.data == data == stdgzip.decompress(blob)
        assert result.members == 1

    @pytest.mark.parametrize("name", ["text", "random", "zeros"])
    def test_zlib_suite(self, payload_suite, name):
        data = payload_suite[name]
        blob = zlib_compress(data, level=6)
        assert parallel_inflate(blob, "zlib", workers=1).data \
            == stdzlib.decompress(blob) == data

    def test_raw_stream(self, text_20k):
        body = deflate(text_20k, level=6).data
        assert parallel_inflate(body, "raw", workers=1).data == text_20k

    def test_raw_with_history(self, text_20k):
        history, data = text_20k[:8000], text_20k[8000:]
        body = deflate(data, level=6, history=history).data
        assert parallel_inflate(body, "raw", workers=1,
                                history=history).data == data

    def test_multi_member_gzip(self, text_20k, json_20k, random_8k):
        parts = [text_20k, random_8k, b"tiny", json_20k]
        archive = b"".join(gzip_compress(p, level=6) for p in parts)
        result = parallel_inflate(archive, "gzip", workers=1)
        assert result.data == b"".join(parts) \
            == stdgzip.decompress(archive)
        assert result.members == 4

    def test_stored_blocks_level0(self, text_20k):
        blob = gzip_compress(text_20k, level=0)
        assert parallel_inflate(blob, "gzip", workers=1).data == text_20k

    def test_stdlib_members_interleaved(self, text_20k, json_20k):
        archive = stdgzip.compress(text_20k, 9) \
            + gzip_compress(json_20k, level=6) \
            + stdgzip.compress(b"x", 1)
        assert parallel_inflate(archive, "gzip", workers=1).data \
            == text_20k + json_20k + b"x"


class TestValidation:
    def test_unknown_format(self):
        with pytest.raises(DeflateError):
            parallel_inflate(b"\x00" * 32, "brotli")

    def test_history_rejected_for_containers(self, text_20k):
        blob = gzip_compress(text_20k, level=6)
        with pytest.raises(DeflateError):
            parallel_inflate(blob, "gzip", history=b"abc")

    def test_tiny_chunk_size_rejected(self, text_20k):
        blob = gzip_compress(text_20k, level=6)
        with pytest.raises(DeflateError):
            parallel_inflate(blob, "gzip", chunk_size=1024)

    def test_gzip_crc_mismatch(self, text_20k):
        blob = bytearray(gzip_compress(text_20k, level=6))
        blob[-5] ^= 0xFF  # inside the CRC32 trailer field
        with pytest.raises(ChecksumError):
            parallel_inflate(bytes(blob), "gzip", workers=1)

    def test_zlib_adler_mismatch(self, text_20k):
        blob = bytearray(zlib_compress(text_20k, level=6))
        blob[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            parallel_inflate(bytes(blob), "zlib", workers=1)

    def test_trailing_garbage_rejected(self, text_20k):
        blob = gzip_compress(text_20k, level=6) + b"not a member"
        with pytest.raises(DeflateError):
            parallel_inflate(blob, "gzip", workers=1)

    def test_max_output_enforced(self, text_20k):
        blob = gzip_compress(text_20k, level=6)
        with pytest.raises(OutputOverflow):
            parallel_inflate(blob, "gzip", workers=1, max_output=100)

    def test_truncated_gzip(self, text_20k):
        blob = gzip_compress(text_20k, level=6)
        with pytest.raises(DeflateError):
            parallel_inflate(blob[:len(blob) // 2], "gzip", workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_bomb_stops_at_the_cap(self, workers):
        """The budget reaches the block walker: a member that would
        expand to 4 MB is abandoned at the cap, not after it has been
        materialised (the peak also holds first-use decoder tables)."""
        archive = _zero_bomb_archive()
        tracemalloc.start()
        try:
            with pytest.raises(OutputOverflow):
                parallel_inflate(archive, "gzip", workers=workers,
                                 chunk_size=4096, max_output=65536)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak  # half of one bomb member

    def test_zero_bomb_member_run_fails_at_the_cap(self):
        """Worker side of the same bound: the run is a failed job (the
        resolver raises, in stream order), and it never held 4 MB."""
        archive = _zero_bomb_archive()
        jobs = _plan_jobs(archive, "gzip", 4096)
        assert jobs
        tracemalloc.start()
        try:
            records = [inflate_chunk_job(max_output=65536, **job)
                       for job in jobs]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records == [{"ok": False}] * len(jobs)
        assert peak < 2 << 20, peak  # half of one bomb member


class TestSpeculativeResolve:
    """Member-run splice parity and fallback behaviour."""

    @pytest.mark.parametrize("fmt", ["gzip", "zlib", "raw"])
    def test_window_unknown_streams_plan_no_jobs(self, fmt):
        """No member boundary past the first chunk, no restart point:
        nothing is planned and the stream decodes inline."""
        data = generate("source_code", 150000, seed=48)
        wbits = {"gzip": 31, "zlib": 15, "raw": -15}[fmt]
        comp = stdzlib.compressobj(6, stdzlib.DEFLATED, wbits)
        blob = comp.compress(data) + comp.flush()
        assert _plan_jobs(blob, fmt, 8192) == []
        result = parallel_inflate(blob, fmt, workers=2, chunk_size=8192)
        assert result.data == data
        assert result.chunks_speculated == 0
        assert result.chunks_used == 0 and result.serial_segments == 1

    def test_incompressible_falls_back_serially(self):
        data = generate("random_bytes", 120000, seed=42)
        blob = gzip_compress(data, level=6)
        out, counters, _ = _speculative(blob, chunk_size=8192)
        # One member of literal soup: whatever magic-looking bytes it
        # holds, nothing can be spliced and the bytes stay golden.
        assert out == data
        assert counters["used"] == 0 and counters["serial"] >= 1

    @pytest.mark.parametrize("decoy", ["junk", "whole-member"])
    def test_false_member_magic_in_stored_block(self, decoy):
        """A member magic inside a stored block is planned as a job —
        even one that decodes and verifies, as an embedded .gz does —
        but the resolver never arrives there by way of a trailer."""
        inner = {"junk": b"\x1f\x8b\x08\x00" + bytes(range(200)),
                 "whole-member": stdgzip.compress(
                     generate("log_lines", 40000, seed=54), 6)}[decoy]
        plain = generate("markov_text", 10000, seed=55) + inner \
            + generate("markov_text", 10000, seed=56)
        blob = gzip_compress(plain, level=0)
        jobs = _plan_jobs(blob, "gzip", 4096)
        assert [job["header_byte"] for job in jobs] \
            == [blob.index(inner)]
        assert inflate_chunk_job(**jobs[0])["ok"] \
            == (decoy == "whole-member")
        for workers in (1, 2):
            result = parallel_inflate(blob, "gzip", workers=workers,
                                      chunk_size=4096)
            assert result.data == plain == stdgzip.decompress(blob)
            assert result.members == 1 and result.chunks_used == 0
            assert result.chunks_failed == result.chunks_speculated \
                == workers - 1

    def test_multi_member_member_jobs(self):
        parts = [generate("markov_text", 60000, seed=s)
                 for s in (43, 44, 45)]
        archive = b"".join(gzip_compress(p, level=6) for p in parts)
        out, counters, resolver = _speculative(archive, chunk_size=8192)
        assert out == b"".join(parts)
        assert resolver.members == 3

    def test_stored_member_archive(self):
        parts = [generate("json_records", 40000, seed=46),
                 generate("random_bytes", 30000, seed=47)]
        archive = gzip_compress(parts[0], level=0) \
            + gzip_compress(parts[1], level=6)
        out, _, _ = _speculative(archive, chunk_size=4096)
        assert out == b"".join(parts)

    def test_index_built_during_resolve(self):
        # Multi-member: body starts are always recorded, so the index
        # is guaranteed at least one point per member.
        parts = [generate("markov_text", 50000, seed=49 + i)
                 for i in range(3)]
        blob = b"".join(gzip_compress(p, level=6) for p in parts)
        out, _, resolver = _speculative(blob, build_index=True,
                                        spacing=16384)
        assert out == b"".join(parts)
        offs = [p.out_offset for p in resolver.points]
        assert offs == sorted(offs) and len(offs) >= 3
        assert 50000 in offs and 100000 in offs  # member body starts

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_speculative_archives(self, seed):
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
        out, _, _ = _speculative(archive, chunk_size=4096)
        assert out == plain
        for workers in (1, 2):  # and through the real pool
            result = parallel_inflate(archive, "gzip", workers=workers,
                                      chunk_size=4096)
            assert result.data == plain, workers
            assert result.members == len(members)


class TestPooledPath:
    def test_pool_parity_and_result_counts(self):
        parts = [generate("markov_text", 50000, seed=50 + i)
                 for i in range(3)]
        blob = b"".join(gzip_compress(p, level=6) for p in parts)
        result = parallel_inflate(blob, "gzip", workers=2,
                                  chunk_size=8192)
        assert result.data == b"".join(parts)
        assert result.workers == 2 and result.members == 3
        assert result.chunks_used >= 1
        assert result.chunks_used + result.chunks_failed \
            == result.chunks_speculated

    def test_index_points_independent_of_workers(self):
        """Runs that stop inside a member hand over mid-spacing; the
        seek points must land where the inline decode puts them."""
        parts = [generate("markov_text", 60000, seed=57 + i)
                 for i in range(3)]
        blob = b"".join(
            wrap_gzip(deflate(p, 6, block_tokens=1024).data, p)
            for p in parts)
        serial = parallel_inflate(blob, "gzip", workers=1,
                                  build_index=True, index_spacing=8192)
        pooled = parallel_inflate(blob, "gzip", workers=2,
                                  chunk_size=8192, build_index=True,
                                  index_spacing=8192)
        assert pooled.chunks_used >= 2
        assert len(serial.index.points) > 3 * 4  # interior points too
        assert pooled.index == serial.index
        assert pooled.data == serial.data == b"".join(parts)


class TestResultIndex:
    def test_build_index_and_read_range(self):
        parts = [generate("csv_table", 90000, seed=51),
                 generate("log_lines", 90000, seed=52)]
        plain = b"".join(parts)
        blob = b"".join(gzip_compress(p, level=6) for p in parts)
        result = parallel_inflate(blob, "gzip", workers=1,
                                  build_index=True, index_spacing=32768)
        assert result.index is not None
        rr = read_range(blob, 120000, 5000, index=result.index)
        assert rr.data == plain[120000:125000]
        assert rr.skipped_bytes > 0
