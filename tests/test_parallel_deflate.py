"""Chunked-parallel compression: determinism, seams, and the backend."""

from __future__ import annotations

import zlib

import pytest

from repro.backend.registry import backend_names, create_backend
from repro.deflate import deflate, inflate, parallel_deflate
from repro.deflate.constants import WINDOW_SIZE
from repro.errors import DeflateError
from repro.workloads.generators import generate

CHUNK = 1 << 15


@pytest.fixture(scope="module")
def corpus() -> bytes:
    return generate("markov_text", 120000, seed=31)


def test_output_is_one_valid_stream(corpus):
    result = parallel_deflate(corpus, level=6, chunk_size=CHUNK, workers=1)
    assert zlib.decompress(result.data, -15) == corpus
    assert inflate(result.data) == corpus
    assert result.stats.input_bytes == len(corpus)


def test_identical_bytes_for_every_worker_count(corpus):
    outs = [parallel_deflate(corpus, level=6, chunk_size=CHUNK,
                             workers=w).data for w in (1, 2, 4)]
    assert outs[0] == outs[1] == outs[2]


def test_empty_and_tiny_inputs():
    assert zlib.decompress(parallel_deflate(b"").data, -15) == b""
    assert zlib.decompress(parallel_deflate(b"x").data, -15) == b"x"


def test_single_chunk_matches_serial_deflate(corpus):
    """One chunk means no seams: bytes equal the serial compressor's."""
    small = corpus[:20000]
    assert parallel_deflate(small, level=6).data == deflate(
        small, level=6).data


def test_cross_chunk_history_priming():
    """Chunk 2 is a copy of chunk 1; the seam window must catch it.

    A random block makes the effect unambiguous: its trigrams repeat
    nowhere inside a chunk, so every chunk-2 match must reach across the
    seam into the primed window — without priming the copy is
    incompressible noise.  The block is kept just under the window size:
    a window-aligned copy sits at distance 32768, which the matcher
    (like zlib's) cannot reach.
    """
    size = WINDOW_SIZE - 4096
    block = generate("random_bytes", size, seed=32)
    doubled = block + block
    primed = parallel_deflate(doubled, level=6, chunk_size=size, workers=1)
    unprimed = deflate(block, level=6, final=False).data + deflate(
        block, level=6).data
    assert zlib.decompress(primed.data, -15) == doubled
    assert len(primed.data) < 0.6 * len(unprimed)


def test_final_false_is_continuable(corpus):
    head, tail = corpus[:70000], corpus[70000:]
    cont = parallel_deflate(head, level=6, chunk_size=CHUNK,
                            final=False).data
    fin = deflate(tail, level=6, history=head[-WINDOW_SIZE:]).data
    assert zlib.decompress(cont + fin, -15) == corpus


def test_history_primes_first_chunk(corpus):
    history = generate("markov_text", 40000, seed=33)
    result = parallel_deflate(corpus[:60000], level=6, chunk_size=CHUNK,
                              history=history)
    decoder = zlib.decompressobj(wbits=-15, zdict=history[-WINDOW_SIZE:])
    assert decoder.decompress(result.data) == corpus[:60000]


def test_bad_chunk_size_rejected():
    with pytest.raises(DeflateError, match="chunk_size"):
        parallel_deflate(b"data", chunk_size=0)


def test_stats_match_worker_count_invariance(corpus):
    one = parallel_deflate(corpus, level=6, chunk_size=CHUNK, workers=1)
    two = parallel_deflate(corpus, level=6, chunk_size=CHUNK, workers=2)
    assert one.stats == two.stats
    assert one.blocks == two.blocks


class TestSoftwareParallelBackend:
    def test_registered(self):
        assert "software-parallel" in backend_names()

    @pytest.fixture()
    def backend(self):
        backend = create_backend("software-parallel", machine="power9",
                                 workers=2, chunk_size=CHUNK)
        yield backend
        backend.close()

    def test_raw_roundtrip(self, backend, corpus):
        out = backend.compress(corpus, fmt="raw")
        assert zlib.decompress(out.output, -15) == corpus
        back = backend.decompress(out.output, fmt="raw")
        assert back.output == corpus

    def test_gzip_and_zlib_frames(self, backend, corpus):
        import gzip
        data = corpus[:50000]
        assert gzip.decompress(backend.compress(data, fmt="gzip").output
                               ) == data
        assert zlib.decompress(backend.compress(data, fmt="zlib").output
                               ) == data

    def test_small_payload_decodes_inline(self, backend):
        """Decompression is the software backend's: one submission,
        modelled time for one core."""
        import gzip
        data = generate("random_bytes", 12000, seed=9)
        back = backend.decompress(gzip.compress(data), fmt="gzip")
        assert back.output == data
        assert back.stats.submissions == 1
        assert back.stats.elapsed_seconds == pytest.approx(
            backend._cost.decompress_seconds(len(data)))

    def test_pool_usability(self, corpus):
        from repro.backend.pool import AcceleratorPool
        pool = AcceleratorPool("power9", chips=2, backend="software-parallel",
                               workers=2, chunk_size=CHUNK)
        out = pool.compress(corpus[:50000], fmt="raw")
        assert zlib.decompress(out.output, -15) == corpus[:50000]

    def test_capabilities_scale_with_workers(self):
        one = create_backend("software-parallel", machine="power9",
                             workers=1)
        four = create_backend("software-parallel", machine="power9",
                              workers=4)
        assert four.capabilities().compress_gbps == pytest.approx(
            4 * one.capabilities().compress_gbps)
