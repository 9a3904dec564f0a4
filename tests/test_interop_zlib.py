"""Bidirectional interoperability with CPython's zlib across levels."""

import random
import zlib

import pytest

from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_stdlib_decodes_every_level(level, payload_suite):
    for name, data in payload_suite.items():
        ours = deflate(data, level=level).data
        assert zlib.decompress(ours, -15) == data, (name, level)


@pytest.mark.parametrize("level", [1, 6, 9])
def test_we_decode_every_stdlib_level(level, payload_suite):
    for name, data in payload_suite.items():
        theirs = zlib.compress(data, level)[2:-4]
        assert inflate(theirs) == data, (name, level)


def test_stdlib_decodes_multiblock(text_20k):
    ours = deflate(text_20k, level=6, block_tokens=256).data
    assert zlib.decompress(ours, -15) == text_20k


def test_sizes_comparable_to_stdlib(text_20k, json_20k):
    """Our level-6 output is within 15% of stdlib's (both directions)."""
    for data in (text_20k, json_20k):
        ours = len(deflate(data, level=6).data)
        theirs = len(zlib.compress(data, 6)) - 6
        assert ours < theirs * 1.15
        assert theirs < ours * 1.15


# -- differential fuzzing ----------------------------------------------------
#
# Seeded random payloads spanning the structures the hot-path kernels
# special-case (long runs for the slice matcher and overlap copier, word
# soup for literal runs, zero pages, byte noise, stitched mixtures), fed
# through both directions: our compressor against zlib's decoder at every
# level and strategy, and zlib's compressor (including its Z_FILTERED /
# Z_RLE / Z_HUFFMAN_ONLY / Z_FIXED strategies) against our decoder.


def _fuzz_payload(rng: random.Random) -> bytes:
    kind = rng.randrange(5)
    size = rng.randrange(1, 5000)
    if kind == 0:  # byte noise, worst case for matching
        return rng.randbytes(size)
    if kind == 1:  # long runs of few symbols: slice compare + overlap copy
        alphabet = rng.randbytes(rng.randrange(1, 4))
        return b"".join(
            bytes([alphabet[rng.randrange(len(alphabet))]])
            * rng.randrange(1, 300) for _ in range(size // 64 + 1))[:size]
    if kind == 2:  # word soup: text-like literal runs with repeats
        words = [rng.randbytes(rng.randrange(2, 9)) for _ in range(12)]
        return b" ".join(rng.choice(words)
                         for _ in range(size // 5 + 1))[:size]
    if kind == 3:  # zero page with sparse dirt (the 842 / page-store shape)
        page = bytearray(size)
        for _ in range(rng.randrange(8)):
            page[rng.randrange(size)] = rng.randrange(1, 256)
        return bytes(page)
    # stitched self-copy: mid-range back-references
    seed_len = rng.randrange(1, max(2, size // 2))
    seed = rng.randbytes(seed_len)
    out = bytearray(seed)
    while len(out) < size:
        start = rng.randrange(len(out))
        out += out[start:start + rng.randrange(1, 600)] or b"\x00"
    return bytes(out[:size])


@pytest.mark.parametrize("seed", range(24))
def test_fuzz_ours_to_stdlib(seed):
    rng = random.Random(0xD00D + seed)
    data = _fuzz_payload(rng)
    level = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    strategy = rng.choice(["default", "rle", "huffman_only"])
    ours = deflate(data, level=level, strategy=strategy).data
    assert zlib.decompress(ours, -15) == data, (seed, level, strategy)


@pytest.mark.parametrize("seed", range(24))
def test_fuzz_stdlib_to_ours(seed):
    rng = random.Random(0xFEED + seed)
    data = _fuzz_payload(rng)
    level = rng.choice([1, 4, 6, 9])
    strategy = rng.choice([zlib.Z_DEFAULT_STRATEGY, zlib.Z_FILTERED,
                           zlib.Z_RLE, zlib.Z_HUFFMAN_ONLY, zlib.Z_FIXED])
    comp = zlib.compressobj(level, zlib.DEFLATED, -15, 9, strategy)
    theirs = comp.compress(data) + comp.flush()
    assert inflate(theirs) == data, (seed, level, strategy)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_roundtrip_with_history(seed):
    rng = random.Random(0xCAFE + seed)
    history = _fuzz_payload(rng)
    data = _fuzz_payload(rng)
    ours = deflate(data, level=6, history=history).data
    decoder = zlib.decompressobj(wbits=-15, zdict=history[-32768:])
    assert decoder.decompress(ours) == data, seed


def test_stdlib_decodes_nx_output(text_20k, json_20k, random_8k):
    from repro.nx.compressor import NxCompressor
    from repro.nx.dht import DhtStrategy
    from repro.nx.params import POWER9

    compressor = NxCompressor(POWER9.engine)
    for data in (text_20k, json_20k, random_8k):
        for strategy in DhtStrategy:
            payload = compressor.compress(data, strategy=strategy).data
            assert zlib.decompress(payload, -15) == data, strategy


# -- multi-member gzip differential fuzzing ----------------------------------
#
# Seeded archives concatenate gzip members from *both* compressors at
# mixed levels (level 0 forces stored blocks; tiny members force tiny
# final blocks), then both member walkers must agree byte-for-byte
# with the stdlib's multi-member decoder.


def _fuzz_member(rng: random.Random) -> tuple[bytes, bytes]:
    """One gzip member: (plain bytes, compressed member)."""
    import gzip as stdgzip

    from repro.deflate.containers import gzip_compress

    data = _fuzz_payload(rng)
    if rng.random() < 0.3:
        data = data[:rng.randrange(1, 40)]  # tiny member, tiny blocks
    if rng.random() < 0.5:
        return data, stdgzip.compress(data, rng.choice([1, 6, 9]))
    return data, gzip_compress(data, level=rng.choice([0, 2, 6, 9]))


@pytest.mark.parametrize("seed", range(16))
def test_fuzz_multimember_archive(seed):
    """Random stdlib + repro archives through both member walkers: the
    container decoder's and the seek-index decode's."""
    import gzip as stdgzip

    from repro.deflate.containers import decode_with_stats
    from repro.deflate.seekindex import decode_indexed

    rng = random.Random(0xA11CE + seed)
    pairs = [_fuzz_member(rng) for _ in range(rng.randrange(1, 5))]
    plain = b"".join(p for p, _ in pairs)
    archive = b"".join(m for _, m in pairs)
    result = decode_indexed(archive, "gzip", index_spacing=4096)
    assert result.data == plain == stdgzip.decompress(archive), seed
    assert result.index.members == len(pairs), seed
    out, stats, end = decode_with_stats(archive, "gzip")
    assert out == plain and end == len(archive), seed
    assert stats.literals + stats.match_bytes == len(plain), seed


# -- priming-dictionary (zdict) differential ---------------------------------
#
# The codec takes a preset history (``history=``), zlib's ``zdict``.
# That path must be bit-exact with zlib's semantics in both directions,
# including the window boundaries: an empty dict, a single byte, one
# byte short of the window, exactly the window, one past it (zlib keeps
# only the last 32768 bytes), and double the window.

_DICT_SIZES = [0, 1, 32767, 32768, 32769, 65536]
_WINDOW = 32768


def _dict_of(rng: random.Random, size: int) -> bytes:
    chunks = []
    total = 0
    while total < size:
        chunk = _fuzz_payload(rng)
        chunks.append(chunk)
        total += len(chunk)
    return b"".join(chunks)[:size]


def _data_referencing(rng: random.Random, zdict: bytes) -> bytes:
    """Payload stitched largely from dict content, so the dict matters."""
    tail = zdict[-_WINDOW:]
    parts = []
    for _ in range(6):
        if tail and rng.random() < 0.6:
            start = rng.randrange(len(tail))
            end = min(len(tail), start + rng.randrange(1, 500))
            parts.append(tail[start:end])
        else:
            parts.append(_fuzz_payload(rng)[:500])
    return b"".join(parts)


@pytest.mark.parametrize("level", [1, 6, 9])
@pytest.mark.parametrize("size", _DICT_SIZES)
def test_priming_dict_ours_to_stdlib(level, size):
    """Our history-primed streams decode under zlib's zdict."""
    rng = random.Random(0xD1C7 * (size + 1) + level)
    zdict = _dict_of(rng, size)
    data = _data_referencing(rng, zdict)

    ours = deflate(data, level=level, history=zdict).data
    if zdict:
        decoder = zlib.decompressobj(wbits=-15, zdict=zdict[-_WINDOW:])
    else:
        decoder = zlib.decompressobj(wbits=-15)
    assert decoder.decompress(ours) + decoder.flush() == data, \
        (size, level)


@pytest.mark.parametrize("level", [1, 6, 9])
@pytest.mark.parametrize("size", _DICT_SIZES)
def test_priming_dict_stdlib_to_ours(level, size):
    """zlib's zdict streams decode under our preset history."""
    from repro.deflate.inflate import inflate_with_stats

    rng = random.Random(0x2D1C7 * (size + 1) + level)
    zdict = _dict_of(rng, size)
    data = _data_referencing(rng, zdict)

    if zdict:
        comp = zlib.compressobj(level, zlib.DEFLATED, -15,
                                zdict=zdict[-_WINDOW:])
    else:
        comp = zlib.compressobj(level, zlib.DEFLATED, -15)
    theirs = comp.compress(data) + comp.flush()
    out, _stats, _bits = inflate_with_stats(theirs, history=zdict)
    assert out == data, (size, level)


@pytest.mark.parametrize("seed", range(4))
def test_trained_priming_dict_interop(seed):
    """A zdict cut from a tenant's own traffic works both ways, and
    primes traffic that resembles it."""
    from repro.deflate.inflate import inflate_with_stats
    from repro.workloads.generators import generate

    traffic = generate("json_records", 65536, seed=seed)
    zdict = traffic[-_WINDOW:]
    data = generate("json_records", 8192, seed=seed + 100)
    ours = deflate(data, level=6, history=zdict).data
    decoder = zlib.decompressobj(wbits=-15, zdict=zdict)
    assert decoder.decompress(ours) + decoder.flush() == data

    comp = zlib.compressobj(6, zlib.DEFLATED, -15, zdict=zdict)
    theirs = comp.compress(data) + comp.flush()
    out, _stats, _bits = inflate_with_stats(theirs, history=zdict)
    assert out == data

    unprimed = deflate(traffic[:4096], level=6).data
    primed = deflate(traffic[:4096], level=6, history=zdict).data
    assert len(primed) <= len(unprimed)


# -- hostile container headers: every backend refuses alike -------------------
#
# The header checks live in one place (``deflate/containers.py``); a
# backend that framed for itself used to skip some of them.

_HOSTILE_PLAIN = b"hostile header matrix " * 40
_HOSTILE_DICT = b"header matrix hostile " * 8


def _hostile_streams() -> list[tuple[str, str, bytes, bytes]]:
    """``(name, fmt, payload, zdict)``; stdlib made the good streams."""
    good = zlib.compress(_HOSTILE_PLAIN)
    packer = zlib.compressobj(zdict=_HOSTILE_DICT)
    fdict = packer.compress(_HOSTILE_PLAIN) + packer.flush()
    packer = zlib.compressobj(wbits=31)
    member = packer.compress(_HOSTILE_PLAIN) + packer.flush()
    assert fdict[1] & 0x20 and 0x7709 % 31 == 0
    return [
        ("zlib-broken-fcheck", "zlib",
         good[:1] + bytes([good[1] ^ 1]) + good[2:], b""),
        ("zlib-cm-not-8", "zlib", b"\x77\x09" + good[2:], b""),
        ("zlib-fdict-without-dictionary", "zlib", fdict, b""),
        ("zlib-fdict-wrong-dictid", "zlib", fdict, b"another dictionary"),
        ("zlib-five-bytes", "zlib", good[:5], b""),
        ("gzip-bad-magic", "gzip", b"\x1f\x8c" + member[2:], b""),
        ("gzip-truncated-fextra", "gzip",
         member[:3] + b"\x04" + member[4:10] + b"\x60\xea" + member[10:],
         b""),
        ("gzip-unterminated-fname", "gzip",
         member[:3] + b"\x08" + member[4:10] + b"name-without-a-nul", b""),
    ]


_BACKENDS = pytest.mark.parametrize("backend,kwargs", [
    ("software", {}), ("nx", {}), ("dfltcc", {"machine": "z15"})],
    ids=["software", "nx", "dfltcc"])


@_BACKENDS
@pytest.mark.parametrize("case", _hostile_streams(), ids=lambda c: c[0])
def test_hostile_header_refused_alike(case, backend, kwargs):
    from repro.backend import create_backend
    from repro.deflate.containers import decode_with_stats
    from repro.errors import DeflateError

    _name, fmt, payload, zdict = case
    with pytest.raises(DeflateError) as reference:
        decode_with_stats(payload, fmt, history=zdict)
    with create_backend(backend, **kwargs) as handle:
        with pytest.raises(DeflateError) as refused:
            handle.decompress(payload, fmt=fmt, history=zdict)
    assert refused.type is reference.type


@_BACKENDS
def test_multi_member_archive_decoded_whole_alike(backend, kwargs):
    """A gzip payload is all of its members (RFC 1952 section 2.2), on
    every backend, and bytes after a member that are not another member
    are refused as decoding them alone is."""
    import gzip as stdgzip

    from repro.backend import create_backend
    from repro.deflate.containers import decode_with_stats, gzip_compress
    from repro.errors import DeflateError

    archive = stdgzip.compress(b"hello " * 100) \
        + gzip_compress(b"world " * 100) + stdgzip.compress(b"!", 1)
    garbage = b"garbage!"
    with pytest.raises(DeflateError) as reference:
        decode_with_stats(garbage, "gzip")
    with create_backend(backend, **kwargs) as handle:
        assert handle.decompress(archive, fmt="gzip").output \
            == stdgzip.decompress(archive)
        with pytest.raises(DeflateError) as refused:
            handle.decompress(stdgzip.compress(b"hello") + garbage,
                              fmt="gzip")
    assert refused.type is reference.type
