"""Truncated-stream regression suite.

Every prefix of a valid DEFLATE stream that stops before the final
end-of-block must raise the uniform ``DeflateError("unexpected end of
DEFLATE stream")`` — never ``IndexError``, never a silent short result,
and never a misleading structural error.  The batched refill paths in
``bitio``/``inflate`` read eight bytes speculatively, so this pins the
boundary accounting at *every* byte position of representative streams
covering all three block types, multi-block streams, and the RLE
strategy.
"""

from __future__ import annotations

import pytest

from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate
from repro.errors import DeflateError
from repro.workloads.generators import generate


def _streams() -> dict[str, bytes]:
    text = generate("markov_text", 2000, seed=21)
    noise = generate("random_bytes", 600, seed=22)
    streams = {
        "stored": deflate(noise, level=0).data,
        "fixed": deflate(b"abcabcabcabc", level=6).data,
        "dynamic": deflate(text, level=6).data,
        "multiblock": deflate(text, level=6, block_tokens=64).data,
        "rle": deflate(b"a" * 400 + text[:400], level=6,
                       strategy="rle").data,
    }
    return streams


@pytest.mark.parametrize("name,stream", _streams().items(),
                         ids=list(_streams()))
def test_every_byte_truncation_raises(name: str, stream: bytes) -> None:
    for cut in range(len(stream)):
        with pytest.raises(DeflateError, match="unexpected end"):
            inflate(stream[:cut])


def test_empty_input_raises() -> None:
    with pytest.raises(DeflateError, match="unexpected end"):
        inflate(b"")


def test_full_stream_still_decodes() -> None:
    """The truncation guard must not fire on the intact stream."""
    text = generate("markov_text", 2000, seed=21)
    assert inflate(deflate(text, level=6).data) == text


# -- gzip member headers -----------------------------------------------------
#
# One parser (``containers.header_end``) serves the one-shot
# decoders, the member walker, the dfltcc backend and the streaming
# reader: every cut of a header carrying every optional field, and every
# malformed field, must come back as a typed ``DeflateError`` from each.

def _full_header_member() -> tuple[bytes, int]:
    """A member with FEXTRA+FNAME+FCOMMENT+FHCRC, and its header length."""
    import gzip
    import struct
    import zlib

    base = gzip.compress(generate("markov_text", 1500, seed=23), mtime=0)
    header = bytearray(base[:10])
    header[3] = 0x1E
    header += struct.pack("<H", 6) + b"RS\x02\x00ok"
    header += b"archive.txt\x00" + b"nightly dump\x00"
    header += struct.pack("<H", zlib.crc32(bytes(header)) & 0xFFFF)
    return bytes(header) + base[10:], len(header)


def _gzip_decoders() -> dict:
    from repro.backend import create_backend
    from repro.deflate.containers import (body_start, decode_with_stats,
                                          gzip_decompress)

    def via(name: str, machine: str):
        def decode(payload: bytes) -> bytes:
            backend = create_backend(name, machine=machine)
            try:
                return backend.decompress(payload, fmt="gzip").output
            finally:
                backend.close()
        return decode

    return {
        "gzip_decompress": gzip_decompress,
        "gzip_member_length": lambda payload: decode_with_stats(
            payload, "gzip")[2],
        "gzip_header_length": lambda payload: body_start("gzip", payload)[0],
        "nx": via("nx", "POWER9"),
        "dfltcc": via("dfltcc", "z15"),
        "software": via("software", "POWER9"),
    }


@pytest.mark.parametrize("name", list(_gzip_decoders()))
def test_every_gzip_header_cut_raises_typed(name: str) -> None:
    decode = _gzip_decoders()[name]
    member, header_len = _full_header_member()
    # An empty source is the engine's own CC (DATA_LENGTH), not a stream
    # error.
    first_cut = 1 if name == "nx" else 0
    for cut in range(first_cut, header_len):
        with pytest.raises(DeflateError):
            decode(member[:cut])
    if name == "gzip_header_length":
        assert decode(member) == header_len
        return
    # Past the header the body and trailer are cut instead.
    for cut in range(header_len, len(member), 97):
        with pytest.raises(DeflateError):
            decode(member[:cut])
    assert decode(member)


@pytest.mark.parametrize("name", list(_gzip_decoders()))
def test_malformed_gzip_header_fields_raise_typed(name: str) -> None:
    import struct

    decode = _gzip_decoders()[name]
    member, _header_len = _full_header_member()
    fixed = member[:3]
    unterminated_name = fixed + b"\x08" + member[4:10] + b"no-nul" * 40
    unterminated_comment = (fixed + b"\x10" + member[4:10]
                            + b"\x01\x02\x03" * 50)
    extra_past_end = (fixed + b"\x04" + member[4:10]
                      + struct.pack("<H", 60000) + member[10:])
    extra_then_name = (fixed + b"\x0c" + member[4:10]
                       + struct.pack("<H", 60000) + b"name\x00"
                       + member[10:])
    for payload in (unterminated_name, unterminated_comment,
                    extra_past_end, extra_then_name):
        with pytest.raises(DeflateError):
            decode(payload)


def test_streaming_reader_waits_where_one_shot_raises() -> None:
    """The same walk tells a streaming caller "need more", not "bad"."""
    from repro.deflate.containers import header_end
    from repro.deflate.stream import DecompressStream

    member, header_len = _full_header_member()
    for cut in range(header_len):
        assert header_end("gzip", member[:cut]) is None
    assert header_end("gzip", member) == (header_len, b"")
    assert header_end("gzip", b"junk" + member, 4) == (4 + header_len, b"")
    reader = DecompressStream("gzip")
    out = b"".join(reader.feed(member[i:i + 1]) for i in range(len(member)))
    assert out + reader.finish() == generate("markov_text", 1500, seed=23)
