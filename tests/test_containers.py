"""zlib/gzip container framing, checksums, and stdlib interoperability."""

import ast
import gzip as stdgzip
import pathlib
import struct
import zlib as stdzlib

import pytest

import repro
from repro.deflate.compress import deflate
from repro.deflate.containers import (
    FORMATS,
    body_start,
    checksum,
    decode_with_stats,
    encode,
    frame,
    gzip_compress,
    gzip_decompress,
    header,
    require_format,
    trailer,
    verify_trailer,
    wrap_gzip,
    wrap_zlib,
    zlib_compress,
    zlib_decompress,
)
from repro.errors import ChecksumError, ConfigError, DeflateError


class TestZlibContainer:
    def test_roundtrip(self, payload_suite):
        for data in payload_suite.values():
            assert zlib_decompress(zlib_compress(data)) == data

    def test_stdlib_decodes_ours(self, text_20k):
        assert stdzlib.decompress(zlib_compress(text_20k)) == text_20k

    def test_we_decode_stdlib(self, text_20k):
        for level in (1, 6, 9):
            assert zlib_decompress(
                stdzlib.compress(text_20k, level)) == text_20k

    def test_header_check_bits_valid(self, text_20k):
        payload = zlib_compress(text_20k)
        assert ((payload[0] << 8) | payload[1]) % 31 == 0

    def test_adler_mismatch_detected(self, text_20k):
        payload = bytearray(zlib_compress(text_20k))
        payload[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            zlib_decompress(bytes(payload))

    def test_bad_method_rejected(self):
        payload = bytearray(zlib_compress(b"x"))
        payload[0] = (payload[0] & 0xF0) | 0x07  # CM=7
        payload[1] = 0
        header = (payload[0] << 8) | payload[1]
        payload[1] += 31 - header % 31
        with pytest.raises(DeflateError, match="method"):
            zlib_decompress(bytes(payload))

    def test_truncated_rejected(self):
        with pytest.raises(DeflateError):
            zlib_decompress(b"\x78\x9c")

    def test_preset_dictionary_rejected(self):
        header = (0x78 << 8) | 0x20
        header += 31 - header % 31
        with pytest.raises(DeflateError, match="dictionary"):
            zlib_decompress(struct.pack(">H", header) + b"\x00" * 8)


class TestGzipContainer:
    def test_roundtrip(self, payload_suite):
        for data in payload_suite.values():
            assert gzip_decompress(gzip_compress(data)) == data

    def test_stdlib_decodes_ours(self, json_20k):
        assert stdgzip.decompress(gzip_compress(json_20k)) == json_20k

    def test_we_decode_stdlib(self, json_20k):
        assert gzip_decompress(stdgzip.compress(json_20k)) == json_20k

    def test_we_decode_stdlib_with_filename(self, text_20k):
        import io

        buf = io.BytesIO()
        with stdgzip.GzipFile(filename="member.txt", mode="wb",
                              fileobj=buf, mtime=123) as handle:
            handle.write(text_20k)
        assert gzip_decompress(buf.getvalue()) == text_20k

    def test_crc_mismatch_detected(self, text_20k):
        payload = bytearray(gzip_compress(text_20k))
        payload[-5] ^= 0xFF  # inside CRC32 field
        with pytest.raises(ChecksumError):
            gzip_decompress(bytes(payload))

    def test_isize_mismatch_detected(self, text_20k):
        payload = bytearray(gzip_compress(text_20k))
        payload[-1] ^= 0xFF  # inside ISIZE field
        with pytest.raises(ChecksumError):
            gzip_decompress(bytes(payload))

    def test_bad_magic_rejected(self):
        payload = bytearray(gzip_compress(b"x"))
        payload[0] = 0
        with pytest.raises(DeflateError, match="magic"):
            gzip_decompress(bytes(payload))

    def test_mtime_encoded(self):
        payload = gzip_compress(b"x", mtime=0x01020304)
        assert payload[4:8] == bytes([4, 3, 2, 1])


class TestWrappers:
    def test_wrap_zlib_stdlib_compatible(self, text_20k):
        body = stdzlib.compress(text_20k)[2:-4]
        assert stdzlib.decompress(wrap_zlib(body, text_20k)) == text_20k

    def test_wrap_gzip_stdlib_compatible(self, text_20k):
        body = stdzlib.compress(text_20k)[2:-4]
        assert stdgzip.decompress(wrap_gzip(body, text_20k)) == text_20k


_WBITS = {"gzip": 31, "zlib": 15, "raw": -15}


class TestFormatTable:
    """The per-format functions every producer and decoder is built on."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_frame_is_header_body_trailer(self, fmt, text_20k):
        body = deflate(text_20k).data
        check = checksum(fmt, text_20k)
        framed = frame(fmt, body, check, len(text_20k))
        assert framed == (header(fmt) + body
                          + trailer(fmt, check, len(text_20k)))
        assert stdzlib.decompress(framed, _WBITS[fmt]) == text_20k

    def test_no_level_stamps_what_the_engines_stamp(self):
        assert header("gzip")[8] == 0                  # XFL
        assert header("zlib")[1] >> 6 == 2             # FLEVEL
        assert header("gzip", level=9)[8] == 2
        assert header("gzip", level=1)[8] == 4
        assert [header("zlib", level=n)[1] >> 6 for n in (1, 4, 6, 9)] \
            == [0, 1, 2, 3]
        assert header("raw") == trailer("raw", 7, 7) == b""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_running_checksum_equals_one_pass(self, fmt, text_20k):
        running = None
        for cut in range(0, len(text_20k), 3000):
            running = checksum(fmt, text_20k[cut:cut + 3000], running)
        assert running == checksum(fmt, text_20k)
        assert checksum(fmt, b"") == {"gzip": 0, "zlib": 1, "raw": 0}[fmt]

    def test_a_known_crc_is_only_gzips_answer(self, text_20k):
        assert checksum("gzip", text_20k, crc=1234) == 1234
        assert checksum("zlib", text_20k, crc=1234) \
            == stdzlib.adler32(text_20k)
        assert checksum("raw", text_20k, crc=1234) == 0

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_encode_decode_round_trip(self, fmt, level, json_20k):
        payload = encode(json_20k, fmt, level) + b"trailing bytes"
        assert stdzlib.decompressobj(_WBITS[fmt]).decompress(
            payload) == json_20k
        if fmt == "gzip":
            # Only another member may follow a gzip member.
            with pytest.raises(DeflateError, match="gzip magic"):
                decode_with_stats(payload, fmt)
            payload = payload[:-len(b"trailing bytes")]
        out, stats, end = decode_with_stats(payload, fmt)
        assert out == json_20k and stats.literals + stats.match_bytes == len(json_20k)
        assert payload[end:] == (b"" if fmt == "gzip" else b"trailing bytes")

    def test_window_goes_where_the_format_has_one(self, text_20k):
        window, plain = text_20k[:6000], text_20k[6000:]
        raw = encode(plain, "raw", history=window)
        assert stdzlib.decompressobj(-15, zdict=window).decompress(
            raw) == plain
        assert decode_with_stats(raw, "raw", history=window)[0] == plain
        assert encode(plain, "zlib", history=window) \
            == zlib_compress(plain, zdict=window)
        assert body_start("zlib", zlib_compress(plain),
                          zdict=window) == (2, b"")   # not asked for
        assert body_start("zlib", zlib_compress(plain, zdict=window),
                          zdict=window) == (6, window)
        with pytest.raises(DeflateError, match="DICTID"):
            encode(plain, "gzip", history=window)

    def test_continuation_unit_is_raw_only(self, text_20k):
        unit = encode(text_20k, "raw", final=False)
        inflater = stdzlib.decompressobj(-15)
        assert inflater.decompress(unit) == text_20k and not inflater.eof
        for fmt in ("gzip", "zlib"):
            with pytest.raises(ConfigError, match="whole stream"):
                encode(text_20k, fmt, final=False)
            with pytest.raises(ConfigError, match="whole stream"):
                require_format(fmt, history=b"window")
        with pytest.raises(ConfigError, match="unsupported wire format"):
            require_format("lz4")
        with pytest.raises(ConfigError, match="unsupported wire format"):
            decode_with_stats(b"\x03\x00", "lz4")

    def test_verify_trailer_returns_the_end(self, text_20k):
        for fmt, size in (("gzip", 8), ("zlib", 4), ("raw", 0)):
            check = checksum(fmt, text_20k)
            data = b"body" + trailer(fmt, check, len(text_20k)) + b"next"
            assert verify_trailer(fmt, data, 4, check,
                                  len(text_20k)) == 4 + size
        with pytest.raises(ChecksumError, match="ISIZE"):
            verify_trailer("gzip", trailer("gzip", 5, 10), 0, 5, 11)
        with pytest.raises(DeflateError, match="truncated"):
            verify_trailer("zlib", b"\x00\x00\x00", 0, 0, 0)


# -- the wire-format decision stays in one module ------------------------------

_FORMAT_NAMES = {"gzip", "zlib"}
_GZIP_MAGIC = b"\x1f\x8b"

#: Files that may still know a container format by name, and why.
_MAY_KNOW_FORMATS = {
    "deflate/containers.py":
        "the per-format table itself",
    "deflate/seekindex.py":
        "the on-disk fmt codes of the RSIX file, and read_range walks a "
        "zlib body as raw (no Adler-32 from a midpoint)",
    "sysstack/crb.py":
        "the CRB function-code encoding of the format field",
}


def _format_knowledge(tree: ast.AST):
    """Places in ``tree`` that decide something by container format."""
    def leaves(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                yield from leaves(element)
        elif isinstance(node, ast.Constant):
            yield node.value

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(value in _FORMAT_NAMES for operand in operands
                   for value in leaves(operand) if isinstance(value, str)):
                yield node.lineno, "comparison against a format name"
        elif isinstance(node, ast.Dict):
            if _FORMAT_NAMES & {value for key in node.keys if key
                                for value in leaves(key)
                                if isinstance(value, str)}:
                yield node.lineno, "table keyed by format name"
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if _FORMAT_NAMES <= {value for value in leaves(node)
                                 if isinstance(value, str)}:
                yield node.lineno, "list of format names"
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, bytes) \
                and _GZIP_MAGIC in node.value:
            yield node.lineno, "gzip magic literal"


def test_only_the_table_knows_the_formats():
    """A module that compares ``fmt`` against "gzip"/"zlib", keeps its
    own per-format table or spells the gzip magic has taken the wire-
    format decision back out of ``deflate/containers.py``."""
    assert len(_MAY_KNOW_FORMATS) <= 6
    root = pathlib.Path(repro.__file__).parent
    found = [f"{path.relative_to(root)}:{line}: {what}"
             for path in sorted(root.rglob("*.py"))
             if str(path.relative_to(root)) not in _MAY_KNOW_FORMATS
             for line, what in _format_knowledge(
                 ast.parse(path.read_text()))]
    assert not found, "\n".join(found)
    # An allow-list entry that no longer needs its exemption goes.
    for name in _MAY_KNOW_FORMATS:
        assert list(_format_knowledge(ast.parse(
            (root / name).read_text()))), name
