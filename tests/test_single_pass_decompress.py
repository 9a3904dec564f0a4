"""One inflate and one checksum pass per request.

Pins the decompress path end to end (and the checksum count of gzip
compress): the kernels are entered once per request, the target cap
stops a decode for every wire format, the first target is sized from
the gzip ISIZE trailer as an untrusted hint, and members carrying
optional RFC 1952 header fields decode on every backend.
"""

import gzip as stdgzip
import io
import struct
import sys
import zlib as stdzlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import create_backend
from repro.deflate import checksums, containers
from repro.deflate.containers import (DEFLATE_MAX_EXPANSION, Resolver,
                                      decompress_target_len, wrap_gzip)
from repro.errors import ChecksumError, DeflateError, OutputOverflow
from repro.nx.decompressor import NxDecompressor
from repro.nx.params import POWER9
from repro.nx.z15 import ConditionCode, Dfltcc, ParameterBlock
from repro.workloads.generators import generate

BACKENDS = [("nx", "POWER9"), ("dfltcc", "z15"), ("software", "POWER9")]


def _member_with_fields(plain: bytes, flg: int, level: int = 9) -> bytes:
    """A stdlib-compressed member whose header carries the ``flg`` fields."""
    base = stdgzip.compress(plain, level, mtime=0)
    header = bytearray(base[:10])
    header[3] = flg
    if flg & 0x04:
        extra = b"AB\x03\x00xyz"
        header += struct.pack("<H", len(extra)) + extra
    if flg & 0x08:
        header += b"name.txt\x00"
    if flg & 0x10:
        header += b"a comment\x00"
    if flg & 0x02:
        header += struct.pack("<H", stdzlib.crc32(bytes(header)) & 0xFFFF)
    return bytes(header) + base[10:]


def _forge_isize(member: bytes, isize: int) -> bytes:
    return member[:-4] + struct.pack("<I", isize & 0xFFFFFFFF)


class _Backend:
    """A backend plus a uniform 'decompress and report submissions'."""

    def __init__(self, name: str, machine: str, use_async: bool = False):
        self.backend = create_backend(name, machine=machine)
        self.use_async = use_async

    def decompress(self, payload: bytes):
        if not self.use_async:
            return self.backend.decompress(payload, fmt="gzip")
        self.backend.submit("decompress", payload, fmt="gzip")
        (job,) = self.backend.wait_all()
        if job.error is not None:  # a job's failure rides on its handle
            raise job.error
        return job.result

    def close(self) -> None:
        self.backend.close()


@pytest.fixture(params=["nx-sync", "nx-async", "dfltcc"])
def accel(request):
    name, machine = {"nx-sync": ("nx", "POWER9"),
                     "nx-async": ("nx", "POWER9"),
                     "dfltcc": ("dfltcc", "z15")}[request.param]
    handle = _Backend(name, machine, use_async=request.param == "nx-async")
    yield handle
    handle.close()


class TestOptionalHeaderFields:
    """The nx backend used to re-inflate from byte 10 whatever the header."""

    @pytest.mark.parametrize("backend,machine", BACKENDS)
    @pytest.mark.parametrize("flg", [0x08, 0x04, 0x10, 0x02, 0x1E],
                             ids=["fname", "fextra", "fcomment", "fhcrc",
                                  "all"])
    def test_roundtrip(self, backend, machine, flg, text_20k):
        member = _member_with_fields(text_20k, flg)
        assert stdgzip.decompress(member) == text_20k
        handle = create_backend(backend, machine=machine)
        try:
            result = handle.decompress(member, fmt="gzip")
        finally:
            handle.close()
        assert result.output == text_20k
        assert result.stats.submissions == 1

    @pytest.mark.parametrize("backend,machine", BACKENDS)
    def test_gzipfile_with_filename(self, backend, machine, json_20k):
        buf = io.BytesIO()
        with stdgzip.GzipFile(filename="records.json", mode="wb",
                              fileobj=buf) as fh:
            fh.write(json_20k)
        handle = create_backend(backend, machine=machine)
        try:
            assert handle.decompress(buf.getvalue(),
                                     fmt="gzip").output == json_20k
        finally:
            handle.close()


class _KernelCounter:
    """Counts entries into the inflate kernel and the CRC-32 kernel.

    The inflate kernel is entered at ``inflate_blocks``: once a member
    by the container walker every decoder runs."""

    def __init__(self, monkeypatch):
        self.inflates = 0
        self.crcs = 0
        real_inflate = containers.inflate_blocks
        real_crc = checksums.crc32

        def counting_inflate(*args, **kwargs):
            self.inflates += 1
            return real_inflate(*args, **kwargs)

        def counting_crc(*args, **kwargs):
            self.crcs += 1
            return real_crc(*args, **kwargs)

        monkeypatch.setattr(containers, "inflate_blocks", counting_inflate)
        # ``crc32`` is imported by name all over the package: patch every
        # module-level reference, so no caller can go uncounted.
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro.")
                    and getattr(module, "crc32", None) is real_crc):
                monkeypatch.setattr(module, "crc32", counting_crc)


class TestKernelEntries:
    @pytest.mark.parametrize("backend,machine", BACKENDS[:2])
    def test_one_inflate_one_crc_per_gzip_request(self, backend, machine,
                                                  monkeypatch):
        members = [stdgzip.compress(generate(family, 65536, seed=3))
                   for family in ("json_records", "log_lines",
                                  "database_pages", "random_bytes")]
        members.append(_member_with_fields(b"x" * 5000, 0x1E))
        handle = create_backend(backend, machine=machine)
        counter = _KernelCounter(monkeypatch)
        try:
            for member in members:
                result = handle.decompress(member, fmt="gzip")
                assert result.output == stdgzip.decompress(member)
                assert result.stats.submissions == 1
        finally:
            handle.close()
        assert counter.inflates == len(members)
        assert counter.crcs == len(members)

    @pytest.mark.parametrize("backend,machine", BACKENDS[:2])
    def test_one_crc_per_gzip_compress_request(self, backend, machine,
                                               monkeypatch):
        """The trailer comes from the one pass the engine made (on z15
        the parameter block's check value), bytes as ``wrap_gzip``'s."""
        payloads = [generate(family, 32768, seed=5)
                    for family in ("json_records", "random_bytes")]
        payloads.append(b"")
        handle = create_backend(backend, machine=machine)
        try:
            bodies = [handle.compress(data, fmt="raw").output
                      for data in payloads]
            counter = _KernelCounter(monkeypatch)
            members = [handle.compress(data, fmt="gzip").output
                       for data in payloads]
        finally:
            handle.close()
        assert counter.crcs == len(payloads)
        for data, body, member in zip(payloads, bodies, members):
            assert member == wrap_gzip(body, data)
            assert stdgzip.decompress(member) == data

    def test_dfltcc_check_value_spans_reissued_chunks(self, monkeypatch,
                                                      json_20k):
        """CC=3 re-issues: the trailer is the value carried across them."""
        handle = create_backend("dfltcc", machine="z15", quantum=8192)
        counter = _KernelCounter(monkeypatch)
        try:
            result = handle.compress(json_20k, fmt="gzip")
        finally:
            handle.close()
        assert result.stats.submissions == counter.crcs == 3
        assert stdgzip.decompress(result.output) == json_20k

    def test_zlib_is_single_pass_on_nx(self, monkeypatch, text_20k):
        handle = create_backend("nx", machine="POWER9")
        counter = _KernelCounter(monkeypatch)
        try:
            result = handle.decompress(stdzlib.compress(text_20k),
                                       fmt="zlib")
        finally:
            handle.close()
        assert result.output == text_20k
        assert (counter.inflates, counter.crcs) == (1, 0)

    def test_stats_match_the_raw_pass(self, text_20k):
        """Same stream, same InflateStats: the cycle model cannot move."""
        raw = stdzlib.compressobj(6, stdzlib.DEFLATED, -15)
        body = raw.compress(text_20k) + raw.flush()
        engine = NxDecompressor(POWER9.engine)
        reference = engine.decompress(body, fmt="raw").stats
        for fmt, member in (
                ("gzip", _member_with_fields(text_20k, 0x1E, level=6)),
                ("gzip", stdgzip.compress(text_20k, 6)),
                ("zlib", stdzlib.compress(text_20k, 6))):
            result = engine.decompress(member, fmt=fmt)
            assert result.stats == reference
            assert result.consumed_bytes == len(member)


class TestOnePassStillCoversEveryByte:
    """A cheaper checksum is still the whole checksum: any one flipped
    byte of a 64 KB member is caught, in the data or in the trailer."""

    @pytest.mark.parametrize("backend,machine", BACKENDS)
    def test_single_byte_corruption_raises(self, backend, machine):
        # Incompressible data is stored, so a flipped body byte leaves a
        # well-formed stream carrying different plaintext: only the
        # CRC-32 can tell.
        plain = generate("random_bytes", 65536, seed=9)
        member = stdgzip.compress(plain)
        crc_at = len(member) - 8
        spots = [200, 4096, 40000, crc_at - 1, *range(crc_at, crc_at + 4)]
        handle = create_backend(backend, machine=machine)
        try:
            assert handle.decompress(member, fmt="gzip").output == plain
            for spot in spots:
                for flip in (0x01, 0x80):
                    bad = bytearray(member)
                    bad[spot] ^= flip
                    with pytest.raises(ChecksumError, match="CRC-32"):
                        handle.decompress(bytes(bad), fmt="gzip")
        finally:
            handle.close()


class TestCapHonouredForEveryFormat:
    @pytest.mark.parametrize("fmt", ["gzip", "zlib", "raw"])
    def test_undersized_target_stops_before_the_checksum(self, fmt,
                                                         monkeypatch,
                                                         text_20k):
        wbits = {"gzip": 31, "zlib": 15, "raw": -15}[fmt]
        packer = stdzlib.compressobj(6, stdzlib.DEFLATED, wbits)
        payload = packer.compress(text_20k) + packer.flush()
        counter = _KernelCounter(monkeypatch)
        engine = NxDecompressor(POWER9.engine)
        # One block: a byte short of it, none of it fits.
        short = engine.decompress(payload, fmt=fmt,
                                  max_output=len(text_20k) - 1)
        assert short.data == b"" and short.resume is not None
        assert counter.crcs == 0
        exact = engine.decompress(payload, fmt=fmt, max_output=len(text_20k))
        assert exact.data == text_20k

    def test_container_decoders_take_the_cap(self, text_20k):
        with pytest.raises(OutputOverflow):
            Resolver(stdgzip.compress(text_20k), "gzip").run(100)
        with pytest.raises(OutputOverflow):
            Resolver(stdzlib.compress(text_20k), "zlib").run(100)

    def test_xpnd_stops_at_the_first_operand(self, monkeypatch, text_20k):
        raw = stdzlib.compressobj(6, stdzlib.DEFLATED, -15)
        body = raw.compress(text_20k) + raw.flush()
        counter = _KernelCounter(monkeypatch)
        block = ParameterBlock()
        result = Dfltcc().expand(block, body, out_capacity=100)
        assert result.cc is ConditionCode.OP1_FULL
        assert (result.consumed, block.total_in, block.total_out) == (0, 0, 0)
        assert counter.crcs == 0
        result = Dfltcc().expand(block, body + b"trailer!",
                                 out_capacity=len(text_20k))
        assert result.cc is ConditionCode.DONE
        assert result.produced == text_20k
        assert result.consumed == len(body)


class TestTargetHint:
    def test_sizes(self):
        member = stdgzip.compress(bytes(300000))
        assert decompress_target_len(member, "gzip") == 300000
        assert decompress_target_len(stdgzip.compress(b"hi"), "gzip") == 4096
        noise = bytes(range(256)) * 20
        assert decompress_target_len(noise, "zlib") \
            == decompress_target_len(noise, "raw") \
            == 4 * len(noise) + 1024
        assert decompress_target_len(b"", "gzip") == 4096

    @pytest.mark.parametrize("forged", [0, 1, 0x7FFFFFFF, 0xFFFFFFFF])
    def test_clamped_to_what_deflate_can_expand(self, forged, text_20k):
        member = _forge_isize(stdgzip.compress(text_20k), forged)
        ceiling = DEFLATE_MAX_EXPANSION * len(member) + 1024
        assert 4096 <= decompress_target_len(member, "gzip") <= ceiling

    def test_honest_members_take_one_submission(self, accel):
        # ~1000:1 — past anything the old 4x guess reached without
        # eight doublings, inside the clamp.
        plain = bytes(2 << 20)
        member = stdgzip.compress(plain)
        assert len(plain) / len(member) > 900
        for payload, expect in ((member, plain),
                                (stdgzip.compress(b""), b""),
                                (stdgzip.compress(b"abc" * 9000),
                                 b"abc" * 9000)):
            result = accel.decompress(payload)
            assert result.output == expect
            assert result.stats.submissions == 1
            assert result.stats.target_overflows == 0

    @pytest.mark.parametrize("delta", ["zero", "one", "minus1", "plus1",
                                       "max"])
    def test_forged_isize_is_a_typed_error(self, accel, delta, text_20k,
                                           monkeypatch):
        true = len(text_20k)
        forged = {"zero": 0, "one": 1, "minus1": true - 1,
                  "plus1": true + 1, "max": 0xFFFFFFFF}[delta]
        member = _forge_isize(stdgzip.compress(text_20k), forged)
        first_targets = _spy_first_target(accel, monkeypatch)
        with pytest.raises(ChecksumError, match="ISIZE"):
            accel.decompress(member)
        ceiling = DEFLATE_MAX_EXPANSION * len(member) + 1024
        assert first_targets and first_targets[0] <= ceiling

    def test_hint_that_lies_low_takes_the_growth_path(self, accel, text_20k,
                                                      json_20k):
        # The last four bytes belong to a smaller, later member.
        small = stdgzip.compress(b"tiny")
        payload = stdgzip.compress(text_20k + json_20k) + small
        assert decompress_target_len(payload, "gzip") == 4096
        result = accel.decompress(payload)
        assert result.output == text_20k + json_20k + b"tiny"
        # 4 KB holds no block; the next target, sized at the rate the
        # rolled-back block decoded, is a little short of the 40 KB, and
        # the third holds the rest, on every engine.
        assert (result.stats.submissions,
                result.stats.target_overflows) == (3, 2)

    def test_multi_member_and_trailing_garbage(self, accel, text_20k,
                                               json_20k):
        first = stdgzip.compress(text_20k)
        assert accel.decompress(
            first + stdgzip.compress(json_20k + json_20k)).output \
            == text_20k + json_20k + json_20k
        for garbage in (b"\x00" * 64, b"\xff" * 7):
            with pytest.raises(DeflateError):
                accel.decompress(first + garbage)

    def test_truncated_trailer_is_typed(self, accel, text_20k):
        member = stdgzip.compress(text_20k)
        for cut in (1, 4, 7, 8):
            with pytest.raises(DeflateError):
                accel.decompress(member[:-cut])


def _spy_first_target(accel, monkeypatch) -> list[int]:
    """Record the first target size each request asks for."""
    sizes: list[int] = []
    if accel.backend.name == "nx":
        driver = accel.backend.driver
        real = driver.prepare_buffers

        def spy(data, target_len=None):
            sizes.append(target_len)
            return real(data, target_len)

        monkeypatch.setattr(driver, "prepare_buffers", spy)
    else:
        facility = accel.backend._facility
        real_expand = facility.expand

        def spy_expand(block, payload, fmt="raw", out_capacity=1 << 62):
            sizes.append(out_capacity)
            return real_expand(block, payload, fmt, out_capacity=out_capacity)

        monkeypatch.setattr(facility, "expand", spy_expand)
    return sizes


@pytest.fixture(scope="module")
def property_backends():
    handles = {"nx-sync": _Backend("nx", "POWER9"),
               "nx-async": _Backend("nx", "POWER9", use_async=True),
               "dfltcc": _Backend("dfltcc", "z15")}
    yield handles
    for handle in handles.values():
        handle.close()


@settings(max_examples=40, deadline=None)
@given(plain=st.one_of(st.binary(max_size=3000),
                       st.builds(lambda unit, n: unit * n,
                                 st.binary(min_size=1, max_size=8),
                                 st.integers(0, 4000))),
       excess=st.integers(0, 1 << 33))
def test_hint_at_least_true_size_means_one_submission(property_backends,
                                                      plain, excess):
    """Any stated size >= the true one — however inflated — decodes in
    exactly one submission on every accelerator path."""
    hint = min(len(plain) + excess, 0xFFFFFFFF)
    # The hint rides in the member's own ISIZE field: a forged one still
    # decodes in one submission, then fails its ISIZE check.
    payload = _forge_isize(stdgzip.compress(plain), hint)
    for handle in property_backends.values():
        with pytest.MonkeyPatch.context() as patch:
            targets = _spy_first_target(handle, patch)
            if hint == len(plain):
                assert handle.decompress(payload).output == plain
            else:
                with pytest.raises(ChecksumError, match="ISIZE"):
                    handle.decompress(payload)
        assert len(targets) == 1
