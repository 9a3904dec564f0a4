"""A full target continues the decode; it never restarts it.

On ``nx`` (CC=66, the driver's fresh target and history DDE) and on
``dfltcc`` (CC=1, the parameter block) a decode whose target fills keeps
what it wrote and goes on from the block boundary it stopped at; the
software executor goes on from the same state.  Counted here: every
block that is kept is decoded once, and a continuation costs at most the
one block it rolled back.
"""

import gzip as stdgzip
import importlib
import zlib as stdzlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.backend import create_backend
from repro.deflate import containers
from repro.nx.decompressor import NxDecompressor
from repro.nx.params import POWER9
from repro.resilience.verify import run_in_software
from repro.workloads.generators import generate

# ``repro.deflate.inflate`` the attribute is the function, not the module.
inflate_module = importlib.import_module("repro.deflate.inflate")

ENGINES = (("nx", "POWER9"), ("dfltcc", "z15"))
# Where each engine's first target comes from.
HINTS = {"nx": "repro.sysstack.driver.decompress_target_len",
         "dfltcc": "repro.backend.dfltcc.decompress_target_len"}


class Decoded:
    """What a decode wrote: ``kept`` bytes (net, per kernel entry),
    each block's size (``blocks``), and the Huffman blocks a full target
    rolled back (``rolled_back``; a stored block's rollback is not
    seen, which only weakens the bound it is held to)."""

    def __init__(self, patch):
        self.kept = 0
        self.blocks: list[int] = []
        self.rolled_back: list[int] = []
        real_blocks = containers.inflate_blocks
        real_huffman = inflate_module._inflate_huffman_block
        real_header = inflate_module.read_block_header

        def blocks(reader, out, *args, **kwargs):
            before = len(out)
            try:
                return real_blocks(reader, out, *args, **kwargs)
            finally:
                self.kept += len(out) - before

        def huffman(reader, out, *args):
            before = len(out)
            try:
                result = real_huffman(reader, out, *args)
            except Exception:
                self.rolled_back.append(len(out) - before)
                raise
            self.blocks.append(len(out) - before)
            return result

        def header(reader):
            final, btype, body = real_header(reader)
            if isinstance(body, int):  # a stored block's length
                self.blocks.append(body)
            return final, btype, body

        patch.setattr(containers, "inflate_blocks", blocks)
        patch.setattr(inflate_module, "_inflate_huffman_block", huffman)
        patch.setattr(inflate_module, "read_block_header", header)


def _archive(members: list[bytes]) -> bytes:
    return b"".join(stdgzip.compress(m, 6) for m in members)


def _zeros_zlib() -> bytes:
    return stdzlib.compress(bytes(1 << 20), 6)


def _nine_members() -> tuple[bytes, bytes]:
    """Eight 121 050-byte text members, then a 7-byte one: the ISIZE
    hint is the last member's, so the first target is 4 KB."""
    members = [generate("markov_text", 121050, seed=s) for s in range(8)]
    members.append(b"1234567")
    return _archive(members), b"".join(members)


@pytest.fixture(scope="module")
def nine_members():
    return _nine_members()


def _largest_block(payload: bytes, fmt: str, history: bytes = b"") -> int:
    with pytest.MonkeyPatch.context() as patch:
        seen = Decoded(patch)
        run_in_software("decompress", payload, fmt,
                        history=history)
    return max(seen.blocks, default=0)


def _decode_counted(name: str, machine: str, payload: bytes, fmt: str,
                    history: bytes = b"", first: int | None = None):
    handle = create_backend(name, machine=machine)
    try:
        with pytest.MonkeyPatch.context() as patch:
            if first is not None:
                patch.setattr(HINTS[name], lambda _payload, _fmt: first)
            seen = Decoded(patch)
            result = handle.decompress(payload, fmt=fmt, history=history)
    finally:
        handle.close()
    return result, seen


def _assert_counts(result, seen, largest: int) -> None:
    stats = result.stats
    assert stats.submissions == stats.target_overflows + 1
    # Every kept block is decoded once: no continuation decodes what
    # an earlier target holds again.
    assert seen.kept == len(result.output)
    # ... and each costs at most the one block it rolled back.
    assert len(seen.rolled_back) <= stats.target_overflows
    assert sum(seen.rolled_back) <= stats.target_overflows * (largest + 64)


@pytest.mark.parametrize("name,machine", ENGINES)
def test_nine_member_archive_is_decoded_once(name, machine, nine_members):
    payload, plain = nine_members
    result, seen = _decode_counted(name, machine, payload, "gzip")
    assert result.output == plain
    _assert_counts(result, seen, _largest_block(payload, "gzip"))
    # 4 KB holds no block; the next target, sized at the rate the
    # rolled-back block decoded (a member's first block, so a low one),
    # holds all but the last 133 KB, which the third holds.
    assert result.stats.submissions == 3
    assert seen.kept + sum(seen.rolled_back) < 1.2 * len(result.output)


@pytest.mark.parametrize("name,machine", ENGINES)
def test_a_megabyte_of_zeros_doubles_into_one_block(name, machine):
    """One 1 MB block: nothing fits until a target holds all of it, so
    every overflow rolls it back, never more."""
    payload = _zeros_zlib()
    result, seen = _decode_counted(name, machine, payload, "zlib")
    assert result.output == bytes(1 << 20)
    _assert_counts(result, seen, 1 << 20)
    assert seen.blocks == [1 << 20]


@pytest.mark.parametrize("name,machine", ENGINES)
def test_a_big_block_takes_one_step(name, machine):
    """The 5 KB first target fills 46 bits into the 1 MB block; sized
    at the rate those bits decoded, the second holds the whole block:
    two submissions (two XPND issues on ``dfltcc``), 1.005x the output
    decoded."""
    obs.reset()
    obs.enable(metrics=True)
    try:
        result, seen = _decode_counted(name, machine, _zeros_zlib(), "zlib")
        issues = obs.registry().get("repro_backend_dfltcc_invocations_total")
    finally:
        obs.disable()
        obs.reset()
    assert result.output == bytes(1 << 20)
    assert result.stats.submissions == 2
    assert seen.kept + sum(seen.rolled_back) <= 1.1 * len(result.output)
    assert (issues.value(fn="xpnd") if issues else 0) == (
        2 if name == "dfltcc" else 0)


def test_a_one_byte_first_target_stays_on_the_engine(monkeypatch):
    """A continuation spends none of the retry budget: from a 1-byte
    first target, each next one only twice the last, ``nx`` doubles its
    way to the 1 MB block (21 submissions, far past the 9-attempt
    budget) and never falls back to software."""
    monkeypatch.setattr("repro.sysstack.driver.next_target_len",
                        lambda target_len, *_: 2 * target_len)
    result, seen = _decode_counted("nx", "POWER9", _zeros_zlib(), "zlib",
                                   first=1)
    assert result.output == bytes(1 << 20)
    assert not result.stats.fallback_to_software
    assert result.stats.submissions == 21
    _assert_counts(result, seen, 1 << 20)


def test_software_goes_on_from_an_engine_state(nine_members):
    """The driver's fallback finishes a decode an engine left: the same
    state, the window as its history."""
    payload, plain = nine_members
    step = NxDecompressor(POWER9.engine).decompress(
        payload, fmt="gzip", max_output=200_000)
    point = step.resume
    assert point is not None and step.data == plain[:len(step.data)]
    rest, _seconds = run_in_software("decompress", payload, "gzip",
                                     history=point.window, resume=point)
    assert step.data + rest == plain


# -- differential: random first targets against the stdlib -----------------

_FAMILIES = ("markov_text", "json_records", "source_code", "random_bytes",
             "zero_bytes")


@st.composite
def _payloads(draw):
    """``(fmt, payload, history, plain)`` over the wire formats."""
    def body(seed_base: int) -> bytes:
        family = draw(st.sampled_from(_FAMILIES))
        size = draw(st.integers(0, 6000))
        return generate(family, size, seed=seed_base)

    kind = draw(st.sampled_from(["gzip", "zlib", "zlib-fdict", "raw"]))
    if kind == "gzip":
        members = [body(seed) for seed in range(draw(st.integers(1, 9)))]
        return "gzip", _archive(members), b"", b"".join(members)
    plain = body(11)
    level = draw(st.sampled_from([1, 6, 9]))
    if kind == "raw":
        history = generate("markov_text", 32768, seed=12)
        packer = stdzlib.compressobj(level, stdzlib.DEFLATED, -15,
                                     zdict=history)
        return "raw", packer.compress(plain) + packer.flush(), history, plain
    zdict = generate("json_records", 2048, seed=13) \
        if kind == "zlib-fdict" else b""
    packer = (stdzlib.compressobj(level, zdict=zdict) if zdict
              else stdzlib.compressobj(level))
    return "zlib", packer.compress(plain) + packer.flush(), zdict, plain


def _stdlib(fmt: str, payload: bytes, history: bytes) -> bytes:
    if fmt == "gzip":
        return stdgzip.decompress(payload)
    wbits = 15 if fmt == "zlib" else -15
    unpacker = (stdzlib.decompressobj(wbits, zdict=history) if history
                else stdzlib.decompressobj(wbits))
    return unpacker.decompress(payload) + unpacker.flush()


@settings(max_examples=30, deadline=None)
@given(case=_payloads(), first=st.integers(1, 40000))
def test_any_first_target_decodes_as_the_stdlib(case, first):
    """Every target at least doubles and no continuation spends retry
    budget, so from any first target the engine finishes the decode:
    submissions = overflows + 1."""
    fmt, payload, history, plain = case
    assert _stdlib(fmt, payload, history) == plain
    largest = _largest_block(payload, fmt, history)
    for name, machine in ENGINES:
        result, seen = _decode_counted(name, machine, payload, fmt, history,
                                       first)
        assert result.output == plain, name
        _assert_counts(result, seen, largest)
    # The software executor, from wherever the first target stopped.
    step = NxDecompressor(POWER9.engine).decompress(
        payload, fmt=fmt, max_output=first, history=history)
    if step.resume is None:
        assert step.data == plain
        return
    rest, _seconds = run_in_software(
        "decompress", payload, fmt, history=step.resume.window,
        resume=step.resume)
    assert step.data + rest == plain
