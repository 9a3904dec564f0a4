"""One hostile corpus, one error class at every edge.

Each bad input goes to the served decode over the wire, to an
``AcceleratorPool`` job (on ``nx``, and on ``dfltcc`` where the pool
runs it on the calling thread), and to ``repro decompress`` and
``repro cat --range`` (beside a truncated RSIX sidecar, which it
reports and ignores); every edge names the same class (the CLI in its
``error:`` line, as :func:`repro.errors.wire_name` spells it).  A zero
bomb is refused where a class bound applies — the wire, and a pool job
carrying the bound as the service sets it — and decoded by the CLI,
whose input is the user's own file.
"""

from __future__ import annotations

import gzip as stdgzip
import re
import struct
import zlib as stdzlib

import pytest

from repro import cli
from repro.backend.pool import AcceleratorPool, Job
from repro.deflate.seekindex import decode_indexed
from repro.errors import ChecksumError, DeflateError, wire_name
from repro.service import CompressionService, ServiceClient, serve
from repro.service.qos import QosClass, QosPolicy
from repro.workloads.generators import generate

TEXT = generate("markov_text", 20000, seed=5)
#: The one class's byte bound, so its decode bound too.
BOUND = 256 << 10
#: Ten bytes of gzip header (no flags) in front of a body.
HEADER = b"\x1f\x8b\x08\x00" + bytes(4) + b"\x00\xff"


def _with_flags(flags: int, fields: bytes) -> bytes:
    return HEADER[:3] + bytes([flags]) + HEADER[4:] + fields


def hostile_corpus() -> dict[str, tuple[bytes, str, str | None]]:
    """``name -> (payload, fmt, class at a bounded edge)``."""
    member = stdgzip.compress(TEXT, mtime=0)
    stream = stdzlib.compress(TEXT)
    packer = stdzlib.compressobj(zdict=b"a preset dictionary " * 8)
    with_dict = packer.compress(TEXT) + packer.flush()
    return {
        "gzip_header_cut": (member[:7], "gzip", "DeflateError"),
        "gzip_magic_forged": (b"\x1f\x8c" + member[2:], "gzip",
                              "DeflateError"),
        "gzip_method_forged": (member[:2] + b"\x07" + member[3:], "gzip",
                               "DeflateError"),
        "zlib_header_cut": (stream[:1], "zlib", "DeflateError"),
        "zlib_check_forged": (stream[:1] + bytes([stream[1] ^ 1])
                              + stream[2:], "zlib", "DeflateError"),
        "fextra_overrun": (_with_flags(0x04, struct.pack("<H", 0xFFFF)
                                       + member[10:200]), "gzip",
                           "DeflateError"),
        "fname_overrun": (_with_flags(0x08, b"name" + bytes(range(1, 200))),
                          "gzip", "DeflateError"),
        # FDICT names a dictionary the request does not carry.
        "dictid_unmatched": (with_dict, "zlib", "DeflateError"),
        "isize_forged": (member[:-4] + struct.pack("<I", len(TEXT) + 1),
                         "gzip", "ChecksumError"),
        "body_cut": (member[:len(member) // 2], "gzip", "InputTruncated"),
        "zero_bomb": (stdgzip.compress(bytes(4 * BOUND)), "gzip",
                      "OutputOverflow"),
    }


CASES = sorted(hostile_corpus())
#: A valid seek index of another payload, cut in half below.
SIDECAR = decode_indexed(stdgzip.compress(TEXT), "gzip",
                         index_spacing=4096).index.to_bytes()


@pytest.fixture(scope="module")
def edges():
    """The wire (a one-class service over ``nx``) and two pools."""
    service = CompressionService(chips=1, qos=QosPolicy(
        (QosClass("small", queue_bytes_limit=BOUND),)))
    server = serve(service, port=0)
    client = ServiceClient(port=server.port)
    pools = {"nx": AcceleratorPool("POWER9", chips=1, backend="nx"),
             "dfltcc": AcceleratorPool("z15", chips=1, backend="dfltcc")}
    yield client, pools
    client.close()
    server.shutdown()
    service.close()
    for pool in pools.values():
        pool.close()


def _wire(client, payload: bytes, fmt: str) -> str | None:
    try:
        client.request("decompress", payload, fmt=fmt, qos="small")
    except DeflateError as exc:
        return wire_name(exc)
    return None


def _pool(pool, payload: bytes, fmt: str) -> str | None:
    """A job as the service builds it: its bound on it."""
    job = Job("decompress", payload, fmt, "auto", None)
    job.max_output = BOUND
    pool.submit(job)
    pool.wait_all()
    return None if job.error is None else wire_name(job.error)


def _cli(capsys, argv: list[str]) -> tuple[str | None, str]:
    """The class a CLI run's ``error:`` line names (None: it exited
    0), and all it wrote to stderr."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    if code == 0:
        return None, err
    last = err.strip().splitlines()[-1]
    assert code == 1 and last.startswith("error: "), err
    return re.fullmatch(r"error: .* \[(\w+)\]", last)[1], err


@pytest.mark.parametrize("name", CASES)
def test_every_edge_reports_one_class(edges, capsys, tmp_path, name):
    payload, fmt, expected = hostile_corpus()[name]
    client, pools = edges
    path = tmp_path / "in"
    path.write_bytes(payload)
    (tmp_path / "in.rsix").write_bytes(SIDECAR[:len(SIDECAR) // 2])
    cat, notes = _cli(capsys, ["cat", str(path), "-o",
                               str(tmp_path / "out"), "--fmt", fmt,
                               "--range", "100:50"])
    assert "ignoring index" in notes
    # The CLI's input is the user's own file: no class bound applies.
    local = None if expected == "OutputOverflow" else expected
    seen = {
        "wire": _wire(client, payload, fmt),
        "pool nx": _pool(pools["nx"], payload, fmt),
        "pool dfltcc": _pool(pools["dfltcc"], payload, fmt),
        "repro decompress": _cli(capsys, [
            "decompress", str(path), "-o", str(tmp_path / "out"),
            "--fmt", fmt])[0],
        "repro cat --range": cat,
    }
    assert seen == {"wire": expected, "pool nx": expected,
                    "pool dfltcc": expected, "repro decompress": local,
                    "repro cat --range": local}


def test_a_wrong_dictionary_is_a_checksum_error(edges):
    """With a dictionary the DICTID names another one: the header
    check, at the pool as in the library."""
    payload, fmt, _ = hostile_corpus()["dictid_unmatched"]
    _, pools = edges
    with pytest.raises(ChecksumError, match="DICTID"):
        pools["nx"].decompress(payload, fmt=fmt, history=b"another one")
