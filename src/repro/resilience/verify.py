"""Verify-after-compress: inflate the payload and compare the bytes.

The production zEDC path can re-inflate compressed output and compare
it before handing the buffer back — a data-integrity backstop
against a mis-executing engine.  This module provides that check for
the model plus the software *repair* path: when verification fails the
job is re-run on the calling core (charged at the calibrated software
rate) so the caller always receives bytes that round-trip.
"""

from __future__ import annotations

from ..deflate import (deflate, gzip_compress, gzip_decompress, inflate,
                       zlib_compress, zlib_decompress)
from ..errors import ReproError
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE


def decode_payload(payload: bytes, fmt: str) -> bytes:
    """Reference software decode of any wire format the stack emits."""
    if fmt == "gzip":
        return gzip_decompress(payload)
    if fmt == "zlib":
        return zlib_decompress(payload)
    if fmt == "842":
        from ..e842 import decompress as e842_decompress

        return e842_decompress(payload)
    return inflate(payload)


def verify_payload(original: bytes, payload: bytes, fmt: str = "raw") -> bool:
    """Does ``payload`` decode back to exactly ``original``?

    The container decode has already checked its own trailer; the byte
    compare decides the rest, so no further checksum pass is made.
    """
    try:
        restored = decode_payload(payload, fmt)
    except ReproError:
        return False
    return restored == original


def software_compress(data: bytes, fmt: str = "raw", level: int = 6,
                      machine=None) -> tuple[bytes, float]:
    """Known-good software re-encode plus its modelled core seconds."""
    if fmt == "gzip":
        payload = gzip_compress(data, level=level)
    elif fmt == "zlib":
        payload = zlib_compress(data, level=level)
    elif fmt == "842":
        from ..e842 import compress as e842_compress

        payload = e842_compress(data).data
        level = 1  # software 842 costs roughly a fast-level zlib
    else:
        payload = deflate(data, level=level).data
    seconds = 0.0
    if machine is not None:
        from ..perf.cost import SoftwareCostModel

        seconds = SoftwareCostModel(machine).compress_seconds(
            len(data), level=level)
    return payload, seconds


def note_mismatch(backend: str, fmt: str, nbytes: int) -> None:
    """Publish one verify failure into metrics and the open span."""
    if _TRACE.enabled:
        _TRACE.event("verify.mismatch", backend=backend, fmt=fmt,
                     nbytes=nbytes)
    if _REGISTRY.enabled:
        _REGISTRY.counter(
            "repro_resilience_verify_mismatch_total",
            "compressed payloads that failed verify-after-compress").inc(
            1, backend=backend, fmt=fmt)
