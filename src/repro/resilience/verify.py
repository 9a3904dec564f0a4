"""The software executor, and verify-after-compress on top of it.

The production libraries keep exactly one software zlib as the last
resort; :func:`run_in_software` is ours — whoever runs a job on the
calling core (a software backend, the driver's fallback, the pool's
rescue, a repair) calls it, charged at the calibrated software rate.

The production zEDC path can re-inflate compressed output and compare
it before handing the buffer back — a data-integrity backstop against a
mis-executing engine.  :func:`verify_payload` is that check, and
:func:`verify_or_reencode` — the one verify step of the session API and
the pool — re-runs a job that fails it here, so the caller always
receives bytes that round-trip.
"""

from __future__ import annotations

from dataclasses import replace

from .. import e842
from ..deflate.containers import decode_with_stats, encode
from ..errors import NO_BOUND, ReproError
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from ..perf.cost import SoftwareCostModel


def run_in_software(kind: str, data: bytes, fmt: str, *, level: int = 6,
                    history: bytes = b"", final: bool = True,
                    machine=None, resume=None,
                    max_output: int = NO_BOUND) -> tuple[bytes, float]:
    """Run one job on the calling core: the only software executor.

    Every take-over — the driver's fallback when retries run out, the
    pool's rescue of a failed chip's job, the re-encode after a failed
    verify — and the software backends themselves are this function, so
    a job keeps its ``history`` and ``final`` wherever it ends up and
    the bytes are what the engine would have written for ``fmt``.  A
    decode an engine left at ``resume`` (a full target) goes on from
    there, ``history`` its window, up to ``max_output`` bytes.
    Returns the output and the calibrated core seconds on ``machine``
    (0.0 without one).
    """
    if fmt == "842":
        output = (e842.compress(data).data if kind == "compress"
                  else e842.decompress(data, max_output))
        level = 1  # software 842 costs roughly a fast-level zlib
    elif kind == "compress":
        output = encode(data, fmt, level, history, final)
    else:
        output = decode_with_stats(data, fmt, history=history,
                                   resume=resume, max_output=max_output)[0]
    if machine is None:
        return output, 0.0
    cost = SoftwareCostModel(machine)
    if kind == "compress":
        return output, cost.compress_seconds(len(data), level=level)
    return output, cost.decompress_seconds(len(output))


def decode_payload(payload: bytes, fmt: str) -> bytes:
    """Reference software decode of any wire format the stack emits."""
    return run_in_software("decompress", payload, fmt)[0]


def verify_payload(original: bytes, payload: bytes, fmt: str = "raw") -> bool:
    """Does ``payload`` decode back to exactly ``original``?

    The container decode has already checked its own trailer; the byte
    compare decides the rest, so no further checksum pass is made.
    """
    try:
        return decode_payload(payload, fmt) == original
    except ReproError:
        return False


def software_compress(data: bytes, fmt: str = "raw", level: int = 6,
                      machine=None) -> tuple[bytes, float]:
    """Known-good software re-encode plus its modelled core seconds."""
    return run_in_software("compress", data, fmt, level=level,
                           machine=machine)


def verify_or_reencode(data: bytes, result, fmt: str, *, backend: str,
                       machine, **where: object):
    """Verify-after-compress of one job's ``DriverResult``.

    Returns ``result`` itself when its output decodes back to ``data``.
    Otherwise the mismatch is published (a ``verify.mismatch`` event on
    the open span, the mismatch counter, a throttled ``verify_failure``
    flight dump whose detail ``where`` extends) and a software re-encode
    is returned, its core seconds on ``machine`` added to the job's, so
    a caller counts its failures as ``returned is not result``.
    """
    if verify_payload(data, result.output, fmt):
        return result
    _TRACE.event("verify.mismatch", backend=backend, fmt=fmt,
                 nbytes=len(data))
    _REGISTRY.counter(
        "repro_resilience_verify_mismatch_total",
        "compressed payloads that failed verify-after-compress").inc(
        1, backend=backend, fmt=fmt)
    _FLIGHT.auto_dump("verify_failure", backend=backend, fmt=fmt, **where,
                      nbytes=len(data))
    output, seconds = run_in_software("compress", data, fmt,
                                      machine=machine)
    stats = result.stats
    stats.fallback_to_software = True
    stats.elapsed_seconds += seconds
    return replace(result, output=output, csb=None, engine_result=None)
