"""High-level public API: the library a downstream user actually calls.

:class:`NxGzip` mirrors the shape of the production user-space library
(libnxz / zlib-compatible wrappers): open a session against a machine,
then ``compress``/``decompress`` buffers.  Each call runs the full
modelled stack — CRB build, VAS paste, engine execution, fault handling —
and returns both the bytes and the modelled timing, so applications and
experiments share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend.base import BackendStats
from ..backend.registry import create_backend
from ..errors import ConfigError
from ..nx.params import POWER9, MachineParams, get_machine
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import record_job
from ..obs.trace import TRACE as _TRACE
from ..resilience.verify import verify_or_reencode
from ..sysstack.driver import DriverResult


#: Running totals across one session's requests: the same totals, and
#: the same fold, as every backend handle keeps.
SessionStats = BackendStats


@dataclass
class CompressedBuffer:
    """The result of one API call."""

    data: bytes
    modelled_seconds: float
    driver: DriverResult

    @property
    def nbytes(self) -> int:
        return len(self.data)


class NxGzip:
    """A user session on the on-chip compression accelerator model.

    The session itself is thin: it owns a
    :class:`~repro.backend.base.CompressionBackend` handle resolved from
    the registry, accounts per-request stats, and returns
    :class:`CompressedBuffer` results.  All execution detail — CRB
    construction, paste/drain, DFLTCC re-issue, software fallback —
    lives behind the backend.

    Parameters
    ----------
    machine:
        A :class:`MachineParams` or machine name ("POWER9", "z15").
    backend:
        Registry name of the execution backend ("nx", "dfltcc",
        "software", "842").  Defaults to the NX driver stack, which
        models both machines' gzip engines.
    verify:
        Verify-after-compress: re-inflate every compressed payload and
        CRC-check it against the input before returning; on a mismatch
        the buffer is re-encoded in software (and the failure is
        published to metrics), so callers always receive bytes that
        round-trip.
    backend_kwargs:
        Passed to the backend; ``fault_probability`` and ``seed`` make
        the ``nx`` stack fault page translations (the touch-and-resubmit
        path), which no other backend models.
    """

    def __init__(self, machine: MachineParams | str = POWER9,
                 backend: str | None = None, verify: bool = False,
                 **backend_kwargs) -> None:
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine = machine
        self.backend_name = backend or "nx"
        if self.backend_name != "nx" and backend_kwargs.pop(
                "fault_probability", 0.0):
            raise ConfigError(
                "fault injection is a property of the 'nx' driver stack; "
                f"backend {self.backend_name!r} does not model it")
        self.backend = create_backend(self.backend_name, machine=machine,
                                      **backend_kwargs)
        self.verify = verify
        self.stats = SessionStats()
        self.verify_failures = 0

    @property
    def accelerator(self):
        """The underlying accelerator (``nx`` backend only)."""
        return self.backend.accelerator

    # -- public operations ---------------------------------------------------

    def compress(self, data: bytes, strategy: str = "auto",
                 fmt: str = "gzip",
                 deadline_s: float | None = None) -> CompressedBuffer:
        """Compress ``data``; ``fmt`` is raw | zlib | gzip.

        ``deadline_s`` bounds the modelled seconds this one call may
        spend waiting (retries, fault fixups) before
        :class:`~repro.errors.DeadlineExceeded` is raised.
        """
        with _TRACE.span("api.compress", backend=self.backend_name,
                         fmt=fmt, nbytes=len(data)) as span:
            result = self.backend.compress(data, strategy=strategy, fmt=fmt,
                                           deadline_s=deadline_s)
            span.set(out_bytes=len(result.output),
                     modelled_s=result.stats.elapsed_seconds)
        result = self._maybe_verify(data, fmt, result)
        self._account(len(data), result, "compress")
        return CompressedBuffer(data=result.output,
                                modelled_seconds=result.stats.elapsed_seconds,
                                driver=result)

    def decompress(self, payload: bytes,
                   fmt: str = "gzip",
                   deadline_s: float | None = None) -> CompressedBuffer:
        """Decompress ``payload`` produced in the same wire format."""
        with _TRACE.span("api.decompress", backend=self.backend_name,
                         fmt=fmt, nbytes=len(payload)) as span:
            result = self.backend.decompress(payload, fmt=fmt,
                                             deadline_s=deadline_s)
            span.set(out_bytes=len(result.output),
                     modelled_s=result.stats.elapsed_seconds)
        self._account(len(payload), result, "decompress")
        return CompressedBuffer(data=result.output,
                                modelled_seconds=result.stats.elapsed_seconds,
                                driver=result)

    def _maybe_verify(self, data: bytes, fmt: str,
                      result: DriverResult) -> DriverResult:
        """Verify-after-compress; mismatches are re-encoded in software."""
        if not self.verify:
            return result
        verified = verify_or_reencode(data, result, fmt,
                                      backend=self.backend_name,
                                      machine=self.machine)
        if verified is not result:
            self.verify_failures += 1
        return verified

    def compress_842(self, data: bytes) -> CompressedBuffer:
        """Compress through the 842 pipes (memory-compression format)."""
        with _TRACE.span("api.compress", backend=self.backend_name,
                         fmt="842", nbytes=len(data)) as span:
            result = self.backend.compress(data, fmt="842")
            span.set(out_bytes=len(result.output))
        result = self._maybe_verify(data, "842", result)
        self._account(len(data), result, "compress")
        return CompressedBuffer(data=result.output,
                                modelled_seconds=result.stats.elapsed_seconds,
                                driver=result)

    def compress_chunk(self, chunk: bytes, history: bytes = b"",
                       final: bool = True) -> DriverResult:
        """One continuation-unit compression, session-accounted.

        The streaming layer calls this per chunk so faults/fallbacks on
        streaming requests land in :attr:`stats` like every other path.
        """
        with _TRACE.span("api.compress_chunk", backend=self.backend_name,
                         nbytes=len(chunk), final=final) as span:
            result = self.backend.compress(chunk, fmt="raw",
                                           history=history, final=final)
            span.set(out_bytes=len(result.output))
        self._account(len(chunk), result, "compress")
        return result

    def compress_stream(self, fmt: str = "gzip") -> "CompressStream":
        """Open a chunk-at-a-time compression stream on this session;
        its units are :meth:`compress_chunk` requests."""
        from ..deflate.stream import CompressStream

        return CompressStream(
            lambda chunk, history, final: self.compress_chunk(
                chunk, history, final).output, fmt)

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "NxGzip":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- helpers -----------------------------------------------------------

    def _account(self, nin: int, result: DriverResult, op: str) -> None:
        self.stats.record(result, nin)
        nout = len(result.output)
        # One compact ring append per job: the always-on black box.
        _FLIGHT.record("api." + op, nbytes=nin, out=nout,
                       backend=self.backend_name)
        # SessionStats stays the per-session view; the registry is
        # the cross-session aggregate fed from the same point.
        record_job("api", op=op, nbytes_in=nin, nbytes_out=nout,
                   seconds=result.stats.elapsed_seconds,
                   faults=result.stats.translation_faults,
                   fallback=result.stats.fallback_to_software,
                   backend=self.backend_name)
