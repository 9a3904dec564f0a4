"""The unified backend seam: one protocol every execution path implements.

Four parallel execution paths grew around the paper's stack — software
zlib, the POWER9 asynchronous NX driver, the z15 synchronous DFLTCC
loop, and the 842 memory-compression engines.  :class:`CompressionBackend`
is the single seam they all sit behind, mirroring how libnxz and
zlib-dfltcc hide the hardware-vs-software decision behind the one zlib
API in the production stack:

* ``compress``/``decompress`` return the same :class:`DriverResult`
  shape the driver produces (output bytes plus per-request
  :class:`SubmissionStats`), so callers account timing, faults, and
  software fallbacks identically regardless of the backend;
* ``capabilities`` describes what the backend can do — wire formats,
  modelled sustained rates, per-call overhead — so
  policy layers (offload advisor, Spark models, the pool) can reason
  about a backend without knowing its concrete class;
* ``stats`` accumulates session totals across requests.

Concrete backends implement ``_compress``/``_decompress``; the public
methods normalise arguments and keep the accounting uniform.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

from ..errors import NO_BOUND, ConfigError
from ..nx.dht import BUILTIN, CannedLibrary, DhtStrategy
from ..obs.metrics import record_job
from ..obs.trace import TRACE as _TRACE
from ..sysstack.driver import DriverResult


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend supports and how fast it is modelled to run.

    ``formats`` lists the wire formats ``compress``/``decompress``
    accept, in preference order — ``formats[0]`` is the backend's
    default.  ``"842"`` is the pseudo-format selecting the NX 842
    memory-compression pipes.  Rates are modelled sustained GB/s on the
    reference corpus; ``per_call_overhead_s`` is the fixed invocation
    cost (submit + dispatch + completion for the async paths, the
    instruction issue for DFLTCC, zero for software).
    """

    name: str
    formats: tuple[str, ...]
    synchronous: bool
    hardware: bool
    compress_gbps: float
    decompress_gbps: float
    per_call_overhead_s: float = 0.0

    @property
    def default_format(self) -> str:
        return self.formats[0]


@dataclass
class BackendStats:
    """Running totals across one handle's requests: a backend's, or an
    ``NxGzip`` session's (``repro.core.SessionStats`` is this class)."""

    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    modelled_seconds: float = 0.0
    faults: int = 0
    fallbacks: int = 0

    def record(self, result: DriverResult, nbytes_in: int) -> None:
        """Fold one completed request into the totals."""
        self.requests += 1
        self.bytes_in += nbytes_in
        self.bytes_out += len(result.output)
        self.modelled_seconds += result.stats.elapsed_seconds
        self.faults += result.stats.translation_faults
        self.fallbacks += int(result.stats.fallback_to_software)


def _annotate(span, result: DriverResult) -> None:
    """Attach completion accounting to a ``backend.submit`` span."""
    stats = result.stats
    span.set(out_bytes=len(result.output),
             modelled_s=stats.elapsed_seconds,
             submissions=stats.submissions)
    if stats.translation_faults:
        span.set(faults=stats.translation_faults)
    if stats.fallback_to_software:
        span.event("fallback.software")


#: The strategy strings a request may name (``DhtStrategy`` values).
_STRATEGIES = tuple(member.value for member in DhtStrategy)


class CompressionBackend(abc.ABC):
    """One way of executing compression jobs (software or modelled HW)."""

    #: Registry key this class is published under.
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self._stats = BackendStats()

    # -- the protocol --------------------------------------------------------

    def compress(self, data: bytes, *, strategy: object = "auto",
                 fmt: str | None = None, history: bytes = b"",
                 final: bool = True,
                 deadline_s: float | None = None,
                 library: CannedLibrary = BUILTIN) -> DriverResult:
        """Compress ``data``; ``fmt`` defaults to the backend's native one.

        ``history`` primes the match window for continuation requests
        and ``final=False`` asks for a continuable raw stream (the
        ``software``, ``nx`` and ``dfltcc`` backends take both).
        ``deadline_s`` bounds the modelled time the backend may spend
        *waiting* (retries, fault fixups); past it the call raises
        :class:`~repro.errors.DeadlineExceeded`.  ``library`` is the
        canned tables the request carries to the engine.
        """
        fmt, strategy = self._checked(fmt, strategy)
        with _TRACE.span("backend.submit", backend=self.name,
                         op="compress", fmt=fmt, nbytes=len(data)) as span:
            result = self._compress(data, strategy, fmt, history, final,
                                    library, deadline_s)
            _annotate(span, result)
        self._record(result, len(data), "compress")
        return result

    def decompress(self, payload: bytes, *, fmt: str | None = None,
                   history: bytes = b"", deadline_s: float | None = None,
                   max_output: int = NO_BOUND) -> DriverResult:
        """Decompress ``payload`` produced in the same wire format;
        output past ``max_output`` is an :class:`OutputOverflow`."""
        fmt, _ = self._checked(fmt)
        with _TRACE.span("backend.submit", backend=self.name,
                         op="decompress", fmt=fmt,
                         nbytes=len(payload)) as span:
            result = self._decompress(payload, fmt, history, deadline_s,
                                      max_output)
            _annotate(span, result)
        self._record(result, len(payload), "decompress")
        return result

    def _checked(self, fmt: str | None,
                 strategy: object = "auto") -> tuple[str, str]:
        """One request's wire format (the default for None) and strategy
        string (a :class:`DhtStrategy` member or its value), refused with
        :class:`ConfigError` before any engine sees them when this
        backend has no such format or there is no such strategy."""
        caps = self.capabilities()
        fmt = fmt or caps.default_format
        if fmt not in caps.formats:
            raise ConfigError(f"backend {self.name!r} has no wire format "
                              f"{fmt!r}; have {caps.formats}")
        strategy = getattr(strategy, "value", strategy)
        if strategy not in _STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; have "
                              f"{_STRATEGIES}")
        return fmt, strategy

    def _record(self, result: DriverResult, nbytes_in: int,
                op: str) -> None:
        """Session accounting plus the global registry."""
        self._stats.record(result, nbytes_in)
        record_job("backend", op=op, nbytes_in=nbytes_in,
                   nbytes_out=len(result.output),
                   seconds=result.stats.elapsed_seconds,
                   faults=result.stats.translation_faults,
                   fallback=result.stats.fallback_to_software,
                   backend=self.name)

    def capabilities(self) -> BackendCapabilities:
        """Static description of formats and modelled rates: the
        ``_caps`` each backend's constructor sets."""
        return self._caps

    def stats(self) -> BackendStats:
        """Cumulative totals over every request this handle served."""
        return self._stats

    def close(self) -> None:
        """Release modelled resources (VAS windows etc.); idempotent."""

    # -- implementation hooks ------------------------------------------------
    # (``deadline_s`` as the public methods take it: only the NX driver
    # waits, so the other backends ignore it.)

    @abc.abstractmethod
    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool,
                  library: CannedLibrary,
                  deadline_s: float | None) -> DriverResult:
        ...

    @abc.abstractmethod
    def _decompress(self, payload: bytes, fmt: str, history: bytes,
                    deadline_s: float | None, max_output: int) -> DriverResult:
        ...

    # -- context management --------------------------------------------------

    def __enter__(self) -> "CompressionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
