"""Exception hierarchy shared across the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DeflateError(ReproError):
    """A malformed DEFLATE/zlib/gzip stream or an encoding failure."""


class ChecksumError(DeflateError):
    """A container checksum (CRC-32 / Adler-32) did not verify."""


class OutputOverflow(DeflateError):
    """Decoded output would exceed the caller's buffer capacity."""


class HuffmanError(DeflateError):
    """An invalid Huffman code description (over/under-subscribed, etc.)."""


class SeekIndexError(ReproError):
    """A seek-index artifact is unreadable (bad magic, version, CRC...).

    Deliberately *not* a :class:`DeflateError`: the compressed stream
    itself may be perfectly fine — only the sidecar index is unusable.
    Callers recover by falling back to a full serial decode; the index
    layer never serves bytes from an artifact it cannot verify.
    """


class AcceleratorError(ReproError):
    """The accelerator model rejected or failed a job."""


class JobError(AcceleratorError):
    """A coprocessor job completed with a non-success condition code."""

    def __init__(self, message: str, cc: int | None = None) -> None:
        super().__init__(message)
        self.cc = cc


class TranslationFault(AcceleratorError):
    """Address translation failed inside the accelerator's address pipe."""

    def __init__(self, address: int, is_write: bool) -> None:
        kind = "write" if is_write else "read"
        super().__init__(f"translation fault on {kind} at 0x{address:x}")
        self.address = address
        self.is_write = is_write


class DeadlineExceeded(AcceleratorError):
    """A job's modelled elapsed time passed its caller-supplied deadline."""

    def __init__(self, message: str, elapsed_s: float | None = None,
                 deadline_s: float | None = None) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s


class ExecError(AcceleratorError):
    """The process-based execution layer failed a job or a request."""


class WorkerCrash(ExecError):
    """A pool worker process died while (or before) running a job.

    Derives from :class:`AcceleratorError` so the accelerator pool's
    rescue machinery treats a crashed worker exactly like a failed
    chip: the job reruns on the calling core and the caller still gets
    correct bytes.
    """

    def __init__(self, message: str, worker: int | None = None,
                 exitcode: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.exitcode = exitcode


class ServiceError(ReproError):
    """The compression service rejected or failed a request."""

    #: May the client usefully retry this request (possibly elsewhere)?
    retryable = False


class ServiceOverloaded(ServiceError):
    """Admission control shed the request; retry after a backoff.

    The bounded per-class queues are full — the server prefers an
    explicit, cheap rejection over unbounded buffering.  ``retry_after_s``
    is the server's estimate of when capacity frees up.
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 0.0,
                 qos: str | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.qos = qos


class ServiceClosed(ServiceError):
    """The service is draining or stopped and accepts no new work."""


class ServiceUnreachable(ServiceError):
    """No server is listening (connection refused / reset / timed out).

    Retryable by definition — the server may simply not be up *yet* —
    and carried as a one-line, traceback-free message by the CLI.
    """

    retryable = True

    def __init__(self, message: str, host: str = "",
                 port: int | None = None) -> None:
        super().__init__(message)
        self.host = host
        self.port = port


class RetryBudgetExhausted(ServiceError):
    """The client's shared retry budget refused another retry.

    Raised instead of hammering a struggling server: when retries are
    being spent faster than successful requests earn them back, the
    *original* failure is attached as ``__cause__`` and surfaced.
    """


class VasError(ReproError):
    """Virtual Accelerator Switchboard misuse (no credits, bad window...)."""


class ConfigError(ReproError):
    """An invalid machine/topology/parameter configuration."""
