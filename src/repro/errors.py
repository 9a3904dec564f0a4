"""Exception hierarchy shared across the repro package, and the one
place a failure is classified.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs, and
every such class is declared here.  Each class carries one *failure
class* (``failure``, inherited by its subclasses), which is all that
the layers above the driver read; none of them derives its own:

============  ==========================  ==========  ========  =========
failure       ``AcceleratorPool._settle``  service     wire      chaos
============  ==========================  ==========  ========  =========
chip          breaker failure + rescue    failed      error     lost
deadline      breaker failure, no rescue  expired     error     shed
overload      (never reaches it)          rejected    rejected  shed
unavailable   (client side only)          —           —         lost
refused       untouched, no rescue        failed      error     lost
============  ==========================  ==========  ========  =========

``chip`` is also the class of anything that is not a library error (an
exec worker's bug is the chip's fault, not the input's); ``refused``,
the default, is bad input or misuse, which fails anywhere.  A failure
is ``retryable`` when it is ``overload`` or ``unavailable``.  A reply
names the class in ``error_type`` (:func:`wire_name`) and the client
raises that class again (:func:`from_wire`).
"""

#: The failure classes a caller may retry.
RETRYABLE = ("overload", "unavailable")


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    Keyword arguments set the fields a class declares (with their
    defaults) as class attributes.
    """

    failure = "refused"

    def __init__(self, message: str = "", **fields: object) -> None:
        super().__init__(message)
        for name, value in fields.items():
            if not hasattr(type(self), name):
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}")
            setattr(self, name, value)

    @property
    def retryable(self) -> bool:
        """May the caller usefully retry this request (possibly elsewhere)?"""
        return self.failure in RETRYABLE


class DeflateError(ReproError):
    """A malformed DEFLATE/zlib/gzip stream or an encoding failure."""


class InputTruncated(DeflateError):
    """The stream ended before the decode did: more input may finish it."""


class ChecksumError(DeflateError):
    """A container checksum (CRC-32 / Adler-32) did not verify."""


class OutputOverflow(DeflateError):
    """Decoded output would pass the decode's bound, in any format."""


#: The bound of a decode nobody bounds: a library call, a local file.
NO_BOUND = 1 << 62


class HuffmanError(DeflateError):
    """An invalid Huffman code description (over/under-subscribed, etc.)."""


class ProtocolError(DeflateError):
    """A malformed or oversized frame on the service socket: ``kind``
    (``oversized_header``, ``bad_header``, ``oversized_payload``,
    ``truncated``), and whether the stream position still allows a
    ``bad_frame`` reply before closing (``answerable``)."""

    kind = "protocol"
    answerable = False


class E842Error(ReproError):
    """Malformed 842 stream."""


class StreamStateError(DeflateError):
    """A compress stream was written after it was finished."""


class SeekIndexError(ReproError):
    """A seek-index artifact is unreadable (bad magic, version, CRC...);
    not a :class:`DeflateError`, since the stream itself may be fine."""


class AcceleratorError(ReproError):
    """The accelerator model rejected or failed a job."""

    failure = "chip"


class JobError(AcceleratorError):
    """A coprocessor job completed with a non-success condition code."""

    cc: int | None = None


class TranslationFault(AcceleratorError):
    """Address translation failed inside the accelerator's address pipe."""

    address = 0
    is_write = False


class DeadlineExceeded(AcceleratorError):
    """A job's modelled elapsed time passed its caller-supplied deadline."""

    failure = "deadline"
    elapsed_s: float | None = None
    deadline_s: float | None = None


class ExecError(AcceleratorError):
    """The process-based execution layer failed a job or a request."""


class WorkerCrash(ExecError):
    """A pool worker process died while (or before) running a job."""

    worker: int | None = None
    exitcode: int | None = None


class ServiceError(ReproError):
    """The compression service rejected or failed a request."""


class ServiceOverloaded(ServiceError):
    """Admission control shed the request: retry after ``retry_after_s``,
    the server's estimate of when capacity frees up."""

    failure = "overload"
    retry_after_s = 0.0
    qos: str | None = None


class ServiceClosed(ServiceError):
    """The service is draining or stopped and accepts no new work."""


class ServiceUnreachable(ServiceError):
    """No server is listening (connection refused / reset / timed out)."""

    failure = "unavailable"
    host = ""
    port: int | None = None


class RetryBudgetExhausted(ServiceError):
    """The client's shared retry budget refused another retry; the
    original failure is its ``__cause__``."""


class VasError(ReproError):
    """Virtual Accelerator Switchboard misuse (no credits, bad window...)."""


class ConfigError(ReproError):
    """An invalid machine/topology/parameter configuration."""


def failure_of(exc: BaseException) -> str:
    """The failure class of ``exc`` (the module docstring's table)."""
    return exc.failure if isinstance(exc, ReproError) else "chip"


#: Every library error by the name a reply gives it in ``error_type``.
BY_WIRE_NAME = {("bad_frame" if cls is ProtocolError else cls.__name__): cls
                for cls in list(globals().values())
                if isinstance(cls, type) and issubclass(cls, ReproError)}
_WIRE_NAMES = {cls: name for name, cls in BY_WIRE_NAME.items()}


def wire_name(exc: BaseException) -> str:
    """``error_type`` for a reply that failed with ``exc``."""
    return _WIRE_NAMES.get(type(exc), type(exc).__name__)


def from_wire(name: str, message: str) -> ReproError:
    """The error a reply's ``error_type`` names, with its message;
    :class:`ServiceError` for a name this side has no class for."""
    return BY_WIRE_NAME.get(name, ServiceError)(message)
