"""Worker-process side of the execution layer.

A worker is a plain ``python -c`` child started by
:class:`~repro.exec.pool.ProcessWorkerPool`: :func:`main` reads tasks
from one pipe and writes results to another, each message one
length-prefixed pickle (:func:`frame` / :func:`read_frame`).  The parent
gives a worker one job at a time, so a task is ``(fn_name, kwargs,
opts)`` and its answer ``(error, result, spans, metrics)`` — no job id,
no claim: the parent knows which job it handed over.  A message that
is a dict, ``{key: library}``, is no task: it is the canned library the
tasks after it name by key, kept and not answered.  EOF on the task
pipe (the parent shut the pool down, or died) ends the worker.

Job functions are published in a string-keyed registry (the same lazy
``"module:attr"`` convention as the backend registry) so a worker only
imports the layers it actually executes.

Telemetry does not vanish inside workers: when the parent's tracer (or
a job's opts) asks for it, the job runs under this process's own
tracer/metrics registry and the finished span dicts plus a metrics
snapshot ride back on the result, where the parent folds them into its
process-global collectors (:meth:`~repro.obs.trace.Tracer.fold`,
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from importlib import import_module
from typing import Callable

from ..errors import NO_BOUND, ExecError
from ..obs.context import TraceContext
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE

#: True inside a pool worker process; layers that would otherwise
#: recurse into the pool (an exec-enabled ``AcceleratorPool``) check
#: this and run inline instead.
_IN_WORKER = False

#: Bytes of a frame's little-endian length prefix.
_LENGTH_BYTES = 8


def in_worker() -> bool:
    """Is this process an execution-layer worker?"""
    return _IN_WORKER


#: Job-function registry: name -> callable or lazy "module:attr" spec.
_WORKER_FNS: dict[str, Callable | str] = {
    "echo": "repro.exec.worker:echo",
    "crash": "repro.exec.worker:crash",
    "backend_job": "repro.exec.worker:backend_job",
}


def resolve_worker_fn(name: str) -> Callable:
    """Resolve a job-fn name to a callable, importing lazily.

    A name spelled ``module:attr`` resolves by import even when the
    registry does not list it: that is how a custom job function
    reaches a worker.
    """
    try:
        fn = _WORKER_FNS[name]
    except KeyError:
        if ":" not in name:
            raise ExecError(f"unknown worker fn {name!r}; "
                            f"have {sorted(_WORKER_FNS)}") from None
        fn = name
    if isinstance(fn, str):
        module_name, _, attr = fn.partition(":")
        try:
            fn = getattr(import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ExecError(
                f"cannot resolve worker fn {name!r}: {exc}") from exc
        _WORKER_FNS[name] = fn
    return fn


# -- framing -----------------------------------------------------------------

def frame(message: object) -> bytes:
    """``message`` as one length-prefixed pickle."""
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return len(body).to_bytes(_LENGTH_BYTES, "little") + body


def write_frame(fd: int, data: bytes) -> None:
    """Write a whole :func:`frame` to a pipe."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> bytes:
    parts: list[bytes] = []
    left = size
    while left:
        part = os.read(fd, left)
        if not part:
            raise EOFError("pipe closed")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def read_frame(fd: int) -> object:
    """The next message on a pipe; :class:`EOFError` once the writer is
    gone."""
    size = int.from_bytes(_read_exact(fd, _LENGTH_BYTES), "little")
    return pickle.loads(_read_exact(fd, size))


# -- built-in job functions --------------------------------------------------

def echo(value: object = None) -> object:
    """Round-trip probe: returns its argument (pool health checks)."""
    return value


def crash(exitcode: int = 13) -> None:
    """Kill this worker mid-job (crash-recovery tests and chaos)."""
    os._exit(exitcode)


#: Worker-side backend cache: one instance per (backend, machine,
#: kwargs) so a warm worker amortises driver-stack construction the
#: same way the pool's lazily created per-chip instances do.
_BACKENDS: dict[tuple, object] = {}

#: The last canned library the parent sent, by key: every job naming
#: that key reuses the tables it built.
_LIBRARY: dict = {}


def backend_job(*, backend: str, machine: str, backend_kwargs: dict,
                kind: str, fmt: str, data: bytes, strategy: str = "auto",
                deadline_s: float | None = None, library=None,
                max_output: int = NO_BOUND):
    """Run one final, history-less backend compress (or a decompress,
    bounded by ``max_output``) in this worker, under the canned library
    keyed ``library`` (None: built-in).

    Returns the :class:`~repro.sysstack.driver.DriverResult` without its
    CSB: the output bytes and the submission stats.
    """
    from ..backend.registry import create_backend
    from ..nx.dht import BUILTIN
    from ..sysstack.driver import DriverResult

    key = (backend, machine, tuple(sorted(backend_kwargs.items())))
    instance = _BACKENDS.get(key)
    if instance is None:
        instance = _BACKENDS[key] = create_backend(
            backend, machine=machine, **backend_kwargs)
    if kind == "compress":
        result = instance.compress(
            data, strategy=strategy, fmt=fmt, deadline_s=deadline_s,
            library=BUILTIN if library is None else _LIBRARY[library])
    else:
        result = instance.decompress(data, fmt=fmt, deadline_s=deadline_s,
                                     max_output=max_output)
    return DriverResult(output=result.output, csb=None, stats=result.stats)


# -- telemetry capture -------------------------------------------------------

def _run_traced(fn: Callable, kwargs: dict,
                opts: dict) -> tuple[object, BaseException | None,
                                     list | None, dict | None]:
    """Execute one job, capturing this process's spans and metrics.

    The worker's *global* tracer/registry are enabled for the duration
    so the kernels' own span and metric calls record; both are reset
    afterwards, leaving nothing behind between jobs.

    Traced jobs run under a ``worker.job`` root span.  When the
    descriptor carries a wire trace context (``opts["traceparent"]``,
    forwarded from the submitting process), the root span joins that
    trace — the parent's :meth:`~repro.obs.trace.Tracer.fold` re-parents
    it locally, and the wire id keeps the join valid even when the spans
    are exported straight from a worker dump.
    """
    want_trace = bool(opts.get("trace"))
    want_metrics = bool(opts.get("metrics"))
    if want_trace:
        _TRACE.reset()
        _TRACE.enable()
    if want_metrics:
        _REGISTRY.reset()
        _REGISTRY.enabled = True
    result: object = None
    error: BaseException | None = None
    try:
        # Only a traced job's descriptor carries a traceparent.
        parsed = TraceContext.parse(opts.get("traceparent"))
        with _TRACE.span("worker.job", ctx=parsed.child() if parsed else None,
                         pid=os.getpid()) as root:
            try:
                result = fn(**kwargs)
            except BaseException as exc:
                root.set(error=type(exc).__name__)
                raise
    except BaseException as exc:
        error = exc
    spans = metrics = None
    if want_trace:
        _TRACE.disable()
        spans = [span.to_dict() for span in _TRACE.finished()]
        _TRACE.reset()
    if want_metrics:
        _REGISTRY.enabled = False
        metrics = _REGISTRY.snapshot()
        _REGISTRY.reset()
    return result, error, spans, metrics


def _portable_error(exc: BaseException) -> BaseException:
    """An exception safe to pickle across the result pipe."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        detail = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return ExecError(f"worker job failed with unpicklable "
                         f"{type(exc).__name__}: {exc}\n{detail}")


# -- the worker loop ---------------------------------------------------------

def _answer(fn_name: str, kwargs: dict, opts: dict) -> bytes:
    """Run one task; its answer, framed."""
    delay_s = opts.get("delay_s", 0.0)
    if delay_s:
        time.sleep(delay_s)
    try:
        fn = resolve_worker_fn(fn_name)
    except ExecError as exc:
        return frame((exc, None, None, None))
    result, error, spans, metrics = _run_traced(fn, kwargs, opts)
    if error is None:
        try:
            return frame((None, result, spans, metrics))
        except Exception as exc:  # unpicklable result
            error = exc
    return frame((_portable_error(error), None, spans, metrics))


def main(task_fd: int, result_fd: int) -> None:
    """Entry point of one pool worker process: answer every task on
    ``task_fd`` on ``result_fd`` until the parent closes either pipe."""
    global _IN_WORKER
    _IN_WORKER = True
    # A ctrl-C reaches the whole process group; the parent decides
    # what happens to the jobs it gave out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            task = read_frame(task_fd)
            if isinstance(task, dict):
                _LIBRARY.clear()
                _LIBRARY.update(task)
                continue
            write_frame(result_fd, _answer(*task))
    except (EOFError, BrokenPipeError):
        return
