"""ProcessWorkerPool: a persistent, crash-tolerant process fleet.

The GIL makes thread "parallelism" over the pure-Python codec kernels a
regression, and a per-call ``ProcessPoolExecutor`` pays worker spin-up
plus full payload pickling on every request.  This pool is the fix the
execution layers share:

* **warm-started once** — workers start lazily on first use and are
  reused for every later job, so a steady-state call pays two pipe hops;
* **one job per worker, on plain pipes** — each worker is a
  ``subprocess`` child with its own task pipe and result pipe carrying
  length-prefixed pickles (:mod:`.worker`).  The parent hands each job
  to one idle worker and holds the backlog itself, so neither side ever
  blocks on a full pipe, and payloads and outputs travel inline;
* **crash containment** — a worker's death is EOF on its result pipe,
  and the parent knows which job it gave that worker: exactly that job
  fails (:class:`~repro.errors.WorkerCrash`), a replacement starts, and
  the layers above decide whether to retry (``run_batch``) or rescue in
  software (the accelerator pool's breaker path);
* **truthful telemetry** — results carry the worker's span dicts and
  metrics snapshot; the parent folds them into the process-global
  tracer/registry, so traces and counters look the same whether a job
  ran inline or in a worker.

A worker is started with ``python -c`` rather than ``-m`` (which would
load a second copy of :mod:`.worker`, with its own ``in_worker()`` flag
and job registry) and with no ``multiprocessing``: no resource-tracker
process, and nothing re-runs the parent's main module.  It stays in the
parent's process group and exits at EOF on its task pipe, so a killed
parent leaves no worker behind.  The module-level default pool
(:func:`get_default_pool`) is what the accelerator pools of one
process share; it is shut down atexit and by the test suite.
"""

from __future__ import annotations

import atexit
import itertools
import os
import select
import subprocess
import sys
import threading
import time
from collections import deque

from ..errors import ConfigError, ExecError, WorkerCrash
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .worker import frame, in_worker, read_frame, write_frame

#: Default seconds a graceful shutdown waits before killing workers.
SHUTDOWN_TIMEOUT_S = 5.0

#: Times ``run_batch`` resubmits a job whose worker crashed.
CRASH_RETRIES = 2

#: The directory this process imported ``repro`` from.  A worker's path
#: starts there, so it runs the same tree even when the parent put it on
#: ``sys.path`` by hand rather than through ``PYTHONPATH``.
_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_BOOT = ("import sys; sys.path.insert(0, {src!r}); "
         "from repro.exec.worker import main; main({tasks}, {results})")


class ExecJob:
    """Handle for one submitted job; resolved by the pool's drain."""

    __slots__ = ("job_id", "fn", "done", "result", "error", "crashed",
                 "worker", "spans", "metrics", "span_parent", "task",
                 "library")

    def __init__(self, job_id: int, fn: str, task: bytes,
                 span_parent: object, library) -> None:
        self.job_id = job_id
        self.fn = fn
        self.done = False
        self.result: object = None
        self.error: BaseException | None = None
        #: Its worker died under it (``error`` is the WorkerCrash).
        self.crashed = False
        #: The worker running it; None while it waits in the backlog.
        self.worker: int | None = None
        self.spans: list | None = None
        self.metrics: dict | None = None
        self.span_parent = span_parent
        #: The framed task, kept for a resubmission after a crash.
        self.task = task
        #: The canned library the task names by key (None: built-in);
        #: its content goes to a worker once, before its first task.
        self.library = library

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.done and self.error is None
                 else type(self.error).__name__ if self.done else "pending")
        return f"ExecJob({self.job_id}, {self.fn!r}, {state})"


class _Worker:
    """One child process, the parent's ends of its two pipes, the CPU it
    is pinned to (None: unpinned), the job it is running (None: idle)
    and the key of the canned library it holds (None: none)."""

    __slots__ = ("worker_id", "proc", "tasks", "results", "cpu", "job",
                 "library")

    def __init__(self, worker_id: int, proc: subprocess.Popen,
                 tasks: int, results: int, cpu: int | None) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.tasks = tasks
        self.results = results
        self.cpu = cpu
        self.job: ExecJob | None = None
        self.library: str | None = None


def _pin(pid: int, cpu: int | None) -> int | None:
    """Pin ``pid`` to ``cpu``; the CPU it is pinned to, None if it is not."""
    if cpu is None:
        return None
    try:
        os.sched_setaffinity(pid, {cpu})
    except OSError:
        return None
    return cpu


def _readable(fds: list[int], timeout_s: float) -> list[int]:
    """The ``fds`` with data or EOF waiting, after at most ``timeout_s``."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    return [fd for fd, _ in poller.poll(timeout_s * 1e3)]


#: Every live pool, so the atexit hook can shut them all down.
_POOLS: set["ProcessWorkerPool"] = set()
_POOLS_LOCK = threading.Lock()


def _shutdown_all_pools() -> None:  # pragma: no cover - exit path
    with _POOLS_LOCK:
        pools = list(_POOLS)
    for pool in pools:
        pool.shutdown(timeout_s=2.0)


atexit.register(_shutdown_all_pools)


class ProcessWorkerPool:
    """Persistent worker processes, one job in flight on each."""

    def __init__(self, workers: int | None = None, *,
                 name: str = "exec") -> None:
        requested = workers if workers is not None else (
            os.cpu_count() or 1)
        if requested < 1:
            raise ConfigError(f"need at least one worker, got {requested}")
        self.requested_workers = requested
        self.name = name
        #: Test/chaos hook: every submitted job sleeps this long in the
        #: worker before executing (deterministic crash-mid-job tests).
        self.default_delay_s = 0.0
        self.worker_restarts = 0
        #: Respawn budget: workers dying faster than they do work (e.g.
        #: an import error in every child) must not spin forever.
        self.restart_cap = max(16, 4 * requested)
        self.broken = False
        self.jobs_dispatched = 0
        self.jobs_completed = 0
        self._workers: dict[int, _Worker] = {}
        self._backlog: deque[ExecJob] = deque()
        self._jobs: dict[int, ExecJob] = {}          # outstanding
        self._next_job = itertools.count(1)
        self._next_worker = itertools.count(0)
        #: The CPUs this process may run on; worker k is pinned to the
        #: k-th, so the scheduler cannot stack two busy workers on one
        #: CPU while another idles.
        self._cpus = (sorted(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else [])
        self._started = False
        self._closed = False
        self._lock = threading.RLock()
        with _POOLS_LOCK:
            _POOLS.add(self)

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def workers(self) -> int:
        with self._lock:
            return len(self._workers) if self._started \
                else self.requested_workers

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._jobs)

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise ExecError(f"pool {self.name!r} is shut down")
            if self.broken:
                raise ExecError(f"pool {self.name!r} is broken "
                                f"(restart cap hit)")
            if self._started:
                return
            self._started = True
            for _ in range(self.requested_workers):
                self._spawn_worker()

    def _free_cpu(self) -> int | None:
        """The first CPU no live worker is pinned to (cycling once every
        CPU holds one)."""
        if not self._cpus:
            return None
        taken = {worker.cpu for worker in self._workers.values()}
        free = [cpu for cpu in self._cpus if cpu not in taken]
        return free[0] if free \
            else self._cpus[len(self._workers) % len(self._cpus)]

    def _spawn_worker(self, cpu: int | None = None) -> None:
        """Start one worker, pinned to ``cpu`` (default: a free one)."""
        worker_id = next(self._next_worker)
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", _BOOT.format(
                    src=_SRC, tasks=task_r, results=result_w)],
                stdin=subprocess.DEVNULL, pass_fds=(task_r, result_w))
        except BaseException:
            os.close(task_w)
            os.close(result_r)
            raise
        finally:
            # The child's ends: once only the child holds them, its
            # death is EOF on the result pipe.
            os.close(task_r)
            os.close(result_w)
        if cpu is None:
            cpu = self._free_cpu()
        self._workers[worker_id] = _Worker(worker_id, proc, task_w,
                                           result_r, _pin(proc.pid, cpu))

    def warm(self) -> None:
        """Start the workers now (otherwise they start on first submit)."""
        self._ensure_started()

    def ensure_workers(self, count: int) -> None:
        """Grow the fleet to at least ``count`` workers."""
        self._ensure_started()
        with self._lock:
            while len(self._workers) < count:
                self._spawn_worker()
            self._dispatch()

    def shutdown(self, timeout_s: float = SHUTDOWN_TIMEOUT_S) -> None:
        """Stop the workers and reap them; fail outstanding jobs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
            # EOF on the task pipe ends an idle worker; a busy one ends
            # when its answer meets the closed result pipe.
            for worker in workers:
                os.close(worker.tasks)
                os.close(worker.results)
            for job in self._jobs.values():
                job.error = ExecError(
                    f"pool {self.name!r} shut down with job "
                    f"{job.job_id} outstanding")
                job.done = True
            self._jobs.clear()
            self._backlog.clear()
        with _POOLS_LOCK:
            _POOLS.discard(self)
        deadline = time.monotonic() + timeout_s
        for worker in workers:
            try:
                worker.proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------------

    def submit(self, fn: str, *, span_parent: object = None,
               metrics: bool = False, traceparent: str | None = None,
               library=None, **kwargs) -> ExecJob:
        """Queue one job; returns a handle resolved by poll/wait.

        ``fn`` names a registered worker function; ``kwargs`` are its
        (picklable) arguments.  ``span_parent`` is the parent-side span
        the worker's folded spans will nest under; the worker traces
        when the global tracer is enabled.  ``metrics=True`` additionally
        captures a worker-side metrics snapshot, merged into the global
        registry at completion.  ``traceparent`` (a W3C-style header
        string) rides in the task so the worker's root span joins the
        originating wire trace.  A canned ``library`` reaches ``fn`` as
        its key: each worker is sent the content once and keeps it.
        """
        opts = {
            "trace": _TRACE.enabled,
            "metrics": metrics,
            "delay_s": self.default_delay_s,
        }
        if traceparent:
            opts["traceparent"] = traceparent
        if library is not None:
            kwargs["library"] = library.key
        job = ExecJob(next(self._next_job), fn, frame((fn, kwargs, opts)),
                      span_parent, library)
        self._queue(job)
        _REGISTRY.counter("repro_exec_jobs_total",
                          "jobs dispatched to pool workers").inc(
            1, fn=fn)
        self._publish_gauges()
        return job

    def _queue(self, job: ExecJob) -> None:
        """Book ``job`` — new, or crashed and run again under the same
        handle — and hand it out if a worker is idle."""
        with self._lock:
            self._ensure_started()
            job.done = False
            job.error = None
            job.crashed = False
            job.worker = None
            self._jobs[job.job_id] = job
            self.jobs_dispatched += 1
            self._backlog.append(job)
            self._dispatch()

    def _dispatch(self) -> None:
        """Give backlog jobs to idle workers, one each (lock held)."""
        for worker in self._workers.values():
            if not self._backlog:
                return
            if worker.job is not None:
                continue
            job = self._backlog.popleft()
            task, library = job.task, job.library
            if library is not None and worker.library != library.key:
                task = frame({library.key: library}) + task
            try:
                write_frame(worker.tasks, task)
            except BrokenPipeError:
                # Died idle: the job never started, and the worker's EOF
                # is reaped by the next drain.
                self._backlog.appendleft(job)
                continue
            worker.job, job.worker = job, worker.worker_id
            if library is not None:
                worker.library = library.key

    # -- completion ----------------------------------------------------------

    def poll(self) -> list[ExecJob]:
        """Apply every result already waiting; never blocks."""
        return self._drain(block_s=0.0)

    def wait(self, jobs: list[ExecJob] | None = None,
             timeout_s: float | None = None) -> list[ExecJob]:
        """Block until ``jobs`` (default: everything outstanding) resolve.

        Returns the jobs that finished during this call; raises
        :class:`TimeoutError` when the deadline passes first.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        finished: list[ExecJob] = []

        def pending() -> bool:
            if jobs is None:
                return bool(self._jobs)
            return any(not job.done for job in jobs)

        while pending():
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"pool {self.name!r}: jobs still pending after "
                    f"{timeout_s}s")
            finished.extend(self._drain(block_s=0.05))
        return finished

    def wait_handles(self) -> list[int]:
        """What turns readable when this pool has news for its waiter:
        each worker's result pipe (an answer, or EOF for a death).  A
        caller with wake sources of its own — the service dispatcher and
        its admission pipe — polls these and its own in one blocking
        call, then calls :meth:`poll`."""
        with self._lock:
            if not self._started or self._closed:
                return []
            return [worker.results for worker in self._workers.values()]

    def _drain(self, block_s: float) -> list[ExecJob]:
        """Apply waiting results and deaths; refill idle workers.

        The wait happens before the lock is taken, so a ``submit`` from
        another thread never queues behind a sleeping waiter; under the
        lock the pipes are polled again, so one that another thread
        drained in between is not read.
        """
        if block_s:
            _readable(self.wait_handles(), block_s)
        finished: list[ExecJob] = []
        with self._lock:
            if not self._started or self._closed:
                return finished
            by_fd = {worker.results: worker
                     for worker in self._workers.values()}
            ready = _readable(list(by_fd), 0.0)
            for fd in ready:
                job = self._collect(by_fd[fd])
                if job is not None:
                    finished.append(job)
            if ready:
                self._dispatch()
        for job in finished:
            self._fold_telemetry(job)
        if finished:
            self._publish_gauges()
        return finished

    def _collect(self, worker: _Worker) -> ExecJob | None:
        """Read one worker's answer or death; the job it resolved."""
        try:
            error, result, spans, metrics = read_frame(worker.results)
        except EOFError:
            return self._bury(worker)
        job, worker.job = worker.job, None
        if job is None or job.done:  # failed already (pool broke)
            return None
        del self._jobs[job.job_id]
        job.spans = spans
        job.metrics = metrics
        job.error = error
        job.result = result
        job.done = True
        self.jobs_completed += 1
        return job

    def _bury(self, worker: _Worker) -> ExecJob | None:
        """A worker died: fail the job it held, start a replacement."""
        del self._workers[worker.worker_id]
        os.close(worker.tasks)
        os.close(worker.results)
        exitcode = worker.proc.wait()
        job = worker.job
        if job is not None and not job.done:
            del self._jobs[job.job_id]
            job.error = WorkerCrash(
                f"worker {worker.worker_id} died (exit {exitcode}) while "
                f"running job {job.job_id} ({job.fn})",
                worker=worker.worker_id, exitcode=exitcode)
            job.crashed = job.done = True
            self.jobs_completed += 1
            _FLIGHT.auto_dump("worker_crash", pool=self.name,
                              worker=worker.worker_id, exitcode=exitcode,
                              job_id=job.job_id, fn=job.fn)
        else:
            job = None
            _FLIGHT.record("exec.worker_exit", pool=self.name,
                           worker=worker.worker_id, exitcode=exitcode)
        if self.broken:
            return job
        if self.worker_restarts >= self.restart_cap:
            self.broken = True
            for stuck in self._jobs.values():
                stuck.error = ExecError(
                    f"pool {self.name!r} broken: "
                    f"{self.worker_restarts} worker restarts "
                    f"(last exit {exitcode})")
                stuck.done = True
            self._jobs.clear()
            self._backlog.clear()
            return job
        # The replacement takes its predecessor's CPU.
        self._spawn_worker(worker.cpu)
        self.worker_restarts += 1
        _TRACE.event("exec.worker_restart", worker=worker.worker_id,
                     exitcode=exitcode)
        _REGISTRY.counter(
            "repro_exec_worker_restarts_total",
            "workers respawned after dying").inc(1)
        return job

    def _fold_telemetry(self, job: ExecJob) -> None:
        """Merge a result's spans/metrics into the parent."""
        if job.spans:
            _TRACE.fold(job.spans, parent=job.span_parent)
        if job.metrics:
            _REGISTRY.merge_snapshot(job.metrics)

    def _publish_gauges(self) -> None:
        _REGISTRY.gauge("repro_exec_in_flight",
                        "jobs submitted to workers, unresolved").set(
            self.outstanding, pool=self.name)
        _REGISTRY.gauge("repro_exec_workers",
                        "live worker processes").set(
            self.workers, pool=self.name)

    # -- batch convenience ---------------------------------------------------

    def run_batch(self, calls: list[tuple[str, dict]], *,
                  timeout_s: float | None = None,
                  metrics: bool = False) -> list[object]:
        """Run ``calls`` (``(fn, kwargs)`` pairs) and return results in
        order.

        A job whose worker crashed is transparently resubmitted up to
        :data:`CRASH_RETRIES` times — kernel jobs are pure functions of
        their arguments, so re-execution is safe.  Any other failure
        (or crash-retry exhaustion) raises that job's error.
        """
        jobs = [self.submit(fn, metrics=metrics, **kwargs)
                for fn, kwargs in calls]
        retries_left = CRASH_RETRIES
        while True:
            self.wait(jobs, timeout_s=timeout_s)
            crashed = [job for job in jobs if job.crashed]
            if not crashed:
                break
            if retries_left <= 0:
                raise crashed[0].error
            retries_left -= 1
            for job in crashed:
                self._queue(job)
        for job in jobs:
            if job.error is not None:
                raise job.error
        return [job.result for job in jobs]


# -- the shared default pool -------------------------------------------------

_DEFAULT: ProcessWorkerPool | None = None
_DEFAULT_LOCK = threading.Lock()


def get_default_pool(min_workers: int | None = None) -> ProcessWorkerPool:
    """The process-wide warm pool shared by the execution seams.

    Created on first use with one worker per CPU; ``min_workers`` grows
    it when a caller needs a wider fleet.  Never available *inside* a
    worker — nested pools would fork the fleet exponentially.
    """
    if in_worker():
        raise ExecError("no nested pools inside a worker process")
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None and _DEFAULT.broken:
            _DEFAULT.shutdown(timeout_s=2.0)
            _DEFAULT = None
        if _DEFAULT is None or _DEFAULT.closed:
            width = max(min_workers or 1, os.cpu_count() or 1)
            _DEFAULT = ProcessWorkerPool(workers=width, name="default")
        pool = _DEFAULT
    if min_workers is not None and pool.started \
            and pool.workers < min_workers:
        pool.ensure_workers(min_workers)
    elif min_workers is not None and not pool.started \
            and pool.requested_workers < min_workers:
        pool.requested_workers = min_workers
    return pool


def shutdown_default_pool() -> None:
    """Shut the shared pool down (tests, clean process exit)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        pool, _DEFAULT = _DEFAULT, None
    if pool is not None:
        pool.shutdown()
