"""ProcessWorkerPool: a persistent, crash-tolerant process fleet.

The GIL makes thread "parallelism" over the pure-Python codec kernels a
regression (BENCH_hotpath recorded the parallel sweep *losing*
throughput as workers grew), and a per-call ``ProcessPoolExecutor``
pays worker spin-up plus full payload pickling on every request.  This
pool is the fix the execution layers share:

* **warm-started once** — workers are spawned lazily on first use and
  reused for every subsequent job, so steady-state calls pay only a
  queue hop;
* **zero-copy payloads** — the pool owns a :class:`~repro.exec.shm.
  SlabAllocator`; callers put bytes in a slab and submit ``(name,
  offset, length)`` descriptors that pickle in constant time;
* **crash containment** — every worker announces which job it claimed
  before running it, so when a worker dies mid-job the parent knows
  exactly which job to fail (:class:`~repro.errors.WorkerCrash`),
  respawns a replacement, and the layers above decide whether to retry
  (pure kernel chunks) or rescue in software (the accelerator pool's
  breaker path);
* **truthful telemetry** — completion records carry the worker's span
  dicts and metrics snapshot; the parent folds them into the
  process-global tracer/registry, so traces and counters look the same
  whether a job ran inline or in a worker.

Start method defaults to ``spawn`` (safe under threaded parents like
the service dispatcher; override with ``start_method=`` or the
``REPRO_EXEC_START_METHOD`` environment variable).  The module-level
default pool (:func:`get_default_pool`) is what ``parallel_deflate``
and the backends share; it is shut down atexit and by the test suite's
leak fixture.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import threading
import time
from multiprocessing.connection import wait as _wait_readable

from ..errors import ConfigError, ExecError, WorkerCrash
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .shm import SlabAllocator
from .worker import in_worker, worker_main

#: Default seconds a graceful shutdown waits before terminating workers.
SHUTDOWN_TIMEOUT_S = 5.0

_DEFAULT_START_METHOD = "spawn"


class ExecJob:
    """Handle for one submitted job; resolved by the pool's drain."""

    __slots__ = ("job_id", "fn", "done", "result", "error", "claimed_by",
                 "spans", "metrics", "span_parent", "descriptor")

    def __init__(self, job_id: int, fn: str, descriptor: tuple,
                 span_parent: object = None) -> None:
        self.job_id = job_id
        self.fn = fn
        self.done = False
        self.result: object = None
        self.error: BaseException | None = None
        self.claimed_by: int | None = None
        self.spans: list | None = None
        self.metrics: dict | None = None
        self.span_parent = span_parent
        self.descriptor = descriptor

    @property
    def crashed(self) -> bool:
        return isinstance(self.error, WorkerCrash)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.done and self.error is None
                 else type(self.error).__name__ if self.done else "pending")
        return f"ExecJob({self.job_id}, {self.fn!r}, {state})"


#: Every live pool, so the atexit hook can shut them all down before
#: the shm layer's own atexit unlinks any straggler slabs.
_POOLS: set["ProcessWorkerPool"] = set()
_POOLS_LOCK = threading.Lock()


def _shutdown_all_pools() -> None:  # pragma: no cover - exit path
    with _POOLS_LOCK:
        pools = list(_POOLS)
    for pool in pools:
        pool.shutdown(timeout_s=2.0)


atexit.register(_shutdown_all_pools)


class ProcessWorkerPool:
    """Persistent worker processes behind a claim/complete channel."""

    def __init__(self, workers: int | None = None, *,
                 start_method: str | None = None,
                 allocator: SlabAllocator | None = None,
                 name: str = "exec") -> None:
        requested = workers if workers is not None else (
            os.cpu_count() or 1)
        if requested < 1:
            raise ConfigError(f"need at least one worker, got {requested}")
        self.requested_workers = requested
        self.name = name
        method = (start_method
                  or os.environ.get("REPRO_EXEC_START_METHOD")
                  or _DEFAULT_START_METHOD)
        if method not in mp.get_all_start_methods():
            raise ConfigError(
                f"start method {method!r} unavailable; "
                f"have {mp.get_all_start_methods()}")
        self.start_method = method
        self._ctx = mp.get_context(method)
        self.allocator = allocator or SlabAllocator()
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
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._claimed: dict[int, ExecJob] = {}       # worker -> job
        self._jobs: dict[int, ExecJob] = {}          # outstanding
        self._next_job = itertools.count(1)
        self._next_worker = itertools.count(0)
        self._tasks = None
        self._rx = None
        self._tx = None
        self._wlock = None
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
            return len(self._procs) if self._started \
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
            self._tasks = self._ctx.SimpleQueue()
            self._rx, self._tx = self._ctx.Pipe(duplex=False)
            self._wlock = self._ctx.Lock()
            self._started = True
            for _ in range(self.requested_workers):
                self._spawn_worker()

    def _spawn_worker(self) -> int:
        worker_id = next(self._next_worker)
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self._tasks, self._tx, self._wlock),
            name=f"repro-{self.name}-{worker_id}", daemon=True)
        proc.start()
        self._procs[worker_id] = proc
        return worker_id

    def warm(self) -> None:
        """Start the workers now (otherwise they start on first submit)."""
        self._ensure_started()

    def ensure_workers(self, count: int) -> None:
        """Grow the fleet to at least ``count`` workers."""
        self._ensure_started()
        with self._lock:
            while len(self._procs) < count:
                self._spawn_worker()

    def shutdown(self, timeout_s: float = SHUTDOWN_TIMEOUT_S) -> None:
        """Stop workers, fail outstanding jobs, unlink every slab."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        with _POOLS_LOCK:
            _POOLS.discard(self)
        if started:
            for _ in self._procs:
                try:
                    self._tasks.put(None)
                except Exception:  # pragma: no cover - broken queue
                    break
            deadline = time.monotonic() + timeout_s
            for proc in self._procs.values():
                proc.join(max(0.0, deadline - time.monotonic()))
            for proc in self._procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join(1.0)
            self._procs.clear()
            for job in list(self._jobs.values()):
                if not job.done:
                    job.error = ExecError(
                        f"pool {self.name!r} shut down with job "
                        f"{job.job_id} outstanding")
                    job.done = True
            self._jobs.clear()
            self._claimed.clear()
            for chan in (self._rx, self._tx):
                try:
                    chan.close()
                except Exception:  # pragma: no cover
                    pass
            try:
                self._tasks.close()
            except Exception:  # pragma: no cover
                pass
        self.allocator.close()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------------

    def submit(self, fn: str, *, span_parent: object = None,
               trace: bool | None = None, metrics: bool = False,
               delay_s: float | None = None,
               traceparent: str | None = None, **kwargs) -> ExecJob:
        """Queue one job; returns a handle resolved by poll/wait.

        ``fn`` names a registered worker function; ``kwargs`` are its
        (picklable) arguments.  ``span_parent`` is the parent-side span
        the worker's folded spans will nest under; ``trace`` defaults to
        the global tracer's enabled flag.  ``metrics=True`` additionally
        captures a worker-side metrics snapshot, merged into the global
        registry at completion.  ``traceparent`` (a W3C-style header
        string) rides in the job descriptor so the worker's root span
        joins the originating wire trace.
        """
        self._ensure_started()
        opts = {
            "trace": _TRACE.enabled if trace is None else trace,
            "metrics": metrics,
            "delay_s": self.default_delay_s if delay_s is None else delay_s,
        }
        if traceparent:
            opts["traceparent"] = traceparent
        with self._lock:
            job_id = next(self._next_job)
            job = ExecJob(job_id, fn, (fn, kwargs, opts), span_parent)
            self._jobs[job_id] = job
            self.jobs_dispatched += 1
            self._tasks.put((job_id, fn, (), kwargs, opts))
        if _REGISTRY.enabled:
            _REGISTRY.counter("repro_exec_jobs_total",
                              "jobs dispatched to pool workers").inc(
                1, fn=fn)
            self._publish_gauges()
        return job

    def _resubmit(self, job: ExecJob) -> None:
        """Re-queue a crashed job's descriptor under the same handle."""
        fn, kwargs, opts = job.descriptor
        with self._lock:
            job.done = False
            job.error = None
            job.claimed_by = None
            self._jobs[job.job_id] = job
            self.jobs_dispatched += 1
            self._tasks.put((job.job_id, fn, (), kwargs, opts))

    # -- completion ----------------------------------------------------------

    def poll(self) -> list[ExecJob]:
        """Drain every available completion; never blocks."""
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

    def wait_handles(self) -> list:
        """What turns readable when this pool has news for its waiter.

        The result pipe (a claim or completion record) and one sentinel
        per worker (a death).  A caller with wake sources of its own —
        the service dispatcher and its admission pipe — polls these and
        its own in one blocking call, then calls :meth:`poll`.
        """
        with self._lock:
            if not self._started or self._closed:
                return []
            return [self._rx, *(proc.sentinel
                                for proc in self._procs.values())]

    def _drain(self, block_s: float) -> list[ExecJob]:
        """Process claim/done/err records; reap dead workers.

        The wait happens before the lock is taken, so a ``submit`` from
        another thread never queues behind a sleeping waiter; the lock
        covers only applying the records that are already buffered.
        """
        if block_s:
            try:
                _wait_readable(self.wait_handles(), block_s)
            except OSError:  # pragma: no cover - shut down under us
                pass
        finished: list[ExecJob] = []
        with self._lock:
            if not self._started or self._closed:
                return finished
            try:
                while self._rx.poll(0.0):
                    job = self._handle(self._rx.recv())
                    if job is not None:
                        finished.append(job)
            except (OSError, EOFError):  # pragma: no cover
                pass
            self._reap_dead()
        for job in finished:
            self._fold_telemetry(job)
        if finished and _REGISTRY.enabled:
            self._publish_gauges()
        return finished

    def _handle(self, record: tuple) -> ExecJob | None:
        """Apply one channel record; returns the job if it resolved."""
        kind = record[0]
        if kind == "claim":
            _, worker_id, job_id = record
            job = self._jobs.get(job_id)
            if job is not None:
                job.claimed_by = worker_id
                self._claimed[worker_id] = job
            return None
        if kind == "bye":
            return None
        _, job_id, payload, spans, metrics = record
        job = self._jobs.pop(job_id, None)
        if job is None:  # resolved already (e.g. failed at shutdown)
            return None
        if job.claimed_by is not None:
            claimed = self._claimed.get(job.claimed_by)
            if claimed is job:
                del self._claimed[job.claimed_by]
        job.spans = spans
        job.metrics = metrics
        if kind == "err":
            job.error = payload
        else:
            job.result = payload
        job.done = True
        self.jobs_completed += 1
        return job

    def _reap_dead(self) -> None:
        """Respawn dead workers; fail the jobs they had claimed.

        Runs after the channel is fully drained, so a claim record that
        made it out before the crash has already been applied — the
        claimed-but-unfinished job is attributable to the dead worker.
        """
        for worker_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            exitcode = proc.exitcode
            proc.join()
            del self._procs[worker_id]
            job = self._claimed.pop(worker_id, None)
            if job is not None and not job.done:
                self._jobs.pop(job.job_id, None)
                job.error = WorkerCrash(
                    f"worker {worker_id} died (exit {exitcode}) while "
                    f"running job {job.job_id} ({job.fn})",
                    worker=worker_id, exitcode=exitcode)
                job.done = True
                self.jobs_completed += 1
                _FLIGHT.auto_dump("worker_crash", pool=self.name,
                                  worker=worker_id, exitcode=exitcode,
                                  job_id=job.job_id, fn=job.fn)
            else:
                _FLIGHT.record("exec.worker_exit", pool=self.name,
                               worker=worker_id, exitcode=exitcode)
            if self.broken:
                continue
            if self.worker_restarts >= self.restart_cap:
                self.broken = True
                for stuck in list(self._jobs.values()):
                    if not stuck.done:
                        stuck.error = ExecError(
                            f"pool {self.name!r} broken: "
                            f"{self.worker_restarts} worker restarts "
                            f"(last exit {exitcode})")
                        stuck.done = True
                self._jobs.clear()
                continue
            if not self._closed:
                self._spawn_worker()
                self.worker_restarts += 1
                _TRACE.event("exec.worker_restart", worker=worker_id,
                             exitcode=exitcode)
                if _REGISTRY.enabled:
                    _REGISTRY.counter(
                        "repro_exec_worker_restarts_total",
                        "workers respawned after dying").inc(1)

    def fail_job(self, job: ExecJob, error: BaseException) -> None:
        """Externally resolve an outstanding job as failed.

        Orphan recovery: a worker killed in the instant between popping
        a task and writing its claim record leaves a job no completion
        will ever resolve.  Callers that give up waiting use this to
        fail the handle (and fix the books) so their own rescue path
        can take over.
        """
        with self._lock:
            self._jobs.pop(job.job_id, None)
            if job.claimed_by is not None \
                    and self._claimed.get(job.claimed_by) is job:
                del self._claimed[job.claimed_by]
            if not job.done:
                job.error = error
                job.done = True
                self.jobs_completed += 1

    def _fold_telemetry(self, job: ExecJob) -> None:
        """Merge a completion record's spans/metrics into the parent."""
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
                  span_parent: object = None, crash_retries: int = 2,
                  timeout_s: float | None = None,
                  traceparent: str | None = None,
                  metrics: bool = False) -> list[object]:
        """Run ``calls`` (``(fn, kwargs)`` pairs) and return results in
        order.

        A job whose worker crashed is transparently resubmitted up to
        ``crash_retries`` times — kernel jobs are pure functions of
        their descriptors, so re-execution is safe.  Any other failure
        (or crash-retry exhaustion) raises that job's error.
        """
        jobs = [self.submit(fn, span_parent=span_parent,
                            traceparent=traceparent, metrics=metrics,
                            **kwargs)
                for fn, kwargs in calls]
        retries_left = crash_retries
        while True:
            self.wait(jobs, timeout_s=timeout_s)
            crashed = [job for job in jobs if job.crashed]
            if not crashed:
                break
            if retries_left <= 0:
                raise crashed[0].error
            retries_left -= 1
            for job in crashed:
                self._resubmit(job)
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


def shutdown_default_pool(timeout_s: float = SHUTDOWN_TIMEOUT_S) -> None:
    """Shut the shared pool down (tests, clean process exit)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        pool, _DEFAULT = _DEFAULT, None
    if pool is not None:
        pool.shutdown(timeout_s=timeout_s)
