"""AcceleratorPool: N per-chip backend instances behind one job router.

A multi-chip system has one NX/zEDC per chip; production software must
decide *which* chip's engine serves each request.  The pool owns one
backend instance per chip (created lazily, so policy studies on large
topologies don't build N driver stacks) plus a software instance for
the size-threshold fallback, and routes with the same policy kernel the
queueing model in :mod:`repro.perf.queueing` uses:

* ``local``          — the submitting chip's engine;
* ``round_robin``    — rotate across chips;
* ``least_loaded``   — fewest pending + served bytes, local on ties;
* ``size_threshold`` — small buffers to software (below break-even the
  invocation overhead dominates), large ones round-robin across chips.

Batch submission rides the asynchronous paste/drain machinery when the
per-chip backend provides it (``submit``/``poll``/``wait_all``), and
falls back to synchronous execution when it does not, so the pool works
identically over ``nx`` and ``dfltcc`` backends.

The pool is also where resilience lives (the RAS discipline of the z15
part — a shared accelerator fails *per request*, never per tenant):

* every chip has a :class:`~repro.resilience.health.CircuitBreaker`;
  consecutive failures quarantine the chip and ``route()`` excludes it,
  half-open chips must pass known-answer probes
  (:func:`~repro.nx.selftest.probe_backend`) before user jobs return;
* every route a job can take — a synchronous call, an inline submit, a
  driver completion, an exec worker's result, a cancellation — ends in
  :meth:`AcceleratorPool._settle`, which reads the error's failure
  class (:mod:`repro.errors` has the table):

  - ``deadline`` — a late chip is a sick chip, but the deadline is the
    caller's contract: breaker penalty, no software rescue behind its
    back;
  - ``chip`` — breaker penalty, and the job is *rescued*: it reruns on
    the calling core as the request it was (same window, same final
    bit);
  - any other — the *input* is bad and fails anywhere: no penalty, no
    rescue, that exact error;

* ``verify=True`` re-inflates every final, history-less compressed
  payload and CRC-checks it before returning (verify-after-compress); a
  mismatch counts as a chip failure and the payload is re-encoded in
  software.

``submit`` raises only for routing (:class:`ConfigError`); a job's
own failure is always on its :class:`Job`.
"""

from __future__ import annotations

import select
import threading
import time
from dataclasses import dataclass

from ..errors import (NO_BOUND, AcceleratorError, ConfigError, ExecError,
                      ReproError, failure_of)
from ..nx.dht import BUILTIN
from ..nx.params import POWER9, MachineParams, get_machine
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import NULL_SPAN, TRACE as _TRACE
from ..resilience.health import HealthConfig, HealthTracker
from ..resilience.verify import run_in_software, verify_or_reencode
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import CompressionBackend
from .registry import create_backend, default_backend
from .routing import ROUTING_POLICIES, choose_chip

#: Pseudo chip index for the software-fallback instance.
SOFTWARE = -1

#: E16's finding: a few in-flight requests saturate one engine (depth 4
#: reaches full utilisation on 64 KB jobs); deeper batches only queue.
SATURATION_DEPTH = 4

#: ``size_threshold`` sends jobs below this many bytes to software.
SOFTWARE_THRESHOLD = 16384

#: Longest one sleep in :meth:`AcceleratorPool.reap`.  Completions and
#: worker deaths wake it at once; the tick only covers a result that
#: another thread sharing the exec pool applied on our behalf.
_REAP_TICK_S = 0.1


def _hardware_clean(result: DriverResult) -> bool:
    """Did the hardware serve this without misbehaving?

    Translation faults and target continuations are *protocol*, not failure;
    hangs, spurious CCs, and retry-exhausted software fallbacks are the
    breaker-relevant signals.
    """
    stats = result.stats
    return not (stats.fallback_to_software or stats.engine_hangs
                or stats.spurious_ccs)


@dataclass(frozen=True)
class PoolStats:
    """One immutable, mutually consistent snapshot of pool activity.

    Built under the pool's lock in a single pass, so ``requests`` /
    ``bytes_*`` / ``dispatch_counts`` / ``in_flight`` all describe the
    same instant even while another thread is batch-submitting.
    """

    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    modelled_seconds: float = 0.0
    faults: int = 0
    fallbacks: int = 0
    dispatch_counts: tuple[int, ...] = ()
    software_jobs: int = 0
    in_flight: int = 0
    rescues: int = 0
    verify_failures: int = 0
    breaker_opens: int = 0
    breaker_states: tuple[str, ...] = ()


class Job:
    """One request from admission to settle: a CRB in, a CSB out.

    The service builds it at admission and hands that same object to
    :meth:`AcceleratorPool.submit`; ``submit_*`` and the synchronous
    calls build one for a bare pool.  The request is kept to the end,
    so a job whose chip fails mid-flight is rescued in software as the
    request it was.  :meth:`AcceleratorPool._settle` writes its ending
    once, ``result`` or ``error``; a service job is then fulfilled: its
    reply fields are written from ``stamps`` (``admit`` / ``dequeue`` /
    ``settle``) and its ``event`` set.  Unwritten, a field reads as its
    class default.
    """

    # The service's side: who asked, the span, a result-cache
    # singleflight this request leads, and the event a waiter sleeps on.
    request_id = 0
    qos = ""
    tenant = ""
    span: object = NULL_SPAN
    cache_claim = None
    event: threading.Event | None = None
    # A streaming call's window, final bit, canned tables; a decode's bound.
    history = b""
    final = True
    library = BUILTIN
    max_output = NO_BOUND
    # The pool's side: the chip, and while a lower layer holds the job
    # that layer's own handle (a driver pending or an exec job, both
    # ``done``/``result``/``error``) and whether it is the exec pool's.
    chip = SOFTWARE
    handle: object = None
    on_exec = False
    # The ending, then the reply: admit -> dequeue is the queue wait,
    # admit -> settle the wall time; batch_size counts the jobs in
    # flight, this one included, when it was dispatched.
    result: DriverResult | None = None
    error: Exception | None = None
    output: bytes | None = None
    modelled_seconds = 0.0
    queue_wait_s = 0.0
    wall_seconds = 0.0
    batch_size = 1

    def __init__(self, op: str, payload: bytes, fmt: str | None,
                 strategy: object, deadline_s: float | None) -> None:
        self.op = op
        self.payload = payload
        self.fmt = fmt
        self.strategy = strategy
        self.deadline_s = deadline_s
        self.stamps: dict[str, float] = {}

    @property
    def settled(self) -> bool:
        return self.result is not None or self.error is not None

    @property
    def done(self) -> bool:
        """Fulfilled, when somebody waits on it; else settled (or
        answered from the result cache at admission)."""
        if self.event is not None:
            return self.event.is_set()
        return self.settled or self.output is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def wait(self, timeout_s: float | None = None) -> "Job":
        """Block until fulfilled; the job, or its failure raised."""
        if self.event is not None and not self.event.wait(timeout_s):
            raise TimeoutError(f"request {self.request_id} not fulfilled "
                               f"within {timeout_s}s")
        if self.error is not None:
            raise self.error
        return self


class AcceleratorPool:
    """Owns per-chip accelerator backends and routes jobs across them."""

    def __init__(self, machine: MachineParams | str = POWER9,
                 chips: int = 1, policy: str = "round_robin",
                 backend: str | None = None,
                 health: HealthConfig | None = None,
                 verify: bool = False,
                 exec_workers: int | None = None,
                 exec_pool=None,
                 **backend_kwargs) -> None:
        if isinstance(machine, str):
            machine = get_machine(machine)
        if chips < 1:
            raise ConfigError(f"need at least one chip, got {chips}")
        if policy not in ROUTING_POLICIES:
            raise ConfigError(f"unknown pool policy {policy!r}; "
                              f"have {ROUTING_POLICIES}")
        self.machine = machine
        self.chips = chips
        self.policy = policy
        self.backend_name = backend or default_backend(machine)
        self.health = HealthTracker(chips, health)
        self.verify = verify
        self._backend_kwargs = backend_kwargs
        self._instances: list[CompressionBackend | None] = [None] * chips
        self._software: CompressionBackend | None = None
        self._rr_state = [0]
        self._pending_bytes = [0] * chips
        self.dispatch_counts = [0] * chips
        self.software_jobs = 0
        self.rescues = 0
        self.verify_failures = 0
        self._open: list[Job] = []
        self._below: dict[Job, None] = {}  # held by a lower layer
        # Process-based execution of batch submits on synchronous
        # backends: opt-in via exec_workers (shared warm pool) or an
        # explicitly provided exec_pool.
        self.exec_workers = exec_workers
        self._exec_pool = exec_pool
        self._lock = threading.Lock()
        # One lock per chip handle (plus software): a chip's send window
        # serves one request context at a time, so concurrent callers
        # serialize per chip while different chips run in parallel.
        self._chip_locks = [threading.Lock() for _ in range(chips)]
        self._software_lock = threading.Lock()

    # -- instance management -------------------------------------------------

    def backend_for(self, chip: int) -> CompressionBackend:
        """The (lazily created) backend instance serving ``chip``."""
        if chip == SOFTWARE:
            if self._software is None:
                with self._lock:
                    if self._software is None:
                        self._software = create_backend(
                            "software", machine=self.machine)
            return self._software
        if not 0 <= chip < self.chips:
            raise ConfigError(f"chip {chip} outside pool of {self.chips}")
        if self._instances[chip] is None:
            with self._lock:
                if self._instances[chip] is None:
                    self._instances[chip] = create_backend(
                        self.backend_name, machine=self.machine,
                        **self._backend_kwargs)
        return self._instances[chip]

    def _op_lock(self, chip: int) -> threading.Lock:
        return (self._software_lock if chip == SOFTWARE
                else self._chip_locks[chip])

    def close(self) -> None:
        for instance in self._instances:
            if instance is not None:
                instance.close()
        if self._software is not None:
            self._software.close()

    def __enter__(self) -> "AcceleratorPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    def route(self, nbytes: int) -> int:
        """Pick the chip (or :data:`SOFTWARE`) for an ``nbytes`` job;
        every job is submitted from chip 0, the ``local`` policy's home.

        Quarantined chips (breaker OPEN) are never returned: the policy
        kernel's pick is remapped deterministically onto the healthy
        subset.  With every breaker open the job goes to software.
        """
        if self.policy == "size_threshold" and nbytes < SOFTWARE_THRESHOLD:
            return SOFTWARE
        available = self.health.available_chips()
        if not available:  # every chip's circuit breaker is open
            return self._all_chips_down()
        policy = ("round_robin" if self.policy == "size_threshold"
                  else self.policy)
        with self._lock:
            chip = choose_chip(policy, 0, self._loads(), self._rr_state)
        if chip not in available:
            chip = available[chip % len(available)]
        return chip

    def _loads(self) -> list[float]:
        """Per-chip pending bytes plus bytes already served (live proxy
        for queue depth: synchronous calls never leave work pending)."""
        loads: list[float] = []
        for chip in range(self.chips):
            served = (self._instances[chip].stats().bytes_in
                      if self._instances[chip] is not None else 0)
            loads.append(self._pending_bytes[chip] + served)
        return loads

    def _dispatch(self, chip: int) -> None:
        with self._lock:
            if chip == SOFTWARE:
                self.software_jobs += 1
            else:
                self.dispatch_counts[chip] += 1
        target = "software" if chip == SOFTWARE else str(chip)
        _REGISTRY.counter("repro_pool_dispatch_total",
                          "jobs routed per chip").inc(1, chip=target)

    def _route_spanned(self, job: Job) -> object:
        """Route + probes + dispatch accounting, under a span it returns;
        the job gets its chip, and that chip's format if it has none.

        The (closed) ``pool.route`` span is the parent that worker-side
        spans folded back from the execution layer nest under — fold
        only reads its identifiers, so handing out a finished span is
        fine.
        """
        nbytes = len(job.payload)
        with _TRACE.span("pool.route", policy=self.policy,
                         nbytes=nbytes) as span:
            job.chip = chip = self._route_healthy(nbytes)
            span.set(chip="software" if chip == SOFTWARE else chip)
        self._dispatch(chip)
        job.fmt = (job.fmt
                   or self.backend_for(chip).capabilities().default_format)
        return span

    def _route_healthy(self, nbytes: int) -> int:
        """One routing tick; half-open picks must pass their probes."""
        self.health.tick()
        for _ in range(self.chips + 1):
            chip = self.route(nbytes)
            if chip == SOFTWARE or self._probe(chip):
                return chip
        # Every half-open candidate failed its probe this tick.
        return self._all_chips_down()

    def _all_chips_down(self) -> int:
        """No chip can take the job: software takes it."""
        _TRACE.event("pool.all_chips_down")
        _FLIGHT.auto_dump("all_chips_down", chips=self.chips)
        return SOFTWARE

    def _probe(self, chip: int) -> bool:
        """Run known-answer probes while ``chip`` is half-open.

        Returns True when the chip may serve the user job (CLOSED, or
        it passed enough probes to close); False re-opens the breaker.
        """
        if not self.health.needs_probe(chip):
            return True
        from ..nx.selftest import probe_backend

        backend = self.backend_for(chip)
        with self._op_lock(chip):
            while self.health.needs_probe(chip):
                if not hasattr(backend, "accelerator"):
                    # Software-ish backend: nothing hardware to probe.
                    self.health.record_success(chip)
                    continue
                if probe_backend(backend):
                    self.health.record_success(chip)
                else:
                    self.health.record_failure(chip)  # half-open -> open
                    return False
        return True

    # -- synchronous operations ----------------------------------------------

    def compress(self, data: bytes, *, strategy: object = "auto",
                 fmt: str | None = None, history: bytes = b"",
                 final: bool = True,
                 deadline_s: float | None = None) -> DriverResult:
        job = Job("compress", data, fmt, strategy, deadline_s)
        job.history, job.final = history, final
        return self._run_on(job)

    def decompress(self, payload: bytes, *, fmt: str | None = None,
                   history: bytes = b"",
                   deadline_s: float | None = None) -> DriverResult:
        job = Job("decompress", payload, fmt, "auto", deadline_s)
        job.history = history
        return self._run_on(job)

    def _run_on(self, job: Job) -> DriverResult:
        """A synchronous call: the job ends on the calling thread, and
        its failure is raised instead of left on the job."""
        self._route_spanned(job)
        self._settle(job, *self._call(job))
        if job.error is not None:
            raise job.error
        return job.result

    def _call(self, job: Job
              ) -> tuple[DriverResult | None, ReproError | None]:
        """Run a job on its chip, on the calling thread; how it ended."""
        backend = self.backend_for(job.chip)
        try:
            with self._op_lock(job.chip):
                if job.op == "compress":
                    return backend.compress(
                        job.payload, strategy=job.strategy, fmt=job.fmt,
                        history=job.history, final=job.final,
                        deadline_s=job.deadline_s,
                        library=job.library), None
                return backend.decompress(
                    job.payload, fmt=job.fmt, history=job.history,
                    deadline_s=job.deadline_s,
                    max_output=job.max_output), None
        except ReproError as exc:
            return None, exc

    # -- the one ending ------------------------------------------------------

    def _settle(self, job: Job, result: DriverResult | None,
                error: BaseException | None = None) -> None:
        """The only place a routed job becomes a result or an error:
        the books are closed, the ending is stamped and classified (the
        module docstring has the table), and the result, if any,
        verified."""
        chip = job.chip
        if job.handle is not None:
            with self._lock:
                if job not in self._below:
                    return  # another thread settled it first
                del self._below[job]
                self._pending_bytes[chip] -= len(job.payload)
            self._publish_in_flight()
        job.stamps["settle"] = time.perf_counter()
        if result is None and error is None:
            error = AcceleratorError(
                "job resolved with neither result nor error")
        failure = None if error is None else failure_of(error)
        if error is None:
            healthy = _hardware_clean(result)
        elif failure not in ("chip", "deadline"):
            job.error = error  # bad input: the chip did nothing wrong
            return
        else:
            self._note_health(chip, healthy=False)
            if failure == "deadline":
                _FLIGHT.auto_dump("deadline_exceeded", layer="pool",
                                  kind=job.op, chip=chip,
                                  nbytes=len(job.payload))
            if failure == "deadline" or chip == SOFTWARE:
                job.error = error
                return
            try:
                result = self._rescue(job, error)
            except Exception as exc:  # bad input: fails in software too
                job.error = exc
                return
        verified = result
        if (self.verify and job.op == "compress" and job.final
                and not job.history):
            verified = self._verified(job, result)
        if error is None:
            # Booked once, after the verify verdict: a success booked
            # first zeroes the breaker's count, and a chip that corrupts
            # every output would never open it.
            self._note_health(chip, healthy and verified is result)
        job.result = verified

    def _note_health(self, chip: int, healthy: bool) -> None:
        if chip == SOFTWARE:
            return
        if healthy:
            self.health.record_success(chip)
        else:
            self.health.record_failure(chip)

    def _rescue(self, job: Job, cause: BaseException) -> DriverResult:
        """Re-run a failed hardware job on the calling core, as the
        request it was: same window, same final bit."""
        with self._lock:
            self.rescues += 1
        _TRACE.event("pool.rescue", kind=job.op,
                     cause=type(cause).__name__)
        _FLIGHT.record("pool.rescue", kind=job.op,
                       cause=type(cause).__name__, nbytes=len(job.payload))
        _REGISTRY.counter(
            "repro_resilience_rescues_total",
            "hardware jobs re-run in software after a failure").inc(
            1, kind=job.op)
        output, seconds = run_in_software(
            job.op, job.payload, job.fmt, history=job.history,
            final=job.final, machine=self.machine,
            max_output=job.max_output)
        stats = SubmissionStats(fallback_to_software=True,
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    def _verified(self, job: Job, result: DriverResult) -> DriverResult:
        """Verify-after-compress: the result, or its software re-encode."""
        verified = verify_or_reencode(
            job.payload, result, job.fmt,
            backend="software" if job.chip == SOFTWARE else self.backend_name,
            machine=self.machine, chip=job.chip)
        if verified is not result:
            with self._lock:
                self.verify_failures += 1
                self.rescues += 1
        return verified

    # -- asynchronous batch submission ---------------------------------------

    def submit_compress(self, data: bytes, *, strategy: object = "auto",
                        fmt: str | None = None) -> Job:
        return self.submit(Job("compress", data, fmt, strategy, None))

    def submit_decompress(self, payload: bytes, *,
                          fmt: str | None = None) -> Job:
        return self.submit(Job("decompress", payload, fmt, "auto", None))

    def submit(self, job: Job) -> Job:
        """Route ``job`` and start it without waiting for it; its ending
        lands on it, and ``poll`` / ``reap`` / ``wait_all`` hand it back."""
        route_span = self._route_spanned(job)
        chip = job.chip
        backend = self.backend_for(chip)
        if chip != SOFTWARE and hasattr(backend, "submit"):
            with self._op_lock(chip):
                pending = backend.submit(
                    job.op, job.payload, strategy=job.strategy, fmt=job.fmt,
                    deadline_s=job.deadline_s, library=job.library,
                    max_output=job.max_output)
            self._file(job, pending)
            # The paste itself may have resolved the job (software
            # fallback on a wedged window, deadline, permanent CC).
            if pending.done:
                self._settle(job, pending.result, pending.error)
        elif (chip != SOFTWARE and isinstance(job.strategy, str)
                and self._exec() is not None):
            # Synchronous backend + execution layer: the job runs in a
            # pool worker process.
            self._submit_exec(job, route_span)
        else:
            # Synchronous backend, no execution layer: the job is done
            # when submit returns — its failure, too, is on the job.
            self._settle(job, *self._call(job))
        with self._lock:
            self._open.append(job)
        return job

    def _file(self, job: Job, handle: object, on_exec: bool = False) -> None:
        """Book a job a lower layer now holds, with that layer's handle."""
        job.handle, job.on_exec = handle, on_exec
        with self._lock:
            self._below[job] = None
            self._pending_bytes[job.chip] += len(job.payload)
        self._publish_in_flight()

    def _held(self, by_exec: bool) -> list[Job]:
        """The jobs exec workers (else the chip drivers) still hold."""
        with self._lock:
            return [job for job in self._below if job.on_exec == by_exec]

    # -- process-based execution of sync-backend batches ---------------------

    def _exec_fleet(self):
        """The execution pool this pool's chip jobs run on, else None:
        no execution layer, or an async backend, which bypasses it."""
        exec_pool = self._exec()
        if exec_pool is None or hasattr(self.backend_for(0), "submit"):
            return None
        return exec_pool

    def warm(self) -> None:
        """Start the exec workers now instead of on the first submit."""
        fleet = self._exec_fleet()
        if fleet is not None:
            fleet.warm()

    def _exec(self):
        """The execution pool serving this AcceleratorPool, if enabled."""
        if self.exec_workers is None and self._exec_pool is None:
            return None
        from ..exec.worker import in_worker
        if in_worker():
            return None
        if self._exec_pool is None or self._exec_pool.closed \
                or self._exec_pool.broken:
            from ..exec.pool import get_default_pool
            try:
                self._exec_pool = get_default_pool(self.exec_workers)
            except ExecError:
                return None
        return self._exec_pool

    def _submit_exec(self, job: Job, span_parent: object) -> None:
        """Ship one job, payload inline, to a pool worker.

        ``span_parent`` (the request's ``pool.route`` span) is where the
        worker's folded spans nest; the current wire trace
        context rides along as a ``traceparent`` so the worker's root
        span also joins the originating trace on the wire level.
        """
        ctx = _TRACE.current_ctx()
        exec_job = self._exec_pool.submit(
            "backend_job",
            span_parent=span_parent,
            traceparent=ctx.to_traceparent() if ctx else None,
            backend=self.backend_name,
            machine=self.machine.name,
            backend_kwargs=self._backend_kwargs,
            kind=job.op, fmt=job.fmt, strategy=job.strategy,
            deadline_s=job.deadline_s, data=job.payload,
            library=None if job.library is BUILTIN else job.library,
            max_output=job.max_output)
        self._file(job, exec_job, on_exec=True)

    def _resolve_exec(self, job: Job) -> DriverResult | None:
        """A finished worker's result, booked against the parent side."""
        result = job.handle.result
        if job.handle.error is not None or result is None:
            return None
        # The worker instance's accounting stays in the worker; record
        # once against the parent-side instance so BackendStats and the
        # registry stay truthful.
        self.backend_for(job.chip)._record(result, len(job.payload), job.op)
        return result

    def _drain_exec(self) -> None:
        """Settle the jobs whose exec worker has finished.

        The execution pool is shared (every accelerator pool in the
        process rides the same fleet), so this never trusts the pool's
        own returned job lists — it polls the pool, then checks *its*
        handles.  A worker that dies fails exactly the job it was given,
        so every handle resolves.
        """
        held = self._held(by_exec=True)
        if not held:
            return
        self._exec_pool.poll()
        for job in held:
            if job.handle.done:
                self._settle(job, self._resolve_exec(job), job.handle.error)

    def _drain_chips(self, wait: bool) -> None:
        """Poll each chip's async driver once, or (``wait``) until idle.

        The drivers are in-process models — draining one *is* the engine
        doing the work — so waiting never sleeps; a wedged engine raises
        :class:`AcceleratorError` once its poll budget is spent, after
        the jobs that did complete have been settled.
        """
        try:
            for chip, instance in enumerate(self._instances):
                if instance is None or not hasattr(instance, "poll"):
                    continue
                with self._op_lock(chip):
                    # An idle driver is still polled once: it may hold
                    # completions a paste-retry loop drained on the side.
                    if wait and instance.in_flight:
                        instance.wait_all()
                    else:
                        instance.poll()
        finally:
            self._settle_done()

    def _settle_done(self) -> None:
        """Settle every job whose driver pending has resolved."""
        for job in self._held(by_exec=False):
            if job.handle.done:
                self._settle(job, job.handle.result, job.handle.error)

    def _take_resolved(self) -> list[Job]:
        """Hand over, and forget, every open job that has settled."""
        with self._lock:
            finished = [job for job in self._open if job.settled]
            if finished:
                self._open = [job for job in self._open if not job.settled]
        return finished

    def _sleep(self, wake: tuple = ()) -> None:
        """Sleep, holding no lock, until an exec worker has news (a
        result or a death), a ``wake`` handle is readable, or one tick
        has passed.  A pipe the exec pool closed under us (shutdown, its
        jobs failed) reads as invalid and ends the sleep at once."""
        handles = list(wake)
        if self._held(by_exec=True):
            handles += self._exec_pool.wait_handles()
        if handles:
            poller = select.poll()
            for handle in handles:
                poller.register(handle, select.POLLIN)
            poller.poll(_REAP_TICK_S * 1e3)

    def poll(self) -> list[Job]:
        """Drain every chip once, never blocking.

        Returns each job that resolved since the last ``poll`` /
        ``reap`` / ``wait_all`` — including any that were already done
        when their submit returned — and drops it from the open list, so
        a caller driving the pool with submit + poll retains nothing.
        """
        self._drain_chips(wait=False)
        self._drain_exec()
        return self._take_resolved()

    def reap(self, wake: tuple = ()) -> list[Job]:
        """Like :meth:`poll`, but when nothing has resolved yet, wait.

        Chip jobs are run to completion; for exec jobs the caller sleeps
        until a worker has news or one of its own ``wake`` handles (file
        descriptors or connections) turns readable — one blocking call,
        any number of wake sources — for at most a tick.  May return
        nothing: the caller was woken, or the tick passed.
        """
        self._drain_chips(wait=True)
        self._drain_exec()
        finished = self._take_resolved()
        if not finished:
            self._sleep(wake)
            self._drain_exec()
            finished = self._take_resolved()
        return finished

    def wait_all(self) -> list[DriverResult | None]:
        """Complete every open job; results in submission order.

        A job that terminally failed (deadline, unrescuable input)
        yields ``None`` in its slot; its exception is on the
        :class:`Job` returned at submit time.  Jobs a
        ``poll``/``reap`` already handed over are not repeated.
        """
        self._drain_chips(wait=True)
        self._finish_exec()
        with self._lock:
            results = [job.result for job in self._open]
            self._open = []
        return results

    def _finish_exec(self) -> None:
        """Block until every open exec job has resolved."""
        self._drain_exec()
        while self._held(by_exec=True):
            self._sleep()
            self._drain_exec()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._below)

    def cancel_in_flight(self) -> None:
        """Abandon every pending batch job (hung-engine recovery).

        Each chip's driver flushes its FIFOs, resets hung engines, and
        reclaims window credits; the abandoned jobs end in
        :meth:`_settle` like any other failure — so with rescue enabled
        callers still receive correct bytes, computed on the CPU — and
        the next :meth:`poll` hands them over.
        """
        for chip, instance in enumerate(self._instances):
            if instance is None or not hasattr(instance, "cancel_pending"):
                continue
            with self._op_lock(chip):
                instance.cancel_pending()
        self._settle_done()
        # Exec jobs are CPU work already running in a worker, not wedged
        # hardware: drain them to completion rather than abandoning.
        self._finish_exec()

    def suggested_batch_depth(self) -> int:
        """How many jobs a caller should keep in flight at once.

        When submits run on the process execution layer: one per live
        worker, which keeps every core busy and queues nothing behind a
        busy one.  Otherwise E16's saturation depth
        (:data:`SATURATION_DEPTH`) per healthy chip, capped by the
        aggregate window credits when the backend exposes them —
        submitting past the credit pool only spins the paste loop.
        This is what the service dispatcher sizes its window with.
        """
        fleet = self._exec_fleet()
        if fleet is not None:
            return max(1, fleet.workers)
        healthy = max(1, len(self.health.available_chips()))
        depth = SATURATION_DEPTH * healthy
        credits = 0
        for instance in self._instances:
            cap = getattr(instance, "capacity", 0)
            credits += cap if isinstance(cap, int) else 0
        if credits:
            depth = min(depth, credits)
        return max(1, depth)

    def _publish_in_flight(self) -> None:
        _REGISTRY.gauge("repro_pool_in_flight",
                        "batch jobs awaiting completion").set(
            self.in_flight)

    # -- aggregate accounting ------------------------------------------------

    def stats(self) -> PoolStats:
        """One consistent, immutable snapshot across every instance.

        All counters — per-instance totals, dispatch/software counts,
        in-flight depth — are read in a single critical section, so a
        snapshot taken mid-batch never shows e.g. a dispatch without its
        matching request total.
        """
        with self._lock:
            instances = [i for i in self._instances if i is not None]
            if self._software is not None:
                instances.append(self._software)
            requests = bytes_in = bytes_out = faults = fallbacks = 0
            modelled = 0.0
            for instance in instances:
                part = instance.stats()
                requests += part.requests
                bytes_in += part.bytes_in
                bytes_out += part.bytes_out
                modelled += part.modelled_seconds
                faults += part.faults
                fallbacks += part.fallbacks
            return PoolStats(
                requests=requests, bytes_in=bytes_in, bytes_out=bytes_out,
                modelled_seconds=modelled, faults=faults,
                fallbacks=fallbacks,
                dispatch_counts=tuple(self.dispatch_counts),
                software_jobs=self.software_jobs,
                in_flight=len(self._below),
                rescues=self.rescues,
                verify_failures=self.verify_failures,
                breaker_opens=self.health.total_opens(),
                breaker_states=tuple(
                    b.state.name for b in self.health.breakers))
