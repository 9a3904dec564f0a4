"""CompressionService: the in-process multi-client job server.

This is the traffic-facing layer the pool lacks.  Client threads call
:meth:`CompressionService.submit` (or the blocking ``compress`` /
``decompress`` conveniences); each request is one
:class:`~repro.backend.pool.Job`, queued in a bounded per-QoS-class
queue, which a single dispatcher thread hands to the shared
:class:`~repro.backend.pool.AcceleratorPool` and fulfils:

* **Admission control** — each class's queue has request and byte
  bounds.  A full queue sheds the request immediately with
  :class:`~repro.errors.ServiceOverloaded` carrying a ``retry_after_s``
  estimate, so overload produces cheap, explicit rejections instead of
  unbounded buffering (the server never queues more than the configured
  envelope, no matter the offered load); the byte bound caps a decode.
* **QoS scheduling** — dispatch order follows the VAS two-FIFO model
  via :class:`~repro.service.qos.QosPolicy`: the high FIFO takes the
  next free slot, the starvation bound keeps bulk moving.
* **A dispatch window** — the dispatcher keeps up to
  :meth:`~repro.backend.pool.AcceleratorPool.suggested_batch_depth`
  jobs in flight (the E16 saturation depth per chip; the live worker
  count when the pool fronts the process execution layer), submits
  without waiting, and resolves each job as it completes.  It sleeps in
  one call woken by a completion *or* an admission.
* **Resilience** — breaker-aware routing, software rescue, and
  deadlines all come from the pool; when an engine wedges the window is
  cancelled (:meth:`~repro.backend.pool.AcceleratorPool.cancel_in_flight`)
  and the abandoned jobs resolve through software rescue, so accepted
  requests still return correct bytes.  Requests that out-wait their
  deadline *in the queue* are expired without being executed.
* **Telemetry** — every request owns a detached ``service.request``
  span (opened at admission on the caller's thread, closed at
  fulfilment on the dispatcher's), adopted around the pool submit so
  ``pool.route``/``backend.submit`` nest under it; outcomes publish
  ``repro_service_*`` metrics.

Deadline semantics: a request's ``deadline_s`` bounds both its
wall-clock *queue wait* (expired requests are shed) and, once
dispatched, the *modelled* time the backend may spend on it (the pool's
per-job deadline contract).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..backend.pool import AcceleratorPool, Job
from ..dictsvc.cache import ResultCache, result_key
from ..dictsvc.keyed import Claim
from ..errors import (AcceleratorError, ConfigError, DeadlineExceeded,
                      ReproError, ServiceClosed, ServiceOverloaded,
                      failure_of)
from ..nx.dht import BUILTIN
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.metrics import record_service_request
from ..obs.trace import NULL_SPAN, TRACE as _TRACE
from .qos import DEFAULT_CLASSES, QosPolicy

_OPS = ("compress", "decompress")

#: A QoS class's books: requests admitted, shed, and the three endings.
_BOOKS = ("accepted", "rejected", "completed", "expired", "failed")

#: Floor/ceiling on the retry-after hint handed to shed clients.
_RETRY_AFTER_MIN_S = 0.001
_RETRY_AFTER_MAX_S = 5.0

#: Seed for the per-request wall service-time EWMA (retry-after hints
#: before the first completion lands).
_EWMA_SEED_S = 0.002
_EWMA_WEIGHT = 0.2


def finite_seconds(value: object) -> float | None:
    """``value`` as a finite number of seconds, else None: what a
    deadline must be for the dispatcher to compare it with a clock
    (one it cannot compare would kill it, and with it the service)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of service activity."""

    accepted: int
    rejected: int
    expired: int
    completed: int
    failed: int
    queued: int = 0
    queued_bytes: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    batches: int = 0
    modelled_seconds: float = 0.0
    state: str = "running"
    per_class: dict = field(default_factory=dict)
    per_tenant: dict = field(default_factory=dict)
    #: Result-cache counters when a cache is mounted, else None.
    cache: dict | None = None

    @property
    def in_service(self) -> int:
        """Accepted but not yet resolved (queued + being executed)."""
        return self.accepted - self.completed - self.failed - self.expired


class CompressionService:
    """Multi-client compression-as-a-service over one accelerator pool.

    Thread-safe: any number of threads may ``submit``; one internal
    dispatcher owns the pool's async surface.  Use as a context manager
    for a guaranteed drain-and-close.
    """

    def __init__(self, pool: AcceleratorPool | None = None, *,
                 qos: QosPolicy | None = None,
                 cache_mb: float | None = None,
                 **pool_kwargs) -> None:
        # ``pool_kwargs`` build the service's own pool.  exec_workers=
        # enables the process-based execution layer on it: batch submits
        # on synchronous backends run in persistent worker processes
        # instead of on this dispatcher thread, so the dispatcher stays
        # an I/O loop.
        if pool is not None and pool_kwargs:
            raise ConfigError(
                f"pool arguments {', '.join(sorted(pool_kwargs))} given "
                "with a pool: set them on the pool")
        self._own_pool = pool is None
        self.pool = AcceleratorPool(**pool_kwargs) if pool is None else pool
        self.qos = qos or QosPolicy(DEFAULT_CLASSES)
        # The content-addressed result cache (dictionary service).
        self.cache = None if cache_mb is None else ResultCache(
            max_bytes=max(1, int(cache_mb * (1 << 20))))
        # The canned tables a job takes at admission; a push swaps them.
        self.library = BUILTIN
        self._lock = threading.Lock()
        self._queues: dict[str, deque[Job]] = {
            c.name: deque() for c in self.qos.classes}
        self._queued_bytes: dict[str, int] = {
            c.name: 0 for c in self.qos.classes}
        self._state = "running"
        self._ids = itertools.count(1)
        self._ewma_job_s = _EWMA_SEED_S
        # Counters (all mutated under self._lock); the totals are the sums
        # of the per-class books.
        self._batches = 0
        self._bytes_in = 0
        self._bytes_out = 0
        self._modelled_s = 0.0
        self._per_class: dict[str, dict[str, int]] = {
            c.name: dict.fromkeys(_BOOKS, 0) for c in self.qos.classes}
        self._per_tenant: dict[str, dict[str, int]] = {}
        # The dispatcher sleeps in one wait on the pool's completion
        # handles plus this pipe; see _poke_locked.
        self._wake_r, self._wake_w = os.pipe()
        self._wake_state = "awake"  # | "armed" | "poked" | "gone"
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher",
            daemon=True)
        self._dispatcher.start()

    # -- client surface ------------------------------------------------------

    def submit(self, op: str, payload: bytes, *, fmt: str | None = None,
               strategy: str = "auto", qos: str | None = None,
               tenant: str = "", deadline_s: float | None = None,
               traceparent: str | None = None,
               client_request_id: str | None = None) -> Job:
        """Admit one request; returns its :class:`Job` to ``wait`` on.

        Raises :class:`ServiceOverloaded` (retryable, with a
        ``retry_after_s`` hint) when the class's queue is full, and
        :class:`ServiceClosed` once draining has begun.

        ``traceparent`` is the caller's wire trace context (the W3C-style
        header field the socket server forwards verbatim); the request's
        detached span joins that trace, so the client's span and every
        span this request produces — dispatcher, pool, exec workers —
        export as one tree.  Absent or malformed, the request roots a
        fresh wire trace.

        ``client_request_id`` is the wire idempotency key (when the
        request arrived over the socket with one): it is stamped on the
        request's span and flight records so a retried logical request
        can be tied back across reconnects, but the service itself
        executes whatever it admits — deduplication of resends happens
        at the socket layer, before admission.
        """
        if op not in _OPS:
            raise ConfigError(f"unknown op {op!r}; have {_OPS}")
        if deadline_s is not None and finite_seconds(deadline_s) is None:
            raise ConfigError("deadline_s must be a finite number of "
                              f"seconds, got {deadline_s!r}")
        qcls = self.qos.resolve(qos)
        job = Job(op, payload, fmt or "gzip", strategy, deadline_s)
        job.qos, job.tenant, job.library = qcls.name, tenant, self.library
        if op == "decompress":
            job.max_output = qcls.queue_bytes_limit
        if self.cache is not None and op == "compress":
            # Consult the content-addressed cache before admission: the
            # request is a hit, a follower parked on the executing
            # leader's claim — in the critical section that saw the
            # claim, so the leader cannot settle between the look and
            # the park — or the leader itself.  The key names the job's
            # own library, the one the engine will compress with.
            key = result_key(payload, op=op, fmt=job.fmt, strategy=strategy,
                             epoch=job.library.key)
            state, value = self.cache.begin(
                tenant, key, park=lambda: self._park(job))
            if state == "wait":
                with self._lock:
                    self._count_admitted_locked(qcls.name, tenant,
                                                len(payload))
                _FLIGHT.record("service.cache_wait", id=job.request_id,
                               qos=qcls.name, nbytes=len(payload))
                return job
            if state == "hit":
                job.request_id = next(self._ids)
                _FLIGHT.record("service.cache_hit", id=job.request_id,
                               qos=qcls.name, nbytes=len(payload))
                self._serve_cached(job, value, admit=True)
                return job
            job.cache_claim = value
        try:
            return self._admit(job, qcls, traceparent, client_request_id)
        except ReproError as exc:
            if job.cache_claim is not None:
                # The leader was shed before dispatch: release the
                # singleflight claim so a retry (or a parked follower's
                # resend) can re-claim, and fail anyone already parked.
                self._cache_settle_fail(job.cache_claim, exc)
            raise

    def _admit(self, job: Job, qcls, traceparent: str | None,
               client_request_id: str | None) -> Job:
        nbytes = len(job.payload)
        with self._lock:
            if self._state != "running":
                raise ServiceClosed(
                    f"service is {self._state}; not accepting work")
            queue = self._queues[qcls.name]
            if (len(queue) >= qcls.queue_limit
                    or self._queued_bytes[qcls.name] + nbytes
                    > qcls.queue_bytes_limit):
                retry_after = self._retry_after_locked()
                self._per_class[qcls.name]["rejected"] += 1
                record_service_request(
                    op=job.op, qos=qcls.name, outcome="rejected",
                    tenant=job.tenant, reason="queue_full")
                _REGISTRY.window(
                    "repro_service_shed_window_ratio",
                    "shed fraction of recent admissions").observe(
                    1.0, qos=qcls.name)
                _FLIGHT.record("service.reject", op=job.op, qos=qcls.name,
                               nbytes=nbytes, depth=len(queue))
                raise ServiceOverloaded(
                    f"QoS class {qcls.name!r} queue full "
                    f"({len(queue)} requests); retry in "
                    f"{retry_after * 1e3:.1f} ms",
                    retry_after_s=retry_after, qos=qcls.name)
            job.request_id, job.event = next(self._ids), threading.Event()
            # wire_request_id is the wire idempotency key: one logical
            # client request keeps one id across reconnect resends.
            job.span = _TRACE.span_detached(
                "service.request", traceparent, op=job.op, qos=qcls.name,
                nbytes=nbytes, request_id=job.request_id,
                tenant=job.tenant or None, wire_request_id=client_request_id)
            job.stamps["admit"] = time.perf_counter()
            queue.append(job)
            self._queued_bytes[qcls.name] += nbytes
            self._count_admitted_locked(qcls.name, job.tenant, nbytes)
            self._publish_depth_locked(qcls.name)
            poke = self._poke_locked()
        if poke:
            self._poke()
        return job

    def _count_admitted_locked(self, qos: str, tenant: str,
                               nbytes: int) -> None:
        self._per_class[qos]["accepted"] += 1
        if tenant:
            entry = self._per_tenant.setdefault(
                tenant, {"accepted": 0, "bytes_in": 0})
            entry["accepted"] += 1
            entry["bytes_in"] += nbytes

    # -- result-cache integration --------------------------------------------

    def _park(self, job: Job) -> Job:
        """``job`` as a follower left on a leader's claim: admitted, and
        ended by the leader's ending."""
        job.request_id, job.event = next(self._ids), threading.Event()
        job.stamps["admit"] = time.perf_counter()
        return job

    def _serve_cached(self, job: Job, output: bytes, *, admit: bool) -> None:
        """Answer one request with cached bytes (no dispatch at all); a
        hit is admitted and completed in the same section."""
        nbytes_in = len(job.payload)
        with self._lock:
            if admit:
                self._count_admitted_locked(job.qos, job.tenant, nbytes_in)
            self._bytes_in += nbytes_in
            self._bytes_out += len(output)
            self._per_class[job.qos]["completed"] += 1
        record_service_request(
            op=job.op, qos=job.qos, outcome="ok", tenant=job.tenant,
            nbytes_in=nbytes_in, nbytes_out=len(output),
            modelled_s=0.0, queue_wait_s=0.0)
        job.output = output

    def _cache_settle_ok(self, job: Job) -> None:
        """Leader succeeded: publish the blob and serve parked followers."""
        claim = job.cache_claim
        self.cache.commit(*claim.key, job.output)
        for follower in claim.parked:
            self._serve_cached(follower, job.output, admit=False)
            follower.event.set()

    def _cache_settle_fail(self, claim: Claim, error: Exception) -> None:
        """Leader failed: free the key; parked followers share the error,
        each booked by its failure class.

        The abort means the next request on this key re-claims and
        re-executes — a failed leader never poisons the key.
        """
        self.cache.abort(*claim.key)
        for follower in claim.parked:
            self._resolve_error(follower, error)

    def request(self, op: str, payload: bytes, *,
                timeout_s: float | None = 60.0,
                **kwargs) -> Job:
        """Blocking convenience: submit and wait for fulfilment."""
        return self.submit(op, payload, **kwargs).wait(timeout_s)

    def compress(self, payload: bytes, **kwargs) -> Job:
        return self.request("compress", payload, **kwargs)

    def decompress(self, payload: bytes, **kwargs) -> Job:
        return self.request("decompress", payload, **kwargs)

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admitting, serve everything queued, stop the dispatcher.

        Returns True when the backlog fully drained within the timeout.
        """
        with self._lock:
            if self._state == "running":
                self._state = "draining"
            poke = self._poke_locked()
        if poke:
            self._poke()
        self._dispatcher.join(timeout_s)
        return not self._dispatcher.is_alive()

    def close(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` queued work is served first,
        otherwise it is failed with :class:`ServiceClosed`.  The drain,
        then the dispatcher's exit, are each waited on up to 30 s."""
        timeout_s = 30.0
        if drain:
            self.drain(timeout_s)
        with self._lock:
            abandoned = self._stop_locked()
            poke = self._poke_locked()
        if poke:
            self._poke()
        for job in abandoned:
            self._resolve_error(
                job, ServiceClosed("service stopped before dispatch"))
        self._dispatcher.join(timeout_s)
        if self._own_pool:
            self.pool.close()

    def _stop_locked(self) -> list[Job]:
        """Stop admitting; hand back whatever was still queued."""
        self._state = "stopped"
        abandoned = [job for queue in self._queues.values() for job in queue]
        for name, queue in self._queues.items():
            queue.clear()
            self._queued_bytes[name] = 0
        return abandoned

    def __enter__(self) -> "CompressionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """One mutually consistent snapshot (single critical section)."""
        with self._lock:
            per_class = {name: dict(c) for name, c in self._per_class.items()}
            return ServiceStats(
                **{book: sum(c[book] for c in per_class.values())
                   for book in _BOOKS},
                queued=sum(len(q) for q in self._queues.values()),
                queued_bytes=sum(self._queued_bytes.values()),
                bytes_in=self._bytes_in, bytes_out=self._bytes_out,
                batches=self._batches,
                modelled_seconds=self._modelled_s,
                state=self._state,
                per_class=per_class,
                per_tenant={name: dict(t)
                            for name, t in self._per_tenant.items()},
                cache=(self.cache.stats() if self.cache is not None
                       else None))

    # -- admission internals -------------------------------------------------

    def _retry_after_locked(self) -> float:
        """Estimate when capacity frees up: backlog x recent job cost."""
        backlog = sum(len(q) for q in self._queues.values())
        return min(_RETRY_AFTER_MAX_S,
                   max(_RETRY_AFTER_MIN_S, backlog * self._ewma_job_s))

    def _publish_depth_locked(self, name: str) -> None:
        _REGISTRY.gauge("repro_service_queue_depth",
                        "requests waiting per QoS class").set(
            len(self._queues[name]), qos=name)
        _REGISTRY.gauge("repro_service_queued_bytes",
                        "payload bytes waiting per QoS class").set(
            self._queued_bytes[name], qos=name)

    # -- the dispatcher ------------------------------------------------------

    def _poke_locked(self) -> bool:
        """Claim the dispatcher's wake-up (admission, drain, close).

        True when the caller must :meth:`_poke` once it has released the
        lock — writing under it would hand the GIL to a dispatcher that
        then queues on this very lock.  Only a dispatcher that armed the
        pipe on its way to sleep is poked, and it reads the byte back
        when it wakes, so the pipe never holds more than one and a busy
        dispatcher costs admission nothing.
        """
        if self._wake_state != "armed":
            return False
        self._wake_state = "poked"
        return True

    def _poke(self) -> None:
        os.write(self._wake_w, b"\0")

    def _dispatch_loop(self) -> None:
        """Keep a bounded window of jobs in flight on the pool.

        While the window has room the next request is taken in QoS order
        and submitted without waiting; each job is resolved the moment
        the pool hands it back; otherwise the loop sleeps inside
        ``pool.reap`` until a completion *or* an admission.  Jobs on
        in-process backends are done when submit/reap returns, so they
        pass through the same loop and leave nothing in flight.
        """
        #: job -> jobs in flight once it joined them
        flying: dict[Job, int] = {}
        try:
            while True:
                took = 0
                while (job := self._take(flying)) is not None:
                    if self._submit(job):
                        flying[job] = len(flying) + 1
                        took += 1
                if took:
                    with self._lock:
                        self._batches += 1
                    _REGISTRY.histogram(
                        "repro_service_batch_size",
                        "requests dispatched per round",
                        buckets=(1, 2, 4, 8, 16, 32)).observe(took)
                elif (not flying and self._state != "running"
                        and not any(self._queues.values())):
                    # Admission closed before the queues read empty, so
                    # nothing can arrive behind this unlocked look.
                    return
                for job in self._reap(flying):
                    job.batch_size = flying.pop(job)
                    if job.error is None:
                        self._resolve_ok(job)
                    else:
                        self._resolve_error(job, job.error)
        except BaseException as cause:
            # Nobody is left to serve them: fail every accepted request
            # now instead of stranding its client until a timeout.
            with self._lock:
                stranded = list(flying) + self._stop_locked()
            _FLIGHT.auto_dump("dispatcher_died", stranded=len(stranded),
                              error=type(cause).__name__)
            for job in stranded:
                error = ServiceClosed(f"dispatcher died: {cause!r}")
                error.__cause__ = cause
                self._resolve_error(job, error)
            raise
        finally:
            with self._lock:
                if self._wake_state == "poked":
                    os.read(self._wake_r, 1)  # let the poker finish
                self._wake_state = "gone"
            os.close(self._wake_r)
            os.close(self._wake_w)

    def _take(self, flying: dict) -> Job | None:
        """The next live request for a free window slot, in QoS order.

        None when nothing can be dispatched right now: nothing is
        queued, or the window — the pool's suggested depth, and within
        it each class's ``max_batch`` — is full.  The wake pipe is armed
        under the same lock that saw that, so a request admitted from
        then on pokes the dispatcher out of its sleep.
        """
        with self._lock:
            if self._wake_state == "poked":
                os.read(self._wake_r, 1)
            self._wake_state = "awake"
            if not any(self._queues.values()):
                self._wake_state = "armed"
                return None
        window = self.pool.suggested_batch_depth()
        while True:
            with self._lock:
                busy = [job.qos for job in flying]
                qcls = None
                if len(busy) < window:
                    qcls = self.qos.pick({
                        name: len(queue)
                        for name, queue in self._queues.items()
                        if busy.count(name)
                        < self.qos.by_name[name].max_batch})
                if qcls is None:
                    self._wake_state = "armed"
                    return None
                job = self._queues[qcls.name].popleft()
                job.stamps["dequeue"] = now = time.perf_counter()
                self._queued_bytes[qcls.name] -= len(job.payload)
                self._publish_depth_locked(qcls.name)
            waited = now - job.stamps["admit"]
            if job.deadline_s is None or waited <= job.deadline_s:
                return job
            self._resolve_error(job, DeadlineExceeded(
                f"request {job.request_id} waited {waited * 1e3:.1f} ms "
                f"in the {job.qos} queue, past its "
                f"{job.deadline_s * 1e3:.1f} ms deadline",
                elapsed_s=waited, deadline_s=job.deadline_s),
                reason="deadline_in_queue")

    def _submit(self, job: Job) -> bool:
        """Hand one request to the pool without waiting for it; False
        when it failed on the way in."""
        # Under the request's own span: pool.route / backend.submit and
        # the worker spans folded back from the exec layer nest there.
        with _TRACE.adopt(job.span):
            try:
                self.pool.submit(job)
                return True
            except ReproError as exc:
                # Any library failure — accelerator trouble, but also a
                # malformed payload (DeflateError on garbage input) —
                # fails this job; it must never fail the dispatcher.
                self._resolve_error(job, exc)
                return False

    def _reap(self, flying: dict) -> list[Job]:
        """Sleep until a completion or an admission; our settled jobs."""
        # Pool work in a reap is window-scoped (one accelerator drain
        # serves every pasted job), so it hangs off the oldest in-flight
        # request's span — its own whenever the window holds one job.
        oldest = next(iter(flying)).span if flying else NULL_SPAN
        with _TRACE.adopt(oldest):
            try:
                finished = self.pool.reap(wake=(self._wake_r,))
            except AcceleratorError:
                # Wedged engine: abandon what's stuck — cancellation
                # routes the jobs through the rescue path, so most still
                # resolve with correct software-computed bytes.
                self.pool.cancel_in_flight()
                finished = self.pool.poll()
        # A pool that was handed in may also be resolving someone
        # else's jobs; those are not ours to fulfil.
        return [job for job in finished if job in flying]

    # -- fulfilment ----------------------------------------------------------

    def _resolve_ok(self, job: Job) -> None:
        stamps, result = job.stamps, job.result
        job.output = output = result.output
        job.modelled_seconds = modelled_s = result.stats.elapsed_seconds
        job.queue_wait_s = stamps["dequeue"] - stamps["admit"]
        job.wall_seconds = wall = stamps["settle"] - stamps["admit"]
        with self._lock:
            self._bytes_in += len(job.payload)
            self._bytes_out += len(output)
            self._modelled_s += modelled_s
            self._per_class[job.qos]["completed"] += 1
            # The jobs it shared the pool with ran during the same wall
            # time, so the cost one more queued request adds is its share.
            per_job = wall / job.batch_size
            self._ewma_job_s += _EWMA_WEIGHT * (per_job - self._ewma_job_s)
        record_service_request(
            op=job.op, qos=job.qos, outcome="ok", tenant=job.tenant,
            nbytes_in=len(job.payload), nbytes_out=len(output),
            modelled_s=modelled_s, queue_wait_s=job.queue_wait_s)
        _REGISTRY.window(
            "repro_service_latency_window_seconds",
            "request wall latency (admission to fulfilment)").observe(
            wall, qos=job.qos)
        _REGISTRY.window(
            "repro_service_shed_window_ratio",
            "shed fraction of recent admissions").observe(0.0, qos=job.qos)
        _FLIGHT.record("service.ok", id=job.request_id, op=job.op,
                       qos=job.qos, nbytes=len(job.payload),
                       wall_s=round(wall, 6), batch=job.batch_size)
        job.span.set(outcome="ok", out_bytes=len(output),
                     modelled_s=modelled_s, batch_size=job.batch_size)
        job.span.end()
        # The cache settles before the caller wakes: a repeat it sends
        # at once finds the entry, not the claim.
        if job.cache_claim is not None:
            self._cache_settle_ok(job)
        job.event.set()

    def _resolve_error(self, job: Job, error: Exception, *,
                       reason: str = "") -> None:
        """Every way an admitted request fails ends here: expired in the
        queue, failed or late on the pool, abandoned at close, stranded
        by a dead dispatcher, parked behind a leader that failed.  Its
        queue wait runs to its dequeue, or to now if it had none."""
        stamps = job.stamps
        job.error = error
        job.queue_wait_s = waited = (stamps.get("dequeue")
                                     or time.perf_counter()) - stamps["admit"]
        outcome = "expired" if failure_of(error) == "deadline" else "failed"
        reason = reason or type(error).__name__
        with self._lock:
            self._per_class[job.qos][outcome] += 1
        record_service_request(
            op=job.op, qos=job.qos, outcome=outcome, tenant=job.tenant,
            queue_wait_s=waited, reason=reason)
        if outcome == "expired":
            _FLIGHT.auto_dump("deadline_exceeded", id=job.request_id,
                              op=job.op, qos=job.qos, error=reason,
                              waited_s=round(waited, 6))
        else:
            _FLIGHT.record("service.fail", id=job.request_id, op=job.op,
                           qos=job.qos, error=reason)
        job.span.set(outcome=outcome, error=reason, queue_wait_s=waited)
        job.span.end()
        # Aborted before the caller wakes: its retry finds the key free.
        if job.cache_claim is not None:
            self._cache_settle_fail(job.cache_claim, error)
        job.event.set()
