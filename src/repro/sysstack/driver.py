"""User-mode library + kernel driver behaviour for the accelerator.

This is the software half of the documented submission protocol:

1. allocate source/target buffers and a CSB in the process address space;
2. build a CRB and ``paste`` it to the process's VAS send window,
   backing off when the window is out of credits;
3. poll the CSB; on ``CC=TRANSLATION`` touch the faulting page and
   resubmit; on ``CC=TARGET_SPACE`` grow the target buffer and resubmit;
4. after a bounded number of retries, fall back to software zlib —
   the same last-resort path the production library (libnxz) takes;
5. read the output, then free the request's buffers — on every exit.

Every wait in the protocol is bounded by a
:class:`~repro.resilience.policy.RetryPolicy`: the paste loop gives up
on a wedged window (e.g. a leaked-credit storm) instead of spinning,
resubmissions stop after ``max_attempts``, and an optional per-job
deadline in modelled seconds raises
:class:`~repro.errors.DeadlineExceeded` once a job spends its budget
waiting.  A submission that never completes at all (a hung engine) is
detected by its missing completion, recovered via
:meth:`~repro.nx.accelerator.NxAccelerator.recover_hung`, and retried.

Completion codes split into three classes (see ``docs/protocol.md``):
*handled* (``TRANSLATION``, ``TARGET_SPACE`` — fix up and resubmit),
*permanent* (``INVALID_CRB``, ``DATA_LENGTH`` — the request itself is
wrong; raise immediately, no retry), and *spurious* (anything else — a
misbehaving engine; retry, then fall back to software).  A *data error*
(the engine decoded the stream and found it corrupt) is permanent too,
and like a permanent CC it ends that one job, never the drain.

Timing is accounted in modelled seconds so experiments can report
end-to-end latencies including fault fixups and retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..deflate.containers import decompress_target_len
from ..errors import DeadlineExceeded, JobError, ReproError
from ..obs.trace import TRACE as _TRACE
from ..resilience.policy import RetryPolicy, check_deadline
from ..resilience.verify import run_in_software
from ..sysstack.crb import (CRB_FLAG_CONTINUED, CSB_BYTES, CcCode, Crb,
                            Csb, FunctionCode, Op)
from ..sysstack.dde import Dde
from ..sysstack.mmu import AddressSpace

if TYPE_CHECKING:  # avoid a cycle: nx.accelerator imports sysstack.crb
    from ..nx.accelerator import NxAccelerator

PAGE_TOUCH_SECONDS = 4e-6       # minor fault service in the OS
CSB_POLL_SECONDS = 0.2e-6       # one poll iteration
PASTE_RETRY_SECONDS = 0.5e-6    # back-off after a credit-rejected paste
DEFAULT_MAX_RETRIES = 8
COMPRESS_TARGET_FACTOR = 1.3    # worst-case expansion plus framing slack

#: The request itself is malformed — retrying cannot help.
PERMANENT_CCS = (CcCode.INVALID_CRB, CcCode.DATA_LENGTH)


@dataclass
class SubmissionStats:
    """What happened while getting one job through the accelerator."""

    submissions: int = 0
    paste_rejections: int = 0
    translation_faults: int = 0
    target_overflows: int = 0
    engine_hangs: int = 0
    spurious_ccs: int = 0
    fallback_to_software: bool = False
    elapsed_seconds: float = 0.0


@dataclass
class DriverResult:
    """Completed request: output plus accounting."""

    output: bytes
    csb: Csb | None
    stats: SubmissionStats
    engine_result: object | None = None


def first_target_len(op: Op, data: bytes, fmt: str) -> int:
    """Size of a request's first target buffer, sync and async alike.

    Compression output is bounded by its input; decompression asks the
    payload (:func:`~repro.deflate.containers.decompress_target_len`).
    Either way ``CC=TARGET_SPACE`` regrowth backs a wrong first size.
    """
    if op in (Op.COMPRESS, Op.COMPRESS_842):
        return max(4096, int(len(data) * COMPRESS_TARGET_FACTOR) + 1024)
    return decompress_target_len(data, fmt)


@dataclass
class NxDriver:
    """Ties a process address space to one chip's accelerator."""

    accelerator: "NxAccelerator"
    space: AddressSpace
    max_retries: int = DEFAULT_MAX_RETRIES
    pid: int = 1
    retry_policy: RetryPolicy | None = None
    deadline_s: float | None = None
    _window_id: int | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.retry_policy is None:
            self.retry_policy = RetryPolicy.from_max_retries(
                self.max_retries)

    def open(self, credits: int | None = None) -> None:
        """Open the process's send window (idempotent).

        A second ``open`` on a live session is a no-op: opening another
        window would strand the first one's credits until ``close``,
        which silently halves the usable credit pool.
        """
        if self._window_id is not None:
            return
        window = self.accelerator.vas.open_window(pid=self.pid,
                                                  credits=credits)
        self._window_id = window.window_id

    def close(self) -> None:
        """Close the send window; safe to call repeatedly."""
        if self._window_id is not None:
            self.accelerator.vas.close_window(self._window_id)
            self._window_id = None

    # -- request construction ------------------------------------------------

    def prepare_buffers(self, data: bytes, target_len: int | None = None
                        ) -> tuple[Dde, Dde, int]:
        """Place input in memory; allocate output + CSB; return descriptors.

        ``target_len`` defaults to the compress sizing.
        """
        if target_len is None:
            target_len = first_target_len(Op.COMPRESS, data, "raw")
        src_va = self.space.alloc(max(1, len(data)))
        self.space.write(src_va, data)
        dst_va = self.space.alloc(target_len)
        csb_va = self.space.alloc(CSB_BYTES)
        return (Dde.direct(src_va, len(data)),
                Dde.direct(dst_va, target_len), csb_va)

    def _stage(self, op: Op, data: bytes, strategy: str, fmt: str,
               history: bytes, final: bool, sequence: int = 0) -> Crb:
        """Buffers and CRB of one request — sync and async alike."""
        source, target, csb_va = self.prepare_buffers(
            data, first_target_len(op, data, fmt))
        history_dde = None
        if history:
            hist_va = self.space.alloc(len(history))
            self.space.write(hist_va, history)
            history_dde = Dde.direct(hist_va, len(history))
        return Crb(function=FunctionCode(op=op, strategy=strategy, fmt=fmt),
                   source=source, target=target, csb_address=csb_va,
                   sequence=sequence,
                   flags=0 if final else CRB_FLAG_CONTINUED,
                   history_dde=history_dde)

    def _grow_target(self, crb: Crb) -> None:
        """``CC=TARGET_SPACE``: swap in a target twice the size."""
        new_len = crb.target.length * 2
        self.space.free(crb.target.address, crb.target.length)
        crb.target = Dde.direct(self.space.alloc(new_len), new_len)

    def _release(self, crb: Crb) -> None:
        """Free a finished request's buffers (its output is read by now).

        Addresses are never reused, so a CRB that outlived its request
        faults instead of scribbling on a later one.
        """
        for dde in (crb.source, crb.target, crb.history_dde):
            if dde is not None:
                self.space.free(dde.address, dde.length)
        self.space.free(crb.csb_address, CSB_BYTES)

    # -- the submit/retry loop -----------------------------------------------

    def run(self, op: Op, data: bytes, strategy: str = "auto",
            fmt: str = "raw", history: bytes = b"",
            final: bool = True,
            deadline_s: float | None = None) -> DriverResult:
        """Execute one compress/decompress request end to end.

        ``history`` seeds the engine's match window (or the inflate
        window for raw decompression); ``final=False`` marks a
        continuation request whose output concatenates with later ones.
        ``deadline_s`` bounds the job's *modelled* time spent waiting —
        past it, retries stop and :class:`DeadlineExceeded` is raised.
        """
        if self._window_id is None:
            self.open()
        if deadline_s is None:
            deadline_s = self.deadline_s
        stats = SubmissionStats()
        crb = self._stage(op, data, strategy, fmt, history, final)
        try:
            return self._run_staged(crb, stats, deadline_s)
        finally:
            self._release(crb)

    def _run_staged(self, crb: Crb, stats: SubmissionStats,
                    deadline_s: float | None) -> DriverResult:
        """The submit/poll/fix-up loop over one staged request."""
        machine = self.accelerator.machine
        policy = self.retry_policy
        chaos = self.accelerator.chaos
        attempt = 0
        while policy.allows(attempt):
            crb.sequence = stats.submissions
            stats.submissions += 1
            stats.elapsed_seconds += machine.submit_overhead_us * 1e-6

            if not self._paste_sync(crb, stats, attempt, deadline_s):
                break  # window wedged (credit leak): software fallback

            stats.elapsed_seconds += machine.dispatch_overhead_us * 1e-6
            done = _match_completion(
                self.accelerator.drain(self.space), crb.sequence)
            if done is None:
                # The engine swallowed the job: reset it, reclaim the
                # credit, and charge a backoff before resubmitting.
                stats.engine_hangs += 1
                self.accelerator.recover_hung()
                _TRACE.event("fault.hang", attempt=attempt)
                stats.elapsed_seconds += policy.backoff_s(attempt, token=1)
                check_deadline(stats.elapsed_seconds, deadline_s,
                               "engine hang recovery")
                attempt += 1
                continue
            if done.error is not None:
                raise done.error  # the engine refused the stream itself
            outcome = done.outcome
            stats.elapsed_seconds += outcome.busy_seconds
            stats.elapsed_seconds += CSB_POLL_SECONDS
            stats.elapsed_seconds += machine.completion_overhead_us * 1e-6

            csb = outcome.csb
            if chaos is not None:
                chaos.on_csb(csb)
            if _TRACE.enabled:
                with _TRACE.span("csb.complete", attempt=attempt,
                                 cc=csb.cc.name) as complete_span:
                    if csb.cc is CcCode.TRANSLATION:
                        complete_span.event(
                            "fault.translation",
                            address=csb.fault_address)
                        complete_span.event("resubmit",
                                            attempt=attempt + 1)
                    elif csb.cc is CcCode.TARGET_SPACE:
                        complete_span.event("overflow.target",
                                            length=crb.target.length)
                        complete_span.event("resubmit",
                                            attempt=attempt + 1)
            if csb.cc is CcCode.SUCCESS:
                output = self.space.read(crb.target.address,
                                         csb.target_written)
                return DriverResult(output=output, csb=csb, stats=stats,
                                    engine_result=outcome.result)
            if csb.cc is CcCode.TRANSLATION:
                stats.translation_faults += 1
                self.space.touch(csb.fault_address)
                stats.elapsed_seconds += PAGE_TOUCH_SECONDS
                check_deadline(stats.elapsed_seconds, deadline_s,
                               "translation fixup")
                attempt += 1
                continue
            if csb.cc is CcCode.TARGET_SPACE:
                stats.target_overflows += 1
                self._grow_target(crb)
                check_deadline(stats.elapsed_seconds, deadline_s,
                               "target growth")
                attempt += 1
                continue
            if csb.cc in PERMANENT_CCS:
                raise JobError(f"unexpected CC {csb.cc!r}", cc=int(csb.cc))
            # A spurious non-success CC: the engine is misbehaving, not
            # the request.  Back off, retry, and let the budget decide.
            stats.spurious_ccs += 1
            _TRACE.event("fault.spurious_cc", cc=csb.cc.name,
                         attempt=attempt)
            stats.elapsed_seconds += policy.backoff_s(attempt, token=2)
            check_deadline(stats.elapsed_seconds, deadline_s,
                           "spurious CC retry")
            attempt += 1

        # Retry budget exhausted: the production library falls back to
        # running zlib on the calling core.
        stats.fallback_to_software = True
        _TRACE.event("fallback.software", retries=stats.submissions)
        output, sw_seconds = self._fallback(crb)
        stats.elapsed_seconds += sw_seconds
        return DriverResult(output=output, csb=None, stats=stats)

    def _fallback(self, crb: Crb) -> tuple[bytes, float]:
        """Run a staged request in software, from its own buffers.

        The output is wire-compatible with what the engine would have
        produced — same ``fmt`` framing, same window, same final bit —
        so callers (and verify-after-compress) cannot tell a fallback
        from a hardware completion by its bytes.
        """
        data = self.space.read(crb.source.address, crb.source.length)
        history = (self.space.read(crb.history_dde.address,
                                   crb.history_dde.length)
                   if crb.history_dde is not None else b"")
        op = crb.function.op
        kind = ("compress" if op in (Op.COMPRESS, Op.COMPRESS_842)
                else "decompress")
        fmt = ("842" if op in (Op.COMPRESS_842, Op.DECOMPRESS_842)
               else crb.function.fmt)
        return run_in_software(kind, data, fmt, history=history,
                               final=crb.is_final,
                               machine=self.accelerator.machine)

    # -- paste with bounded backoff ------------------------------------------

    def _paste_sync(self, crb: Crb, stats: SubmissionStats, attempt: int,
                    deadline_s: float | None) -> bool:
        """Paste one CRB, draining the engine between rejected tries.

        Returns False when :attr:`retry_policy` declares the window
        wedged (credits never free) — the caller falls back to software
        instead of spinning forever.
        """
        if _TRACE.enabled:
            rejected_before = stats.paste_rejections
            with _TRACE.span("vas.paste", attempt=attempt,
                             window=self._window_id) as paste_span:
                accepted = self._paste_loop(crb, stats, deadline_s)
                paste_span.set(rejections=stats.paste_rejections
                               - rejected_before, accepted=accepted)
            return accepted
        return self._paste_loop(crb, stats, deadline_s)

    def _paste_loop(self, crb: Crb, stats: SubmissionStats,
                    deadline_s: float | None) -> bool:
        policy = self.retry_policy
        retries = 0
        while not self.accelerator.vas.paste(self._window_id, crb):
            stats.paste_rejections += 1
            retries += 1
            if retries > policy.max_paste_retries:
                return False
            stats.elapsed_seconds += policy.backoff_s(retries,
                                                      token=crb.sequence)
            check_deadline(stats.elapsed_seconds, deadline_s, "vas.paste")
            self.accelerator.drain(self.space)  # engine catch-up
        return True


def _match_completion(completed, sequence: int):
    """Our submission's completion, or None if it never completed."""
    for job in completed:
        if job.crb is not None and job.crb.sequence == sequence:
            return job
    return None


@dataclass
class PendingJob:
    """One submitted-but-not-completed asynchronous request."""

    sequence: int
    op: Op
    crb: Crb
    stats: SubmissionStats
    data_len: int
    done: bool = False
    result: DriverResult | None = None
    #: Terminal failure (permanent CC, data error, deadline,
    #: cancellation).  A job with ``error`` set is ``done`` but has no
    #: ``result``.
    error: Exception | None = None
    deadline_s: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class AsyncNxDriver(NxDriver):
    """Batch submission: paste many CRBs, then poll for completions.

    This is what the asynchronous POWER9 interface is *for*: a thread
    keeps several jobs in flight on one window (bounded by its credits)
    and overlaps its own work with the engine.  ``submit`` pastes one
    request; ``poll`` drains the accelerator, finishes successful jobs,
    and transparently re-pastes jobs that faulted or overflowed.

    Failure containment: a job that completes with a *permanent* CC
    (malformed request) is marked failed via :attr:`PendingJob.error`
    and draining continues — one bad job can no longer abandon every
    other in-flight request.  Retries are bounded per job by the
    driver's :class:`RetryPolicy`; exhaustion resolves the job in
    software, and a per-job deadline resolves it with
    :class:`DeadlineExceeded`.
    """

    def _init_async(self) -> None:
        if not hasattr(self, "_pending"):
            self._pending: dict[int, PendingJob] = {}
            self._next_sequence = 0
            #: Jobs completed by a drain nested inside a paste-retry
            #: loop; handed back on the next ``poll`` so no completion
            #: is ever silently dropped.
            self._unclaimed: list[PendingJob] = []

    def submit(self, op: Op, data: bytes, strategy: str = "auto",
               fmt: str = "raw", history: bytes = b"",
               final: bool = True,
               deadline_s: float | None = None) -> PendingJob:
        """Paste one request; returns a handle to poll on.

        ``history`` and ``final`` mean what they do for :meth:`run`.
        """
        self._init_async()
        if self._window_id is None:
            self.open()
        machine = self.accelerator.machine
        stats = SubmissionStats()
        crb = self._stage(op, data, strategy, fmt, history, final,
                          sequence=self._next_sequence)
        job = PendingJob(sequence=self._next_sequence, op=op, crb=crb,
                         stats=stats, data_len=len(data),
                         deadline_s=(deadline_s if deadline_s is not None
                                     else self.deadline_s))
        self._next_sequence += 1
        self._pending[job.sequence] = job
        try:
            accepted = self._paste_with_backoff(job)
        except DeadlineExceeded as exc:
            self._fail_job(job, exc)
            return job
        if not accepted:
            self._resolve_software(job)
        stats.elapsed_seconds += machine.submit_overhead_us * 1e-6
        return job

    def _paste_with_backoff(self, job: PendingJob) -> bool:
        """Bounded paste; drains completions (kept for later polls)
        while waiting for a credit.  False when the window is wedged."""
        job.stats.submissions += 1
        if _TRACE.enabled:
            rejected_before = job.stats.paste_rejections
            with _TRACE.span("vas.paste", sequence=job.sequence,
                             window=self._window_id) as span:
                accepted = self._async_paste_loop(job)
                span.set(rejections=job.stats.paste_rejections
                         - rejected_before, accepted=accepted)
            return accepted
        return self._async_paste_loop(job)

    def _async_paste_loop(self, job: PendingJob) -> bool:
        policy = self.retry_policy
        retries = 0
        while not self.accelerator.vas.paste(self._window_id, job.crb):
            job.stats.paste_rejections += 1
            retries += 1
            if retries > policy.max_paste_retries:
                return False
            job.stats.elapsed_seconds += policy.backoff_s(
                retries, token=job.sequence)
            check_deadline(job.stats.elapsed_seconds, job.deadline_s,
                           "vas.paste")
            # Free credits by draining completions; anything finished
            # here is stashed for the next poll(), not dropped.
            # (poll() rebinds self._unclaimed, so it must run before
            # the attribute is read for the extend.)
            drained = self.poll()
            self._unclaimed.extend(drained)
        return True

    def poll(self) -> list[PendingJob]:
        """Drain the engine; returns jobs that resolved on this poll.

        Resolved means completed, failed (:attr:`PendingJob.error`),
        or fallen back to software — every returned job is ``done``.
        """
        self._init_async()
        machine = self.accelerator.machine
        chaos = self.accelerator.chaos
        finished: list[PendingJob] = self._unclaimed
        self._unclaimed = []
        for completed in self.accelerator.drain(self.space):
            job = self._pending.get(
                completed.crb.sequence if completed.crb else -1)
            if job is None or job.done:
                continue
            if completed.error is not None:
                # A data error in this job's stream fails this job only;
                # the rest of the drain belongs to its neighbours.
                self._fail_job(job, completed.error)
                finished.append(job)
                continue
            outcome = completed.outcome
            job.stats.elapsed_seconds += outcome.busy_seconds
            job.stats.elapsed_seconds += CSB_POLL_SECONDS
            csb = outcome.csb
            if chaos is not None:
                chaos.on_csb(csb)
            if csb.cc is CcCode.SUCCESS:
                output = self.space.read(job.crb.target.address,
                                         csb.target_written)
                self._release(job.crb)
                job.stats.elapsed_seconds += (
                    machine.completion_overhead_us * 1e-6)
                job.done = True
                job.result = DriverResult(output=output, csb=csb,
                                          stats=job.stats,
                                          engine_result=outcome.result)
                del self._pending[job.sequence]
                finished.append(job)
            elif csb.cc is CcCode.TRANSLATION:
                job.stats.translation_faults += 1
                _TRACE.event("fault.translation", sequence=job.sequence,
                             address=csb.fault_address)
                self.space.touch(csb.fault_address)
                job.stats.elapsed_seconds += PAGE_TOUCH_SECONDS
                self._retry(job, finished)
            elif csb.cc is CcCode.TARGET_SPACE:
                job.stats.target_overflows += 1
                self._grow_target(job.crb)
                self._retry(job, finished)
            elif csb.cc in PERMANENT_CCS:
                # Contain the failure to this job: mark it failed and
                # keep draining — the other in-flight jobs (and their
                # window credits, already returned by the drain) are
                # unaffected.
                self._fail_job(job, JobError(
                    f"unexpected CC {csb.cc!r}", cc=int(csb.cc)))
                finished.append(job)
            else:
                job.stats.spurious_ccs += 1
                _TRACE.event("fault.spurious_cc", sequence=job.sequence,
                             cc=csb.cc.name)
                self._retry(job, finished)
        return finished

    def _retry(self, job: PendingJob, finished: list[PendingJob]) -> None:
        """Resubmit within budget, else resolve the job terminally."""
        policy = self.retry_policy
        if (job.deadline_s is not None
                and job.stats.elapsed_seconds > job.deadline_s):
            self._fail_job(job, DeadlineExceeded(
                f"job {job.sequence}: modelled "
                f"{job.stats.elapsed_seconds * 1e6:.1f} us exceeds "
                f"deadline {job.deadline_s * 1e6:.1f} us",
                elapsed_s=job.stats.elapsed_seconds,
                deadline_s=job.deadline_s))
            finished.append(job)
            return
        if job.stats.submissions >= policy.max_attempts:
            self._resolve_software(job)
            finished.append(job)
            return
        try:
            accepted = self._paste_with_backoff(job)
        except DeadlineExceeded as exc:
            self._fail_job(job, exc)
            finished.append(job)
            return
        if not accepted:
            self._resolve_software(job)
            finished.append(job)

    def _fail_job(self, job: PendingJob, error: Exception) -> None:
        self._release(job.crb)
        job.error = error
        job.done = True
        self._pending.pop(job.sequence, None)

    def _resolve_software(self, job: PendingJob) -> None:
        """Retry budget spent: finish the job on the calling core."""
        try:
            output, sw_seconds = self._fallback(job.crb)
        except ReproError as exc:
            # The input is bad enough that software can't finish either.
            self._fail_job(job, exc)
            return
        self._release(job.crb)
        job.stats.fallback_to_software = True
        job.stats.elapsed_seconds += sw_seconds
        job.result = DriverResult(output=output, csb=None, stats=job.stats)
        job.done = True
        self._pending.pop(job.sequence, None)
        _TRACE.event("fallback.software", sequence=job.sequence)

    def wait_all(self, max_polls: int = 1000) -> list[PendingJob]:
        """Poll until every submitted job has resolved.

        If the poll budget runs out (a hung engine with no recovery),
        the raised :class:`JobError` carries ``partial`` (jobs resolved
        so far) and ``stuck`` (sequences still pending) so the caller
        can salvage completed work and :meth:`cancel_pending` the rest.
        """
        self._init_async()
        done: list[PendingJob] = []
        for _ in range(max_polls):
            done.extend(self.poll())
            if not self._pending:
                return done
        error = JobError(f"{len(self._pending)} jobs still pending "
                         "after poll budget")
        error.partial = list(done)
        error.stuck = sorted(self._pending)
        raise error

    def cancel_pending(self) -> list[PendingJob]:
        """Abandon every in-flight job and reclaim its window credit.

        Queued-but-unpopped CRBs are flushed from the receive FIFOs,
        hung jobs are recovered (engine reset), and each pending job is
        marked failed with a cancellation :class:`JobError`.  After
        this the window's credits are whole again (minus any chaos-
        leaked ones, which only ``close`` reclaims) and the driver can
        submit fresh work.
        """
        self._init_async()
        if self._window_id is not None:
            self.accelerator.vas.flush_window(self._window_id)
            self.accelerator.recover_hung()
        cancelled: list[PendingJob] = []
        for sequence in sorted(self._pending):
            job = self._pending[sequence]
            self._fail_job(job, JobError(f"job {sequence} cancelled"))
            cancelled.append(job)
        return cancelled

    @property
    def in_flight(self) -> int:
        self._init_async()
        return len(self._pending)

    def run(self, op: Op, data: bytes, strategy: str = "auto",
            fmt: str = "raw", history: bytes = b"",
            final: bool = True,
            deadline_s: float | None = None) -> DriverResult:
        """Synchronous run; refuses to interleave with pending async jobs
        (its drain would swallow their completions)."""
        self._init_async()
        if self._pending:
            raise JobError("synchronous run with async jobs in flight; "
                           "wait_all() first")
        return super().run(op, data, strategy=strategy, fmt=fmt,
                           history=history, final=final,
                           deadline_s=deadline_s)

