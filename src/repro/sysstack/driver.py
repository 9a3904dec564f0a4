"""User-mode library + kernel driver behaviour for the accelerator.

This is the software half of the documented submission protocol:

1. allocate source/target buffers and a CSB in the process address space;
2. build a CRB and ``paste`` it to the process's VAS send window,
   backing off when the window is out of credits;
3. poll the CSB; on ``CC=TRANSLATION`` touch the faulting page and
   resubmit; on ``CC=TARGET_SPACE`` keep what the target holds and
   resubmit the rest of a decode, from the engine's state with its
   window as the history DDE, into a fresh target (up to its bound);
4. after a bounded number of retries, fall back to software zlib —
   the same last-resort path the production library (libnxz) takes;
5. read the output, then free the request's buffers — on every exit.

The POWER9 interface is asynchronous, so the protocol exists once, as
:meth:`NxDriver.submit` (stage, paste) and :meth:`NxDriver.poll` (drain,
handle each completion); the synchronous :meth:`NxDriver.run` is
submit-then-wait over the same lines.

Every wait in the protocol is bounded by a
:class:`~repro.resilience.policy.RetryPolicy`: the paste loop gives up
on a wedged window (e.g. a leaked-credit storm) instead of spinning,
resubmissions stop after ``max_attempts``, and an optional per-job
deadline in modelled seconds ends the job with
:class:`~repro.errors.DeadlineExceeded` once it spends its budget
waiting.  A submission that never completes at all (a hung engine) is
recovered on the next poll via
:meth:`~repro.nx.accelerator.NxAccelerator.recover_hung`, and retried.

Completion codes split into three classes (see ``docs/protocol.md``):
*handled* (``TRANSLATION``, ``TARGET_SPACE`` — fix up and resubmit),
*permanent* (``INVALID_CRB``, ``DATA_LENGTH`` — the request itself is
wrong; fail immediately, no retry), and *spurious* (anything else — a
misbehaving engine; retry, then fall back to software).  A *data error*
(the engine decoded the stream and found it corrupt) is permanent too,
and like a permanent CC it ends that one job, never the drain.

Timing is accounted in modelled seconds so experiments can report
end-to-end latencies including fault fixups and retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..deflate.containers import decompress_target_len, next_target_len
from ..errors import (NO_BOUND, DeadlineExceeded, JobError, OutputOverflow,
                      ReproError)
from ..nx.dht import BUILTIN, CannedLibrary
from ..obs.trace import TRACE as _TRACE
from ..resilience.policy import RetryPolicy, check_deadline
from ..resilience.verify import run_in_software
from ..sysstack.crb import (CRB_FLAG_CONTINUED, CSB_BYTES, CcCode, Crb,
                            Csb, FunctionCode, Op)
from ..sysstack.dde import Dde
from ..sysstack.mmu import AddressSpace

if TYPE_CHECKING:  # avoid a cycle: nx.accelerator imports sysstack.crb
    from ..nx.accelerator import CompletedJob, NxAccelerator

PAGE_TOUCH_SECONDS = 4e-6       # minor fault service in the OS
CSB_POLL_SECONDS = 0.2e-6       # one poll iteration
DEFAULT_MAX_RETRIES = 8
COMPRESS_TARGET_FACTOR = 1.3    # worst-case expansion plus framing slack

#: The request itself is malformed — retrying cannot help.
PERMANENT_CCS = (CcCode.INVALID_CRB, CcCode.DATA_LENGTH)

# ``RetryPolicy.backoff_s`` jitter tokens of the two engine-side waits
# (a paste backoff is keyed by the attempt it belongs to).
_HANG_TOKEN = 1
_SPURIOUS_TOKEN = 2


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


@dataclass
class PendingJob:
    """One submitted request, in flight or resolved."""

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
    #: Output of the requests a decode went on from (``CC=TARGET_SPACE``).
    kept: list[bytes] = field(default_factory=list, init=False)
    left: int = NO_BOUND  # the output bytes its bound has left

    @property
    def failed(self) -> bool:
        return self.error is not None


def first_target_len(op: Op, data: bytes, fmt: str) -> int:
    """Size of a request's first target buffer.

    Compression output is bounded by its input; decompression asks the
    payload (:func:`~repro.deflate.containers.decompress_target_len`).
    Either way ``CC=TARGET_SPACE`` backs a wrong first size: a decode
    continues into a fresh target, anything else starts over in one
    twice the size.
    """
    if op in (Op.COMPRESS, Op.COMPRESS_842):
        return max(4096, int(len(data) * COMPRESS_TARGET_FACTOR) + 1024)
    return decompress_target_len(data, fmt)


@dataclass
class NxDriver:
    """Ties a process address space to one chip's accelerator.

    A thread keeps several jobs in flight on one window (bounded by its
    credits) and overlaps its own work with the engine: ``submit``
    pastes one request; ``poll`` drains the accelerator, finishes
    successful jobs, and transparently re-pastes jobs that faulted,
    overflowed or were swallowed by a hung engine.

    Failure containment: a job's own failure — a *permanent* CC, a data
    error, a blown deadline — is recorded on its :attr:`PendingJob.error`
    and draining continues, so one bad job never abandons the other
    in-flight requests.  Retries are bounded per job by the
    :class:`RetryPolicy`; exhaustion resolves the job in software.
    """

    accelerator: "NxAccelerator"
    space: AddressSpace
    max_retries: int = DEFAULT_MAX_RETRIES
    retry_policy: RetryPolicy | None = None
    deadline_s: float | None = None
    _window_id: int | None = field(default=None, init=False)
    _pending: dict[int, PendingJob] = field(default_factory=dict,
                                            init=False)
    _next_sequence: int = field(default=0, init=False)
    #: Jobs resolved since the last ``poll`` — wherever that happened
    #: (a drain nested in a paste-retry loop, ``submit`` itself) — so
    #: no completion is ever silently dropped.
    _resolved: list[PendingJob] = field(default_factory=list, init=False)

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
        window = self.accelerator.vas.open_window(credits=credits)
        self._window_id = window.window_id

    def close(self) -> None:
        """Close the send window; safe to call repeatedly."""
        if self._window_id is not None:
            self.accelerator.vas.close_window(self._window_id)
            self._window_id = None

    @property
    def credits(self) -> int:
        """The open send window's credit allocation (0 when closed)."""
        if self._window_id is None:
            return 0
        return self.accelerator.vas.windows[self._window_id].credits

    @property
    def in_flight(self) -> int:
        return len(self._pending)

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
               history: bytes, final: bool, sequence: int,
               library: CannedLibrary, bound: int) -> Crb:
        """Buffers and CRB of one request.

        The function code is encoded first: a request the engine would
        refuse raises here, before a buffer is mapped or the job filed.
        """
        function = FunctionCode(op=op, strategy=strategy, fmt=fmt)
        function.encode()
        source, target, csb_va = self.prepare_buffers(
            data, min(first_target_len(op, data, fmt), bound))
        return Crb(function=function, source=source, target=target,
                   csb_address=csb_va, sequence=sequence,
                   flags=0 if final else CRB_FLAG_CONTINUED,
                   history_dde=self._place(history), library=library)

    def _place(self, history: bytes) -> Dde | None:
        """A history buffer holding ``history`` (None when empty)."""
        if not history:
            return None
        va = self.space.alloc(len(history))
        self.space.write(va, history)
        return Dde.direct(va, len(history))

    def _continue(self, job: PendingJob, csb: Csb, result) -> None:
        """``CC=TARGET_SPACE``: keep what the target holds, and resubmit
        the rest of a decode from the engine's state — its window the
        new history — into a fresh target (a job with no such state
        starts over)."""
        crb = job.crb
        point, overrun = getattr(result, "resume", None), None
        if point is not None:
            job.kept.append(self.space.read(crb.target.address,
                                            csb.target_written))
            job.left -= csb.target_written
            if crb.history_dde is not None:
                self.space.free(crb.history_dde.address,
                                crb.history_dde.length)
            crb.history_dde = self._place(point.window)
            crb.resume, overrun = point, result.stats.overrun
        new_len = next_target_len(crb.target.length, point, overrun,
                                  crb.source.length, job.left)
        self.space.free(crb.target.address, crb.target.length)
        crb.target = Dde.direct(self.space.alloc(new_len), new_len)

    def _resolve(self, job: PendingJob, result: DriverResult | None = None,
                 error: Exception | None = None) -> None:
        """End a job, whichever way: free its buffers (its output is
        read by now) and put how it ended on the handle.

        Addresses are never reused, so a CRB that outlived its request
        faults instead of scribbling on a later one.
        """
        crb = job.crb
        for dde in (crb.source, crb.target, crb.history_dde):
            if dde is not None:
                self.space.free(dde.address, dde.length)
        self.space.free(crb.csb_address, CSB_BYTES)
        job.result, job.error, job.done = result, error, True
        self._pending.pop(job.sequence, None)
        self._resolved.append(job)

    # -- submit, poll, and the synchronous call over them --------------------

    def run(self, op: Op, data: bytes, strategy: str = "auto",
            fmt: str = "raw", history: bytes = b"",
            final: bool = True,
            deadline_s: float | None = None,
            library: CannedLibrary = BUILTIN,
            max_output: int = NO_BOUND) -> DriverResult:
        """Execute one compress/decompress request end to end.

        ``history`` seeds the engine's match window (or the inflate
        window for raw decompression); ``final=False`` marks a
        continuation request whose output concatenates with later ones.
        ``deadline_s`` bounds the job's *modelled* time spent waiting —
        past it, retries stop and :class:`DeadlineExceeded` is raised.
        ``library`` is the canned tables the CRB's parameter block names.
        Output past ``max_output`` is an :class:`OutputOverflow`.
        Refuses to interleave with jobs in flight: waiting for this one
        would take their completions off the caller's next ``poll``.
        """
        if self._pending:
            raise JobError("synchronous run with async jobs in flight; "
                           "wait_all() first")
        job = self.submit(op, data, strategy=strategy, fmt=fmt,
                          history=history, final=final,
                          deadline_s=deadline_s, library=library,
                          max_output=max_output)
        self.wait_all()
        if job.error is not None:
            raise job.error
        return job.result

    def submit(self, op: Op, data: bytes, strategy: str = "auto",
               fmt: str = "raw", history: bytes = b"",
               final: bool = True,
               deadline_s: float | None = None,
               library: CannedLibrary = BUILTIN,
               max_output: int = NO_BOUND) -> PendingJob:
        """Paste one request; returns a handle to poll on.

        The keywords mean what they do for :meth:`run`.  The paste
        itself may resolve the job (software on a wedged window, a
        deadline spent backing off): check :attr:`PendingJob.done`.
        """
        if self._window_id is None:
            self.open()
        crb = self._stage(op, data, strategy, fmt, history, final,
                          self._next_sequence, library, max_output)
        job = PendingJob(sequence=self._next_sequence, op=op, crb=crb,
                         stats=SubmissionStats(), data_len=len(data),
                         deadline_s=(deadline_s if deadline_s is not None
                                     else self.deadline_s),
                         left=max_output)
        self._next_sequence += 1
        self._pending[job.sequence] = job
        self._attempt(job)
        return job

    def poll(self) -> list[PendingJob]:
        """Drain the engine; returns jobs that resolved since last poll.

        Resolved means completed, failed (:attr:`PendingJob.error`),
        or fallen back to software — every returned job is ``done``.
        """
        self._drain()
        resolved, self._resolved = self._resolved, []
        return resolved

    def wait_all(self, max_polls: int = 1000) -> list[PendingJob]:
        """Poll until every submitted job has resolved.

        If the poll budget runs out (a hung engine with no recovery),
        the raised :class:`JobError` carries ``partial`` (jobs resolved
        so far) and ``stuck`` (sequences still pending) so the caller
        can salvage completed work and :meth:`cancel_pending` the rest.
        """
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
        if self._window_id is not None:
            self.accelerator.vas.flush_window(self._window_id)
            self.accelerator.recover_hung()
        cancelled = [self._pending[sequence]
                     for sequence in sorted(self._pending)]
        for job in cancelled:
            self._resolve(job, error=JobError(
                f"job {job.sequence} cancelled"))
        return cancelled

    # -- the state machine behind them ---------------------------------------

    def _drain(self) -> None:
        """Hand every completion the engine has to :meth:`_complete`,
        then reset the engine if it swallowed any job.

        The recovery is exact in the model: each swallowed paste's CRB
        sequence names its job, which is charged a backoff and retried.
        """
        for completed in self.accelerator.drain(self.space):
            job = self._pending.get(
                completed.crb.sequence if completed.crb else -1)
            if job is not None:
                self._complete(job, completed)
        for record in self.accelerator.recover_hung():
            job = self._pending.get(record.crb().sequence)
            if job is None:
                continue
            attempt = job.stats.submissions - 1
            job.stats.engine_hangs += 1
            _TRACE.event("fault.hang", sequence=job.sequence,
                         attempt=attempt)
            job.stats.elapsed_seconds += self.retry_policy.backoff_s(
                attempt, token=_HANG_TOKEN)
            self._attempt(job)

    def _complete(self, job: PendingJob, completed: "CompletedJob") -> None:
        """One completion through the table of ``docs/protocol.md``."""
        if completed.error is not None:
            # A data error in this job's stream fails this job only;
            # the rest of the drain belongs to its neighbours.
            self._resolve(job, error=completed.error)
            return
        outcome, stats, crb = completed.outcome, job.stats, job.crb
        # Three additions, in this order: the goldens pin the sum to
        # the last float bit, and folding them rounds differently.
        stats.elapsed_seconds += outcome.busy_seconds
        stats.elapsed_seconds += CSB_POLL_SECONDS
        stats.elapsed_seconds += (
            self.accelerator.machine.completion_overhead_us * 1e-6)
        csb = outcome.csb
        if self.accelerator.chaos is not None:
            self.accelerator.chaos.on_csb(csb)
        attempt = stats.submissions - 1
        with _TRACE.span("csb.complete", sequence=job.sequence,
                         attempt=attempt, cc=csb.cc.name) as span:
            if csb.cc is CcCode.SUCCESS:
                output = self.space.read(crb.target.address,
                                         csb.target_written)
                if job.kept:
                    output = b"".join(job.kept + [output])
                self._resolve(job, DriverResult(
                    output=output, csb=csb, stats=stats,
                    engine_result=outcome.result))
                return
            if csb.cc in PERMANENT_CCS:
                # Contain the failure to this job: the other in-flight
                # jobs (and their window credits, already returned by
                # the drain) are unaffected.  The engine refused the
                # request, so no breaker is charged and nothing rescued.
                self._resolve(job, error=JobError(
                    f"unexpected CC {csb.cc!r}", cc=int(csb.cc),
                    failure="refused"))
                return
            if csb.cc is CcCode.TRANSLATION:
                stats.translation_faults += 1
                span.event("fault.translation", address=csb.fault_address)
                self.space.touch(csb.fault_address)
                stats.elapsed_seconds += PAGE_TOUCH_SECONDS
            elif csb.cc is CcCode.TARGET_SPACE:
                stats.target_overflows += 1
                span.event("overflow.target", length=crb.target.length)
                if crb.target.length >= job.left:
                    # A target at the bound filled: refused, not retried.
                    self._resolve(job, error=OutputOverflow(
                        "output exceeds allowed size"))
                    return
                self._continue(job, csb, outcome.result)
            else:
                # A spurious non-success CC: the engine is misbehaving,
                # not the request.  Back off, retry, and let the budget
                # decide.
                stats.spurious_ccs += 1
                span.event("fault.spurious_cc", cc=csb.cc.name)
                stats.elapsed_seconds += self.retry_policy.backoff_s(
                    attempt, token=_SPURIOUS_TOKEN)
            span.event("resubmit", attempt=attempt + 1)
        self._attempt(job)

    def _attempt(self, job: PendingJob) -> None:
        """Paste a job's next attempt — its first included — if deadline
        and attempt budget allow; else resolve it terminally.

        A continuation after a full target is progress, not a retry: it
        spends none of the budget, and the doubling targets keep their
        count at log2 of the output over the first target."""
        stats = job.stats
        try:
            check_deadline(stats.elapsed_seconds, job.deadline_s,
                           f"job {job.sequence}")
            if not (self.retry_policy.allows(stats.submissions
                                             - stats.target_overflows)
                    and self._paste(job)):
                # Budget spent or window wedged (credit leak): the
                # production library runs zlib on the calling core.
                self._resolve_software(job)
        except DeadlineExceeded as exc:
            self._resolve(job, error=exc)

    def _paste(self, job: PendingJob) -> bool:
        """Paste one CRB, draining the engine between rejected tries.

        Returns False when :attr:`retry_policy` declares the window
        wedged (credits never free) — the caller falls back to software
        instead of spinning forever.
        """
        machine, policy, stats = (self.accelerator.machine,
                                  self.retry_policy, job.stats)
        attempt = stats.submissions
        stats.submissions += 1
        stats.elapsed_seconds += machine.submit_overhead_us * 1e-6
        with _TRACE.span("vas.paste", sequence=job.sequence,
                         attempt=attempt, window=self._window_id) as span:
            retries = 0
            while not self.accelerator.vas.paste(self._window_id, job.crb):
                stats.paste_rejections += 1
                retries += 1
                if retries > policy.max_paste_retries:
                    break
                stats.elapsed_seconds += policy.backoff_s(retries,
                                                          token=attempt)
                check_deadline(stats.elapsed_seconds, job.deadline_s,
                               "vas.paste")
                # Free credits by letting the engine catch up; anything
                # that resolves here is handed back by the next poll().
                self._drain()
            accepted = retries <= policy.max_paste_retries
            span.set(rejections=retries, accepted=accepted)
        if accepted:
            stats.elapsed_seconds += machine.dispatch_overhead_us * 1e-6
        return accepted

    def _resolve_software(self, job: PendingJob) -> None:
        """Finish a job on the calling core, from its own buffers.

        The output is wire-compatible with what the engine would have
        produced — same ``fmt`` framing, same window, same final bit —
        so callers (and verify-after-compress) cannot tell a fallback
        from a hardware completion by its bytes.
        """
        crb = job.crb
        data = self.space.read(crb.source.address, crb.source.length)
        history = (self.space.read(crb.history_dde.address,
                                   crb.history_dde.length)
                   if crb.history_dde is not None else b"")
        op = crb.function.op
        kind = ("compress" if op in (Op.COMPRESS, Op.COMPRESS_842)
                else "decompress")
        fmt = ("842" if op in (Op.COMPRESS_842, Op.DECOMPRESS_842)
               else crb.function.fmt)
        _TRACE.event("fallback.software", sequence=job.sequence,
                     retries=job.stats.submissions)
        try:
            output, sw_seconds = run_in_software(
                kind, data, fmt, history=history, final=crb.is_final,
                machine=self.accelerator.machine, resume=crb.resume,
                max_output=job.left)
        except ReproError as exc:
            # The input is bad enough that software can't finish either.
            self._resolve(job, error=exc)
            return
        job.stats.fallback_to_software = True
        job.stats.elapsed_seconds += sw_seconds
        self._resolve(job, DriverResult(
            output=b"".join(job.kept + [output]), csb=None,
            stats=job.stats))


#: ``benchmarks/stack/ladder.py`` imports the driver under this name.
AsyncNxDriver = NxDriver
