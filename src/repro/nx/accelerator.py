"""Chip-level accelerator: VAS receive side + engines.

One :class:`NxAccelerator` owns the switchboard receive FIFO and a small
number of engines (the POWER9 NX has separate compress and decompress
pipes that operate concurrently).  ``drain`` processes pasted requests in
FIFO order, which is also the service discipline the queueing experiments
assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..sysstack.crb import CcCode, Crb, Op
from ..sysstack.mmu import AddressSpace
from ..sysstack.vas import PasteRecord, Vas
from .engine import JobOutcome, NxEngine
from .params import MachineParams


@dataclass
class CompletedJob:
    """A drained job: who submitted it, the request, and how it ended.

    A stream the engine refuses (a data error in *this* job's input)
    ends with ``error`` set and no ``outcome``.
    """

    window_id: int
    outcome: JobOutcome | None
    crb: Crb | None = None
    error: ReproError | None = None


@dataclass
class NxAccelerator:
    """One on-chip accelerator instance: VAS + compress/decompress pipes."""

    machine: MachineParams
    vas: Vas = field(default_factory=Vas, init=False)
    #: Optional resilience fault-injection hook
    #: (:class:`repro.resilience.faults.FaultInjector`).
    chaos: object | None = None

    def __post_init__(self) -> None:
        self.compress_engine = NxEngine(self.machine)
        self.decompress_engine = NxEngine(self.machine)
        self.e842_engine = NxEngine(self.machine)  # the 842 pipes
        #: Requests a hung engine swallowed (credits still held).
        self.hung: list[PasteRecord] = []

    def engine_for(self, crb: Crb) -> NxEngine:
        if crb.function.op in (Op.COMPRESS_842, Op.DECOMPRESS_842):
            return self.e842_engine
        if crb.function.op is Op.COMPRESS:
            return self.compress_engine
        return self.decompress_engine

    def execute(self, crb: Crb, space: AddressSpace) -> JobOutcome:
        """Execute one request directly (bypassing the paste FIFO)."""
        return self.engine_for(crb).execute(crb, space)

    def drain(self, space: AddressSpace) -> list[CompletedJob]:
        """Process every pasted request in FIFO order.

        With a resilience :attr:`chaos` injector installed, each popped
        request first consults it: a *hang* swallows the request (the
        credit stays held until :meth:`recover_hung`), a *dead* chip
        answers every job with an engine-check CC, and a *translation
        storm* fabricates source-side faults the driver must fix up.

        One job's bad input never raises out of the drain: the window is
        shared, and the completions drained beside it belong to others.
        """
        completed: list[CompletedJob] = []
        chaos = self.chaos
        while True:
            record = self.vas.pop_request()
            if record is None:
                break
            crb = record.crb()
            # Indirect DDE entry arrays live in memory: hydrate them.
            self._hydrate(crb, space)
            action = chaos.on_job_start(crb) if chaos is not None else None
            if action == "hang":
                self.hung.append(record)
                continue
            outcome = error = None
            try:
                if action == "dead":
                    outcome = self._fabricate(crb, space, CcCode.FUNCTION)
                elif action == "translation":
                    outcome = self._fabricate(
                        crb, space, CcCode.TRANSLATION,
                        fault_address=crb.source.address)
                else:
                    outcome = self.execute(crb, space)
                    if chaos is not None:
                        chaos.on_outcome(crb, outcome, space)
            except ReproError as exc:
                error = exc
            finally:
                # The job is over either way, so its credit comes back.
                self.vas.return_credit(record.window_id)
            completed.append(CompletedJob(window_id=record.window_id,
                                          outcome=outcome, crb=crb,
                                          error=error))
        return completed

    def recover_hung(self) -> list[PasteRecord]:
        """Model an engine reset: release hung jobs' credits.

        The driver calls this when a submitted job never produced a
        completion — the RAS path on real hardware (kill the engine,
        reclaim its credits, resubmit or fall back).  The swallowed
        requests are returned for accounting; they are *not* re-run.
        """
        recovered = self.hung
        self.hung = []
        for record in recovered:
            self.vas.reclaim_credit(record.window_id)
        return recovered

    def _fabricate(self, crb: Crb, space: AddressSpace, cc: CcCode,
                   fault_address: int = 0) -> JobOutcome:
        """A chaos-injected abnormal completion (engine never ran)."""
        return self.engine_for(crb).abort(crb, space, cc, fault_address)

    def _hydrate(self, crb: Crb, space: AddressSpace) -> None:
        from ..sysstack.dde import DDE_BYTES, Dde

        for dde in (crb.source, crb.target):
            if dde.indirect and not dde.entries:
                count = getattr(dde, "_entry_count", 0)
                raw = space.read(dde.address, count * DDE_BYTES)
                dde.entries = Dde.unpack_entries(raw, count)
