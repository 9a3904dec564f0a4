"""Virtual Accelerator Switchboard (VAS) model.

On POWER9, user threads obtain a *send window* on the accelerator and
submit jobs by building a CRB in memory and executing ``copy``/``paste``
to the window's paste address.  The switchboard routes the 128-byte CRB
into the accelerator's receive FIFO.  Windows carry *credits*: a paste
with no free credit fails (the busy bit returns set) and the thread must
back off — this is the documented flow-control mechanism that keeps a
shared accelerator safe to expose to unprivileged code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..backend.routing import arbitrate
from ..deflate.containers import SeekPoint
from ..errors import VasError
from ..nx.dht import CannedLibrary
from ..obs.metrics import REGISTRY as _REGISTRY
from .crb import CRB_BYTES, Crb

#: Depth of each receive FIFO, in CRBs.
RX_FIFO_DEPTH = 64
#: Credits of a window opened without an explicit allocation.
DEFAULT_CREDITS = 16
#: Consecutive high-priority grants before a normal request is served.
STARVATION_BOUND = 8


@dataclass
class PasteRecord:
    """One accepted paste: the raw CRB, its originating window, and its
    parameter block (the canned library, a continued decode's state)."""

    window_id: int
    raw_crb: bytes
    library: CannedLibrary
    resume: SeekPoint | None = None

    def crb(self) -> Crb:
        return Crb.unpack(self.raw_crb, self.library, self.resume)


@dataclass
class SendWindow:
    """A user-mode send window with a fixed credit allocation."""

    window_id: int
    credits: int
    priority: str = "normal"  # "high" routes to the priority RX FIFO
    outstanding: int = 0
    pastes_rejected: int = 0
    credits_leaked: int = 0

    @property
    def credits_available(self) -> int:
        return self.credits - self.outstanding


class Vas:
    """Switchboard: windows on one side, two receive FIFOs on the other.

    The accelerator front end implements two receive queues: *high*
    priority for latency-sensitive requests and *normal* for bulk.
    Arbitration is priority-first with an anti-starvation bound — after
    :data:`STARVATION_BOUND` consecutive high-priority grants, one normal
    request is served even if high work is pending.
    """

    def __init__(self) -> None:
        #: Optional resilience fault-injection hook
        #: (:class:`repro.resilience.faults.FaultInjector`).
        self.chaos = None
        self.windows: dict[int, SendWindow] = {}
        self.rx_fifo: deque[PasteRecord] = deque()
        self.rx_fifo_high: deque[PasteRecord] = deque()
        self._consecutive_high = 0
        self._next_window_id = 1

    def open_window(self, credits: int | None = None,
                    priority: str = "normal") -> SendWindow:
        """Allocate a send window (the driver's winopen path)."""
        if priority not in ("normal", "high"):
            raise VasError(f"bad window priority {priority!r}")
        window = SendWindow(window_id=self._next_window_id,
                            credits=credits or DEFAULT_CREDITS,
                            priority=priority)
        self.windows[window.window_id] = window
        self._next_window_id += 1
        return window

    def close_window(self, window_id: int) -> None:
        window = self._window(window_id)
        # Leaked credits are gone until the window is torn down; closing
        # is exactly how the kernel reclaims them, so they don't count
        # as live jobs.
        if window.outstanding - window.credits_leaked > 0:
            raise VasError(
                f"window {window_id} closed with {window.outstanding} "
                "jobs outstanding")
        del self.windows[window_id]

    def paste(self, window_id: int, crb: Crb) -> bool:
        """Attempt one copy/paste submission; False mirrors CR0 busy."""
        window = self._window(window_id)
        raw = crb.pack()
        if len(raw) != CRB_BYTES:
            raise VasError("paste payload must be one cache line pair")
        fifo = (self.rx_fifo_high if window.priority == "high"
                else self.rx_fifo)
        if window.credits_available <= 0 or len(fifo) >= RX_FIFO_DEPTH:
            window.pastes_rejected += 1
            _REGISTRY.counter(
                "repro_vas_paste_rejections_total",
                "credit/FIFO-rejected pastes (CR0 busy)").inc(
                1, priority=window.priority)
            return False
        window.outstanding += 1
        fifo.append(PasteRecord(window_id=window_id, raw_crb=raw,
                                library=crb.library, resume=crb.resume))
        _REGISTRY.counter("repro_vas_pastes_total",
                          "accepted CRB pastes").inc(
            1, priority=window.priority)
        _REGISTRY.gauge("repro_vas_rx_fifo_depth",
                        "pending CRBs in the receive FIFOs").set(
            len(self.rx_fifo) + len(self.rx_fifo_high))
        return True

    def pop_request(self) -> PasteRecord | None:
        """Accelerator side: dequeue per the priority arbitration."""
        take_high, self._consecutive_high = arbitrate(
            bool(self.rx_fifo_high), bool(self.rx_fifo),
            self._consecutive_high, STARVATION_BOUND)
        if take_high is None:
            return None
        record = (self.rx_fifo_high if take_high else self.rx_fifo).popleft()
        _REGISTRY.gauge("repro_vas_rx_fifo_depth",
                        "pending CRBs in the receive FIFOs").set(
            len(self.rx_fifo) + len(self.rx_fifo_high))
        return record

    def return_credit(self, window_id: int) -> None:
        """Job completed: release the window credit.

        The resilience ``chaos`` hook may declare the return *leaked*
        (modelling a buggy driver path or lost interrupt): the credit
        then stays consumed until the window is closed or reclaimed.
        """
        window = self._window(window_id)
        if window.outstanding <= 0:
            raise VasError(f"window {window_id} has no outstanding credit")
        if self.chaos is not None and self.chaos.on_credit_return(window_id):
            window.credits_leaked += 1
            return
        window.outstanding -= 1

    def flush_window(self, window_id: int) -> int:
        """Kernel-mediated cancel: drop the window's queued CRBs.

        Removes every not-yet-popped paste for ``window_id`` from both
        receive FIFOs and hands the credits straight back (bypassing
        the chaos hook — this is the cleanup path, not a completion).
        Returns how many requests were flushed.
        """
        window = self._window(window_id)
        removed = 0
        for fifo in (self.rx_fifo, self.rx_fifo_high):
            kept = [rec for rec in fifo if rec.window_id != window_id]
            removed += len(fifo) - len(kept)
            fifo.clear()
            fifo.extend(kept)
        window.outstanding = max(0, window.outstanding - removed)
        return removed

    def reclaim_credit(self, window_id: int) -> None:
        """Return one credit on the cleanup path (no chaos hook)."""
        window = self._window(window_id)
        if window.outstanding > 0:
            window.outstanding -= 1

    def _window(self, window_id: int) -> SendWindow:
        if window_id not in self.windows:
            raise VasError(f"no such window {window_id}")
        return self.windows[window_id]
