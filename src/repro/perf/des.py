"""A minimal discrete-event simulation kernel.

Deliberately tiny: a time-ordered event heap with deterministic
tie-breaking.  The queueing model builds client/server processes on
top of plain callbacks; no coroutines, no global state.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class Simulator:
    """Event loop with schedule/run semantics."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` at ``now + delay``; ties run in schedule order."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._seq), action))

    def run(self, until: float | None = None) -> None:
        """Process events until the heap is empty or ``until`` is reached."""
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            self.now, _seq, action = heapq.heappop(self._heap)
            action()
        if until is not None:
            self.now = max(self.now, until)
