"""The routing kernel: which chip's accelerator, and which of its receive
FIFOs, serves a request next?

Pure functions and the policy names, importing nothing of the stack: the
live :class:`~repro.backend.pool.AcceleratorPool`, the VAS model, the
service's QoS dispatch, the queueing model in :mod:`repro.perf.queueing`
and the CLI's ``choices=`` all read them here, so policy studies and
production routing cannot drift apart.
"""

from __future__ import annotations

from ..errors import ConfigError

#: Policies with a queueing analogue (the model runs exactly these).
POLICIES = ("local", "round_robin", "least_loaded")

#: Pool routing policies: adds the software fallback threshold.
ROUTING_POLICIES = (*POLICIES, "size_threshold")


def choose_chip(policy: str, home: int, loads: list[float],
                rr_state: list[int]) -> int:
    """Pick a chip index for one job.

    ``loads`` is one entry per chip (queued or served bytes);
    ``rr_state`` is a one-element mutable rotation cursor.
    """
    chips = len(loads)
    if policy == "local":
        return home
    if policy == "round_robin":
        chip = rr_state[0] % chips
        rr_state[0] = (chip + 1) % chips
        return chip
    if policy == "least_loaded":
        best = home  # prefer local on ties
        for chip in range(chips):
            if loads[chip] < loads[best]:
                best = chip
        return best
    raise ConfigError(f"unknown routing policy {policy!r}; "
                      f"have {POLICIES}")


def arbitrate(high_waiting: bool, normal_waiting: bool, high_run: int,
              starvation_bound: int) -> tuple[bool | None, int]:
    """The VAS grant between the high and the normal receive FIFO.

    High goes first, except that after ``starvation_bound`` consecutive
    high grants with normal work waiting one normal request is served.
    ``high_run`` is the count of consecutive high grants so far.  Returns
    whether the high FIFO is served (``None`` when both are empty) and
    the new count.
    """
    if normal_waiting and (not high_waiting
                           or high_run >= starvation_bound):
        return False, 0
    if high_waiting:
        return True, high_run + 1
    return None, high_run
