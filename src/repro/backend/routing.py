"""The routing kernel: which chip's accelerator serves a request?

One pure function and the policy names, importing nothing of the stack:
the live :class:`~repro.backend.pool.AcceleratorPool`, the queueing DES
in :mod:`repro.perf.routing` and the CLI's ``choices=`` all read them
here, so policy studies and production routing cannot drift apart.
"""

from __future__ import annotations

from ..errors import ConfigError

#: Policies with a queueing analogue (the DES models exactly these).
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
