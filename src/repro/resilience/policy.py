"""Bounded retries, deterministic backoff, and per-job deadlines.

The seed repository retried forever in two places: the VAS paste loop
span until a credit freed (never, under an injected credit leak) and the
driver's ad-hoc ``max_retries`` counting.  :class:`RetryPolicy` replaces
both with one declarative budget — bounded attempts, exponential backoff
with *deterministic* jitter (the model must replay byte- and
cycle-exactly), and an optional per-job deadline
expressed in modelled seconds.

Deadline semantics: a deadline bounds *waiting* — paste retries, fault
fixups, resubmissions — not useful work already done.  A job that
completes successfully is returned even if it finished over budget; a
job that is still retrying past its deadline raises
:class:`~repro.errors.DeadlineExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeadlineExceeded

#: Attempts the production library makes before giving up (libnxz takes
#: the same last-resort software path).  Mirrors the driver's historic
#: ``DEFAULT_MAX_RETRIES = 8`` (8 retries = 9 attempts).
DEFAULT_MAX_ATTEMPTS = 9

#: Paste (credit) retries before declaring the window wedged.  Healthy
#: backpressure clears in a handful of drains; only a leak gets here.
DEFAULT_MAX_PASTE_RETRIES = 4096

#: Backoff before the first retry, its growth per retry, its cap, and
#: the +- share of it the jitter spans.
BASE_BACKOFF_S = 0.5e-6
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_S = 64e-6
JITTER_FRACTION = 0.25


def _mix(*parts: int) -> int:
    """Cheap deterministic integer mix (splitmix64 finalizer)."""
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = (acc ^ (part & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9
        acc &= 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 27
    acc = (acc * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return acc ^ (acc >> 31)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to back off between tries.

    ``backoff_s`` grows exponentially per retry and carries a
    deterministic jitter derived from ``(attempt, token)`` — two runs
    replay the exact same modelled timeline, which the chaos regression
    suite relies on.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    max_paste_retries: int = DEFAULT_MAX_PASTE_RETRIES

    @classmethod
    def from_max_retries(cls, max_retries: int) -> "RetryPolicy":
        """Adapter for the driver's historic ``max_retries`` knob."""
        return cls(max_attempts=max_retries + 1)

    def allows(self, attempt: int) -> bool:
        """May a 0-indexed ``attempt`` still run?"""
        return attempt < self.max_attempts

    def backoff_s(self, retry: int, token: int = 0) -> float:
        """Deterministically jittered backoff before retry ``retry``."""
        # Clamp the exponent: deep paste-retry counts would overflow the
        # float power long after the cap has taken over anyway.
        base = min(BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** min(retry, 64),
                   MAX_BACKOFF_S)
        # The leading 0 is part of the backoff stream the goldens pin.
        unit = _mix(0, retry, token) / 2.0 ** 64  # [0, 1)
        return base * (1.0 + JITTER_FRACTION * (2.0 * unit - 1.0))


def check_deadline(elapsed_s: float, deadline_s: float | None,
                   where: str) -> None:
    """Raise :class:`DeadlineExceeded` once modelled time passes budget."""
    if deadline_s is not None and elapsed_s > deadline_s:
        raise DeadlineExceeded(
            f"{where}: modelled {elapsed_s * 1e6:.1f} us exceeds "
            f"deadline {deadline_s * 1e6:.1f} us",
            elapsed_s=elapsed_s, deadline_s=deadline_s)
