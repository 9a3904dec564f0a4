"""Resilience layer: fault injection, retries, breakers, verification.

Wired through the whole VAS → CRB → engine → CSB path and the wire:

* :mod:`.policy` — bounded retries, deterministic backoff, deadlines;
* :mod:`.health` — per-chip circuit breakers + health scores for the
  :class:`~repro.backend.pool.AcceleratorPool`;
* :mod:`.verify` — verify-after-compress with software repair;
* one fault harness that proves all of the above: :mod:`.faults` holds
  the seeded ``FaultPlan`` and its injectors — chip ``chaos`` hooks
  (hangs, slowdowns, corruption, spurious CCs, translation storms,
  credit leaks, chip death), client and server sockets (resets,
  truncation, slow-loris, latency spikes, duplicated/stale frames) and
  exec-worker kills — and :mod:`.chaos` runs a scenario of plans on a
  pool, a served stack or a TCP stack and judges its survival.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .chaos import (ScenarioResult, default_plans, render, run_campaign,
                        run_scenario)
    from .faults import (FAULT_KINDS, FaultInjector, FaultPlan, FaultySocket,
                         NetFaultInjector, fault_factory)
    from .health import (BreakerState, CircuitBreaker, HealthConfig,
                         HealthTracker)
    from .policy import RetryPolicy, check_deadline
    from .verify import (decode_payload, run_in_software,
                         software_compress, verify_or_reencode,
                         verify_payload)

__all__ = lazy_exports(__name__, {
    "chaos": "ScenarioResult default_plans render run_campaign "
             "run_scenario",
    "faults": "FAULT_KINDS FaultInjector FaultPlan FaultySocket "
              "NetFaultInjector fault_factory",
    "health": "BreakerState CircuitBreaker HealthConfig HealthTracker",
    "policy": "RetryPolicy check_deadline",
    "verify": "decode_payload run_in_software software_compress "
              "verify_or_reencode verify_payload",
})
