"""Resilience layer: fault injection, retries, breakers, verification.

Four pieces, wired through the whole VAS → CRB → engine → CSB path:

* :mod:`.faults` — seeded deterministic fault injection (hangs,
  slowdowns, corruption, spurious CCs, translation storms, credit
  leaks, chip death) via ``chaos`` hook points in the model;
* :mod:`.policy` — bounded retries, deterministic backoff, deadlines;
* :mod:`.health` — per-chip circuit breakers + health scores for the
  :class:`~repro.backend.pool.AcceleratorPool`;
* :mod:`.verify` — verify-after-compress with software repair;
* :mod:`.netfaults` — seeded wire fault injection (resets, truncation,
  slow-loris, latency spikes, duplicated/stale frames) installable on
  client and server sockets;
* :mod:`.chaos` — seeded survival campaigns over all of the above.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .chaos import (CampaignReport, NetworkCampaignReport,
                        NetworkScenarioResult, ScenarioResult,
                        default_network_plans, default_plans, run_campaign,
                        run_network_campaign, run_network_scenario,
                        run_scenario)
    from .faults import FAULT_KINDS, FaultInjector, FaultPlan
    from .health import (BreakerState, CircuitBreaker, HealthConfig,
                         HealthTracker)
    from .netfaults import (NET_FAULT_KINDS, FaultySocket, NetFaultInjector,
                            NetFaultPlan, fault_factory)
    from .policy import RetryPolicy, check_deadline
    from .verify import (decode_payload, note_mismatch, run_in_software,
                         software_compress, verify_payload)

__all__ = lazy_exports(__name__, {
    "chaos": "CampaignReport NetworkCampaignReport NetworkScenarioResult "
             "ScenarioResult default_network_plans default_plans "
             "run_campaign run_network_campaign run_network_scenario "
             "run_scenario",
    "faults": "FAULT_KINDS FaultInjector FaultPlan",
    "health": "BreakerState CircuitBreaker HealthConfig HealthTracker",
    "netfaults": "NET_FAULT_KINDS FaultySocket NetFaultInjector "
                 "NetFaultPlan fault_factory",
    "policy": "RetryPolicy check_deadline",
    "verify": "decode_payload note_mismatch run_in_software "
              "software_compress verify_payload",
})
