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
* :mod:`.chaos` — seeded survival campaigns over all of the above
  (imported lazily: it pulls in the backend pool).
"""

from .faults import FAULT_KINDS, FaultInjector, FaultPlan
from .health import (BreakerState, CircuitBreaker, HealthConfig,
                     HealthTracker)
from .netfaults import (NET_FAULT_KINDS, FaultySocket, NetFaultInjector,
                        NetFaultPlan, fault_factory)
from .policy import RetryPolicy, check_deadline
from .verify import (decode_payload, note_mismatch, run_in_software,
                     software_compress, verify_payload)

__all__ = [
    "FAULT_KINDS", "FaultInjector", "FaultPlan",
    "NET_FAULT_KINDS", "NetFaultInjector", "NetFaultPlan",
    "FaultySocket", "fault_factory",
    "BreakerState", "CircuitBreaker", "HealthConfig", "HealthTracker",
    "RetryPolicy", "check_deadline",
    "decode_payload", "note_mismatch", "run_in_software",
    "software_compress", "verify_payload",
    "CampaignReport", "ScenarioResult", "default_plans", "run_campaign",
    "run_scenario",
    "NetworkCampaignReport", "NetworkScenarioResult",
    "default_network_plans", "run_network_campaign",
    "run_network_scenario",
]

_CHAOS_NAMES = {"CampaignReport", "ScenarioResult", "default_plans",
                "run_campaign", "run_scenario",
                "NetworkCampaignReport", "NetworkScenarioResult",
                "default_network_plans", "run_network_campaign",
                "run_network_scenario"}


def __getattr__(name: str):
    # chaos imports the backend pool, which imports this package — load
    # it on first use instead of at package import.
    if name in _CHAOS_NAMES:
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
