"""Seeded chaos campaigns: survive every fault plan with correct bytes.

A campaign runs a pool of per-chip backends through a series of
*scenarios*, one per fault kind plus a combined storm, each injecting a
deterministic fault timeline (see :mod:`repro.resilience.faults`).
Every compressed payload is round-trip checked against the reference
software decoder, so the campaign's headline number — ``wrong_bytes`` —
is an end-to-end data-integrity count across the retry, breaker,
rescue, and verify machinery.  With the resilience layer working it is
zero for every scenario, under every seed.

This is the regression harness behind ``repro chaos`` and the CI
``smoke (chaos)`` job.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from ..errors import ChipUnavailable, DeadlineExceeded, ReproError
from ..nx.params import POWER9, MachineParams, get_machine
from .faults import FaultInjector, FaultPlan
from .health import HealthConfig
from .netfaults import NetFaultPlan, fault_factory
from .verify import decode_payload

#: Jobs per scenario unless the caller widens the campaign.
DEFAULT_JOBS = 200

#: A tight breaker so quarantine/recovery happens inside the run.
_TIGHT_BREAKER = HealthConfig(failure_threshold=3, cooldown_routes=8,
                              probe_successes=2)


def default_plans(jobs: int = DEFAULT_JOBS) -> dict[str, list[FaultPlan]]:
    """One scenario per fault kind, plus a combined storm.

    Probabilities are scaled so each scenario fires often enough to
    exercise its machinery in ``jobs`` submissions without drowning the
    pool (the model still has to finish the campaign).
    """
    return {
        "baseline": [],
        "engine_hang": [FaultPlan("engine_hang", probability=0.08)],
        "engine_slow": [FaultPlan("engine_slow", probability=0.10,
                                  magnitude=16.0)],
        "corrupt_output": [FaultPlan("corrupt_output", probability=0.10)],
        "spurious_cc": [FaultPlan("spurious_cc", probability=0.10)],
        "translation_storm": [FaultPlan("translation_storm",
                                        probability=0.05, magnitude=6.0)],
        "credit_leak": [FaultPlan("credit_leak", probability=0.08,
                                  max_fires=8)],
        "chip_death": [FaultPlan("chip_death", at_job=5,
                                 recover_at_job=max(40, jobs // 4))],
        "combined": [
            FaultPlan("engine_hang", probability=0.02),
            FaultPlan("corrupt_output", probability=0.05),
            FaultPlan("spurious_cc", probability=0.05),
            FaultPlan("translation_storm", probability=0.02,
                      magnitude=4.0),
            FaultPlan("credit_leak", probability=0.02, max_fires=4),
        ],
    }


@dataclass
class ScenarioResult:
    """What one fault scenario did to the pool — and what survived."""

    name: str
    jobs: int
    wrong_bytes: int = 0
    shed: int = 0                    # DeadlineExceeded / ChipUnavailable
    rescues: int = 0
    verify_failures: int = 0
    fallbacks: int = 0
    breaker_opens: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    breaker_log: dict[int, list[tuple[str, int]]] = field(
        default_factory=dict)
    modelled_seconds: float = 0.0

    @property
    def survived(self) -> bool:
        return self.wrong_bytes == 0


@dataclass
class CampaignReport:
    """All scenarios of one seeded campaign."""

    seed: int
    chips: int
    scenarios: list[ScenarioResult] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return all(s.survived for s in self.scenarios)

    @property
    def total_faults(self) -> int:
        return sum(sum(s.faults_injected.values()) for s in self.scenarios)

    def render(self) -> str:
        """Human-readable survival report for the CLI."""
        lines = [
            f"chaos campaign  seed={self.seed}  chips={self.chips}",
            f"{'scenario':<18} {'jobs':>5} {'faults':>6} {'opens':>5} "
            f"{'rescue':>6} {'verify':>6} {'shed':>4} {'wrong':>5}",
        ]
        for s in self.scenarios:
            lines.append(
                f"{s.name:<18} {s.jobs:>5} "
                f"{sum(s.faults_injected.values()):>6} "
                f"{s.breaker_opens:>5} {s.rescues:>6} "
                f"{s.verify_failures:>6} {s.shed:>4} {s.wrong_bytes:>5}")
        verdict = "SURVIVED" if self.survived else "DATA LOSS"
        lines.append(f"result: {verdict}  "
                     f"({self.total_faults} faults injected, "
                     f"{sum(s.wrong_bytes for s in self.scenarios)} "
                     "wrong payloads)")
        return "\n".join(lines)


def _payload(rng: random.Random, i: int, max_size: int) -> bytes:
    """Deterministic mixed-compressibility job input."""
    size = rng.choice((256, 1024, max_size))
    runs = bytes([65 + (i % 26)]) * 48
    noise = bytes(rng.getrandbits(8) for _ in range(48))
    block = runs + noise
    return (block * (size // len(block) + 1))[:size]


def _round_trips(output: bytes, data: bytes) -> bool:
    """Does the reference software decoder turn ``output`` back into
    ``data``?  Undecodable counts as wrong, like any other mismatch."""
    try:
        return decode_payload(output, "gzip") == data
    except ReproError:
        return False


def _add_fired(total: dict[str, int], injectors) -> None:
    """Fold each injector's firings, by fault kind, into ``total``."""
    for injector in injectors:
        for kind, count in injector.fired.items():
            total[kind] = total.get(kind, 0) + count


def pick_scenario(scenarios: dict, name: str, what: str = "chaos"):
    """Scenario ``name``'s plans, or a typed error naming the choices."""
    if name not in scenarios:
        raise ReproError(f"unknown {what} scenario {name!r}; "
                         f"have {sorted(scenarios)}")
    return scenarios[name]


def _run_clients(client, clients: int, name: str) -> None:
    """Run ``client(worker)`` on one thread a worker, to completion."""
    threads = [threading.Thread(target=client, args=(w,),
                                name=f"{name}-{w}")
               for w in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_scenario(name: str, plans: list[FaultPlan], *,
                 seed: int = 7, jobs: int = DEFAULT_JOBS,
                 chips: int = 2,
                 machine: MachineParams | str = POWER9,
                 max_size: int = 4096,
                 deadline_s: float | None = None) -> ScenarioResult:
    """Run one fault scenario through a health-aware pool."""
    from ..backend.pool import AcceleratorPool

    if isinstance(machine, str):
        machine = get_machine(machine)
    result = ScenarioResult(name=name, jobs=jobs)
    with AcceleratorPool(machine=machine, chips=chips,
                         policy="round_robin", backend="nx",
                         health=_TIGHT_BREAKER, verify=True) as pool:
        injectors = [
            FaultInjector(plans, seed=seed, chip=chip).install(
                pool.backend_for(chip).accelerator)
            for chip in range(chips)
        ]
        rng = random.Random(seed * 7919 + len(name))
        for i in range(jobs):
            data = _payload(rng, i, max_size)
            try:
                out = pool.compress(data, fmt="gzip",
                                    deadline_s=deadline_s)
            except (DeadlineExceeded, ChipUnavailable):
                result.shed += 1
                continue
            if not _round_trips(out.output, data):
                result.wrong_bytes += 1
            result.fallbacks += int(out.stats.fallback_to_software)
            result.modelled_seconds += out.stats.elapsed_seconds
        stats = pool.stats()
        result.rescues = stats.rescues
        result.verify_failures = stats.verify_failures
        result.breaker_opens = stats.breaker_opens
        result.breaker_log = pool.health.transition_log()
        _add_fired(result.faults_injected, injectors)
    return result


def run_campaign(seed: int = 7, jobs: int = DEFAULT_JOBS, chips: int = 2,
                 machine: MachineParams | str = POWER9,
                 plans: dict[str, list[FaultPlan]] | None = None,
                 max_size: int = 4096) -> CampaignReport:
    """Every fault scenario, one seeded deterministic campaign."""
    scenarios = plans if plans is not None else default_plans(jobs)
    report = CampaignReport(seed=seed, chips=chips)
    for name, scenario_plans in scenarios.items():
        report.scenarios.append(
            run_scenario(name, scenario_plans, seed=seed, jobs=jobs,
                         chips=chips, machine=machine, max_size=max_size))
    return report


# -- chaos under load: faults while a live service handles clients ----------


@dataclass
class ServiceScenarioResult:
    """One chaos-under-load run: faults vs a serving, multi-client stack.

    The integrity bar is the same as the offline campaign — zero wrong
    payloads among *accepted* requests — plus the service-level
    contract: every shed request carried a retryable error, and the
    queues stayed within their configured bounds throughout.
    """

    name: str
    jobs: int
    clients: int
    wrong_bytes: int = 0
    served: int = 0
    shed_retryable: int = 0
    shed_nonretryable: int = 0
    failed: int = 0
    rescues: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    max_queue_depth: int = 0
    queue_bound: int = 0
    worker_kills: int = 0
    worker_restarts: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        return (self.wrong_bytes == 0 and self.shed_nonretryable == 0
                and (self.queue_bound == 0
                     or self.max_queue_depth <= self.queue_bound))

    def render(self) -> str:
        lines = [
            f"chaos under load  scenario={self.name}  "
            f"clients={self.clients}  jobs={self.jobs}",
            f"  served={self.served}  shed(retryable)={self.shed_retryable}"
            f"  failed={self.failed}  wrong={self.wrong_bytes}",
            f"  rescues={self.rescues}  breaker opens={self.breaker_opens}"
            f"  closes={self.breaker_closes}",
            f"  peak queue depth={self.max_queue_depth}"
            f" (bound {self.queue_bound})",
            f"  faults injected: {dict(sorted(self.faults_injected.items()))}",
        ]
        if self.worker_kills:
            lines.insert(-1,
                         f"  exec workers killed={self.worker_kills}  "
                         f"restarted={self.worker_restarts}")
        verdict = "SURVIVED" if self.survived else "FAILED"
        lines.append(f"result: {verdict}")
        return "\n".join(lines)


def run_service_scenario(*, seed: int = 7, jobs: int = DEFAULT_JOBS,
                         chips: int = 2,
                         machine: MachineParams | str = POWER9,
                         max_size: int = 4096, clients: int = 4,
                         scenario: str | None = None,
                         backend: str = "nx",
                         exec_workers: int | None = None
                         ) -> ServiceScenarioResult:
    """Inject faults while a live service handles concurrent clients.

    ``clients`` threads submit seeded payloads through one
    :class:`~repro.service.core.CompressionService` while the chaos
    injectors fire on every chip.  Checked invariants:

    * every accepted compress round-trips to its original bytes
      (wrong_bytes == 0);
    * every shed request carried a *retryable* error
      (``ServiceOverloaded``) — overload never surfaces as data loss
      or an opaque failure;
    * breakers opened and closed (the fault plan guarantees failures;
      recovery probes must bring chips back);
    * queue depth snapshots never exceed the configured bound.

    With ``exec_workers`` the pool runs batch submits through the
    process-based execution layer, and the chaos dimension changes with
    it: on backends without a modelled accelerator (``backend=
    "software"``) there is nothing to fault-inject, so a killer thread
    terminates live pool workers throughout the run instead — a crashed
    worker's job must come back as a software rescue, never as wrong or
    missing bytes.
    """
    from ..backend.pool import AcceleratorPool
    from ..errors import ServiceOverloaded
    from ..service.core import CompressionService
    from ..service.qos import QosClass, QosPolicy

    if isinstance(machine, str):
        machine = get_machine(machine)
    name = scenario or "combined"
    plans = pick_scenario(default_plans(jobs), name)
    queue_limit = 64
    qos = QosPolicy((
        QosClass("interactive", fifo="high", rank=0,
                 queue_limit=queue_limit, max_batch=2),
        QosClass("bulk", fifo="normal", rank=1,
                 queue_limit=queue_limit, max_batch=4),
    ))
    result = ServiceScenarioResult(name=name, jobs=jobs, clients=clients,
                                   queue_bound=queue_limit)
    pool = AcceleratorPool(machine=machine, chips=chips,
                          policy="round_robin", backend=backend,
                          health=_TIGHT_BREAKER, verify=True,
                          exec_workers=exec_workers)
    injectors = []
    if hasattr(pool.backend_for(0), "accelerator"):
        injectors = [
            FaultInjector(plans, seed=seed, chip=chip).install(
                pool.backend_for(chip).accelerator)
            for chip in range(chips)
        ]
    lock = threading.Lock()
    stop_chaos = threading.Event()
    killer = None
    exec_pool = pool._exec() if exec_workers else None
    if exec_pool is not None:
        # Chaos kills arrive far faster than real crashes would; give
        # the respawn budget room so the scenario measures recovery,
        # not the runaway-restart backstop.
        exec_pool.restart_cap = max(exec_pool.restart_cap, 10 * jobs)

        # A kill budget keeps the scenario about *recovery*: unbounded
        # killing on a small host murders workers faster than spawn can
        # replace them and the run degenerates into restart churn.
        kill_budget = max(3, jobs // 8)

        def kill_workers() -> None:
            kill_rng = random.Random(seed * 31337)
            while not stop_chaos.wait(0.25):
                with lock:
                    if result.worker_kills >= kill_budget:
                        return
                procs = [w.proc for w in list(exec_pool._workers.values())
                         if w.proc.poll() is None]
                if procs:
                    kill_rng.choice(procs).terminate()
                    with lock:
                        result.worker_kills += 1

        killer = threading.Thread(target=kill_workers,
                                  name="repro-chaos-worker-killer",
                                  daemon=True)
        killer.start()
    with CompressionService(pool, qos=qos) as service:
        def client(worker: int) -> None:
            rng = random.Random(seed * 104729 + worker)
            qos_name = "interactive" if worker % 2 == 0 else "bulk"
            for i in range(jobs // clients):
                data = _payload(rng, worker * 1000 + i, max_size)
                try:
                    out = service.request("compress", data, fmt="gzip",
                                          qos=qos_name, timeout_s=60.0)
                except ServiceOverloaded:
                    with lock:
                        result.shed_retryable += 1
                    continue
                except ReproError as exc:
                    with lock:
                        if getattr(exc, "retryable", False):
                            result.shed_retryable += 1
                        else:
                            result.failed += 1
                    continue
                intact = _round_trips(out.output, data)
                with lock:
                    result.served += 1
                    if not intact:
                        result.wrong_bytes += 1
                snapshot = service.stats()
                with lock:
                    result.max_queue_depth = max(result.max_queue_depth,
                                                 snapshot.queued)

        _run_clients(client, clients, "repro-chaos-client")
        stop_chaos.set()
        if killer is not None:
            killer.join(5.0)
        if exec_pool is not None:
            result.worker_restarts = exec_pool.worker_restarts
        stats = pool.stats()
        result.rescues = stats.rescues
        result.breaker_opens = stats.breaker_opens
        for transitions in pool.health.transition_log().values():
            result.breaker_closes += sum(
                1 for state, _ in transitions if state == "CLOSED")
        _add_fired(result.faults_injected, injectors)
    return result


# -- network chaos: wire faults vs reconnecting idempotent clients -----------


def default_network_plans() -> dict[str, dict[str, list[NetFaultPlan]]]:
    """One scenario per wire fault kind, plus a combined storm.

    Each scenario names ``client`` plans (installed on every socket the
    clients dial) and ``server`` plans (installed on every accepted
    connection).  Probabilities are per socket *operation* and tuned so
    each connection sees a handful of faults without degenerating into
    pure reconnect churn — the campaign measures recovery arithmetic,
    not survival of a dead wire.
    """
    return {
        "net_baseline": {"client": [], "server": []},
        "net_reset": {
            "client": [NetFaultPlan("reset", probability=0.06)],
            "server": [NetFaultPlan("reset", probability=0.06)],
        },
        "net_truncate": {
            "client": [],
            "server": [NetFaultPlan("truncate", probability=0.20)],
        },
        "net_slow": {
            "client": [NetFaultPlan("slow_send", probability=0.25,
                                    magnitude=4.0)],
            "server": [NetFaultPlan("latency", probability=0.25,
                                    magnitude=5.0)],
        },
        "net_duplicate": {
            "client": [],
            "server": [NetFaultPlan("duplicate", probability=0.25),
                       NetFaultPlan("stale", probability=0.25)],
        },
        "net_combined": {
            "client": [NetFaultPlan("reset", probability=0.03),
                       NetFaultPlan("latency", probability=0.10,
                                    magnitude=3.0)],
            "server": [NetFaultPlan("truncate", probability=0.08),
                       NetFaultPlan("duplicate", probability=0.10),
                       NetFaultPlan("stale", probability=0.10),
                       NetFaultPlan("reset", probability=0.03)],
        },
    }


@dataclass
class NetworkScenarioResult:
    """One wire-chaos run and its exactly-once reconciliation.

    The proof obligations, all exact arithmetic (no tolerances):

    * ``wrong_bytes == 0`` — every fulfilled request round-trips;
    * ``duplicate_stores == 0`` — no request id was ever executed and
      stored twice (the double-execution detector);
    * ``executions == stores == successes`` — every logical client
      request executed exactly once, no matter how many resends the
      wire forced (``dedup_hits`` counts the replays that made that
      possible);
    * ``gave_up == 0`` — all clients converged: reconnect + retry
      budget sufficed to land every request.
    """

    name: str
    jobs: int
    clients: int
    served: int = 0
    wrong_bytes: int = 0
    gave_up: int = 0
    reconnects: int = 0
    dedup_hits: int = 0
    dedup_waits: int = 0
    executions: int = 0
    stores: int = 0
    duplicate_stores: int = 0
    bad_frames: int = 0
    client_faults: dict[str, int] = field(default_factory=dict)
    server_faults: dict[str, int] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        return (self.wrong_bytes == 0 and self.duplicate_stores == 0
                and self.gave_up == 0
                and self.executions == self.stores == self.served)

    def render(self) -> str:
        lines = [
            f"network chaos  scenario={self.name}  "
            f"clients={self.clients}  jobs={self.jobs}",
            f"  served={self.served}  wrong={self.wrong_bytes}  "
            f"gave up={self.gave_up}",
            f"  reconnects={self.reconnects}  "
            f"dedup hits={self.dedup_hits}  waits={self.dedup_waits}",
            f"  executions={self.executions}  stores={self.stores}  "
            f"duplicate stores={self.duplicate_stores}",
            f"  faults: client={dict(sorted(self.client_faults.items()))} "
            f"server={dict(sorted(self.server_faults.items()))}",
        ]
        verdict = ("SURVIVED" if self.survived
                   else "FAILED (wrong bytes / double execution / "
                        "non-convergence)")
        lines.append(f"result: {verdict}")
        return "\n".join(lines)


@dataclass
class NetworkCampaignReport:
    """All wire scenarios of one seeded network campaign."""

    seed: int
    clients: int
    scenarios: list[NetworkScenarioResult] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return all(s.survived for s in self.scenarios)

    def render(self) -> str:
        lines = [
            f"network chaos campaign  seed={self.seed}  "
            f"clients={self.clients}",
            f"{'scenario':<16} {'jobs':>5} {'faults':>6} {'reconn':>6} "
            f"{'dedup':>5} {'exec':>5} {'dup':>4} {'wrong':>5} {'lost':>4}",
        ]
        for s in self.scenarios:
            faults = (sum(s.client_faults.values())
                      + sum(s.server_faults.values()))
            lines.append(
                f"{s.name:<16} {s.jobs:>5} {faults:>6} "
                f"{s.reconnects:>6} {s.dedup_hits:>5} {s.executions:>5} "
                f"{s.duplicate_stores:>4} {s.wrong_bytes:>5} "
                f"{s.gave_up:>4}")
        verdict = ("SURVIVED" if self.survived
                   else "FAILED (wrong bytes / double execution / "
                        "non-convergence)")
        wrong = sum(s.wrong_bytes for s in self.scenarios)
        dups = sum(s.duplicate_stores for s in self.scenarios)
        lines.append(f"result: {verdict}  ({wrong} wrong payloads, "
                     f"{dups} double executions)")
        return "\n".join(lines)


def run_network_scenario(name: str, *, seed: int = 7, jobs: int = 40,
                         clients: int = 4, max_size: int = 4096,
                         plans: dict[str, list[NetFaultPlan]] | None = None,
                         backend: str = "software"
                         ) -> NetworkScenarioResult:
    """Wire faults vs concurrent reconnecting clients, reconciled exactly.

    One real TCP server fronts one :class:`CompressionService`;
    ``clients`` threads drive QoS-tagged compress requests through
    :class:`~repro.service.client.ServiceClient` instances with
    reconnect enabled, while seeded injectors mangle both ends of every
    connection.  See :class:`NetworkScenarioResult` for the invariants.
    """
    from ..service.client import RetryBudget, ServiceClient
    from ..service.core import CompressionService
    from ..service.idempotency import IdempotencyCache
    from ..service.server import serve

    if plans is None:
        plans = pick_scenario(default_network_plans(), name, "network")
    result = NetworkScenarioResult(name=name, jobs=jobs, clients=clients)
    dedup = IdempotencyCache()
    server_wrapper = fault_factory(plans.get("server", ()), seed=seed)
    service = CompressionService(chips=1, backend=backend)
    server = serve(service, port=0, dedup=dedup,
                   socket_wrapper=server_wrapper, idle_timeout_s=30.0)
    # One shared budget across all clients: generous enough for the
    # planned fault rates to converge, bounded enough that retries stay
    # etiquette rather than amplification.
    budget = RetryBudget(capacity=8.0 * jobs, deposit=1.0)
    lock = threading.Lock()
    try:
        def run_client(worker: int) -> None:
            rng = random.Random(seed * 104729 + worker)
            qos_name = "interactive" if worker % 2 == 0 else "bulk"
            client_wrapper = fault_factory(plans.get("client", ()),
                                           seed=seed * 613 + worker)
            try:
                client = ServiceClient(
                    port=server.port, reconnect=True, max_reconnects=12,
                    retry_budget=budget, socket_wrapper=client_wrapper,
                    timeout_s=30.0)
            except ReproError:
                with lock:
                    result.gave_up += jobs // clients
                return
            try:
                for i in range(jobs // clients):
                    data = _payload(rng, worker * 1000 + i, max_size)
                    try:
                        out = client.request(
                            "compress", data, fmt="gzip", qos=qos_name,
                            tenant=f"tenant{worker % 2}", retries=4)
                    except ReproError:
                        with lock:
                            result.gave_up += 1
                        continue
                    intact = _round_trips(out.output, data)
                    with lock:
                        result.served += 1
                        if not intact:
                            result.wrong_bytes += 1
                        result.reconnects += out.reconnects
                        result.dedup_hits += int(out.deduped)
            finally:
                with lock:
                    _add_fired(result.client_faults,
                               client_wrapper.injectors)
                client.close()

        _run_clients(run_client, clients, "repro-netchaos-client")
    finally:
        server.shutdown()
        service.close()
    stats = service.stats()
    cache = dedup.stats()
    result.executions = stats.completed
    result.stores = cache["stores"]
    result.duplicate_stores = cache["duplicate_stores"]
    result.dedup_waits = cache["waits"]
    # Server-side dedup hits are authoritative (a replayed response can
    # be lost on the wire too — the client only sees the last one).
    result.dedup_hits = cache["hits"]
    _add_fired(result.server_faults, server_wrapper.injectors)
    return result


def run_network_campaign(seed: int = 7, jobs: int = 40, clients: int = 4,
                         max_size: int = 4096,
                         scenario: str | None = None
                         ) -> NetworkCampaignReport:
    """Every wire fault scenario, one seeded deterministic campaign."""
    # An unknown name is refused by the scenario runner itself.
    names = ([scenario] if scenario is not None
             else sorted(default_network_plans()))
    report = NetworkCampaignReport(seed=seed, clients=clients)
    for name in names:
        report.scenarios.append(
            run_network_scenario(name, seed=seed, jobs=jobs,
                                 clients=clients, max_size=max_size))
    return report
