"""Seeded chaos campaigns: survive every fault plan with correct bytes.

One harness runs a *scenario* — a list of :class:`~.faults.FaultPlan` —
on one of three stacks: ``"pool"`` (a health-aware pool of per-chip
backends, one job at a time; byte-deterministic per seed),
``"service"`` (that pool behind a live service shared by client
threads; with ``exec_workers`` its worker processes are killed instead)
or ``"tcp"`` (a real TCP server, wire faults on both ends of every
connection, reconnecting idempotent clients).  Every answer is
round-trip checked against the reference software decoder, and
:attr:`ScenarioResult.survived` is one rule for all three.  This is the
harness behind ``repro chaos`` and the CI chaos job.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field

from ..errors import ConfigError, ReproError, failure_of
from ..nx.params import POWER9, MachineParams, get_machine
from .faults import FaultInjector, FaultPlan, WorkerKiller, fault_factory
from .health import HealthConfig
from .verify import decode_payload

#: Jobs per scenario, by stack, unless the caller says otherwise.
DEFAULT_JOBS = {"pool": 200, "service": 200, "tcp": 40}

#: A tight breaker so quarantine/recovery happens inside the run.
_TIGHT_BREAKER = HealthConfig(failure_threshold=3, cooldown_routes=8,
                              probe_successes=2)

#: Seconds between a worker killer's chances.
_KILL_TICK_S = 0.25


def default_plans(stack: str = "pool",
                  jobs: int | None = None) -> dict[str, list[FaultPlan]]:
    """The stack's named scenarios: one per fault kind plus a storm.

    Rates are tuned so each scenario exercises its machinery in ``jobs``
    submissions (wire rates: per socket operation) without drowning the
    stack — the campaign measures recovery, not survival of a dead chip
    or wire; the kill budget likewise stops a small host's workers dying
    faster than spawn replaces them.
    """
    jobs = jobs or DEFAULT_JOBS[stack]
    if stack == "tcp":
        return {
            "net_baseline": [],
            "net_reset": [FaultPlan("reset", probability=0.06)],
            "net_truncate": [
                FaultPlan("truncate", probability=0.20, side="server")],
            "net_slow": [
                FaultPlan("slow_send", probability=0.25, magnitude=4.0,
                          side="client"),
                FaultPlan("latency", probability=0.25, magnitude=5.0,
                          side="server")],
            "net_duplicate": [
                FaultPlan(kind, probability=0.25, side="server")
                for kind in ("duplicate", "stale")],
            "net_combined": [
                FaultPlan("reset", probability=0.03, side="client"),
                FaultPlan("latency", probability=0.10, magnitude=3.0,
                          side="client"),
                FaultPlan("truncate", probability=0.08, side="server"),
                FaultPlan("duplicate", probability=0.10, side="server"),
                FaultPlan("stale", probability=0.10, side="server"),
                FaultPlan("reset", probability=0.03, side="server"),
            ],
        }
    plans = {
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
        "chip_death": [FaultPlan("chip_death", at=5,
                                 recover_at=max(40, jobs // 4))],
        "combined": [
            FaultPlan("engine_hang", probability=0.02),
            FaultPlan("corrupt_output", probability=0.05),
            FaultPlan("spurious_cc", probability=0.05),
            FaultPlan("translation_storm", probability=0.02,
                      magnitude=4.0),
            FaultPlan("credit_leak", probability=0.02, max_fires=4),
        ],
    }
    if stack == "service":
        plans["worker_kill"] = [FaultPlan(
            "worker_kill", probability=1.0, max_fires=max(3, jobs // 8))]
    return plans


@dataclass
class ScenarioResult:
    """What one scenario did to its stack — and whether it survived.

    Every job is ``served``, ``shed`` (an overload or a missed deadline)
    or ``lost`` (any other error, or a TCP client that gave up); fields
    a stack has no such thing for stay zero.  On TCP, ``executions``,
    ``stores`` and ``duplicate_stores`` (a double execution) reconcile
    exactly-once delivery; ``dedup_hits`` counts the replays it took.
    """

    name: str
    stack: str
    seed: int
    jobs: int
    served: int = 0
    shed: int = 0
    lost: int = 0
    wrong: int = 0
    faults: Counter = field(default_factory=Counter)
    rescues: int = 0
    verify_failures: int = 0
    fallbacks: int = 0
    breaker_opens: int = 0
    breaker_log: dict[int, list[tuple[str, int]]] = field(
        default_factory=dict)
    modelled_seconds: float = 0.0
    max_queue_depth: int = 0
    queue_bound: int = 0
    worker_restarts: int = 0
    reconnects: int = 0
    dedup_hits: int = 0
    executions: int = 0
    stores: int = 0
    duplicate_stores: int = 0

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    @property
    def breaker_closes(self) -> int:
        return sum(state == "CLOSED" for log in self.breaker_log.values()
                   for state, _ in log)

    @property
    def survived(self) -> bool:
        """No wrong payload, no lost job, no double execution, queues in
        bound — and on TCP every job executed and stored exactly once."""
        return (self.wrong == 0 and self.lost == 0
                and self.duplicate_stores == 0
                and self.max_queue_depth <= self.queue_bound
                and (self.stack != "tcp"
                     or self.executions == self.stores == self.served))


def _payload(rng: random.Random, i: int, max_size: int) -> bytes:
    """Deterministic mixed-compressibility job input."""
    size = rng.choice((256, 1024, max_size))
    block = (bytes([65 + (i % 26)]) * 48
             + bytes(rng.getrandbits(8) for _ in range(48)))
    return (block * (size // len(block) + 1))[:size]


def _round_trips(output: bytes, data: bytes) -> bool:
    """Does the reference decoder give back ``data``?  Undecodable is
    wrong, like any other mismatch."""
    try:
        return decode_payload(output, "gzip") == data
    except ReproError:
        return False


def _add_fired(result: ScenarioResult, injectors) -> None:
    for injector in injectors:
        result.faults.update(injector.fired)


def _side(plans: list[FaultPlan], side: str) -> list[FaultPlan]:
    """The wire plans a TCP campaign installs on ``side``'s sockets."""
    return [plan for plan in plans if plan.side in (None, side)]


def run_scenario(name: str, *, stack: str = "pool", seed: int = 7,
                 jobs: int | None = None, chips: int = 2,
                 machine: MachineParams | str = POWER9,
                 max_size: int = 4096, clients: int = 4,
                 exec_workers: int | None = None) -> ScenarioResult:
    """Run the stack's scenario ``name`` on ``stack``.  An unknown name,
    or a plan the stack has no injector for, is a :class:`ConfigError`."""
    if exec_workers and stack != "service":
        raise ConfigError("exec workers run on the service stack "
                          "(--under-load) only")
    jobs = jobs or DEFAULT_JOBS[stack]
    scenarios = default_plans(stack, jobs)
    if name not in scenarios:
        what = "network" if stack == "tcp" else "chaos"
        raise ConfigError(f"unknown {what} scenario {name!r}; "
                          f"have {sorted(scenarios)}")
    plans = scenarios[name]
    fires = {"pool": "chip", "tcp": "wire",
             "service": "worker" if exec_workers else "chip"}[stack]
    stray = sorted({plan.kind for plan in plans if plan.source != fires})
    if stray:
        raise ConfigError(f"scenario {name!r}: the {stack} stack"
                          f"{' with exec workers' if exec_workers else ''} "
                          f"injects {fires} faults only, not {stray}")
    result = ScenarioResult(name=name, stack=stack, seed=seed, jobs=jobs)
    if stack == "tcp":
        _run_tcp(result, plans, max_size, clients)
    else:
        if isinstance(machine, str):
            machine = get_machine(machine)
        _run_pool(result, plans, chips, machine, max_size,
                  clients if stack == "service" else 1, exec_workers)
    return result


def run_campaign(stack: str = "pool", scenario: str | None = None, *,
                 jobs: int | None = None, exec_workers: int | None = None,
                 **settings) -> list[ScenarioResult]:
    """``scenario``, else the stack's campaign: every default scenario
    on a pool or TCP stack; ``combined`` (``worker_kill`` with exec
    workers) on a served one."""
    if scenario is not None:
        names = [scenario]
    elif stack == "service":
        names = ["worker_kill" if exec_workers else "combined"]
    else:
        names = list(default_plans(stack, jobs))
    return [run_scenario(name, stack=stack, jobs=jobs,
                         exec_workers=exec_workers, **settings)
            for name in names]


def _drive(result: ScenarioResult, clients: int, max_size: int, connect,
           account) -> None:
    """``clients`` threads send their shares of the seeded payloads.

    ``connect(worker)`` gives a client its ``request(data, qos)``;
    ``account(answer)`` runs under the result's lock per answer.  A
    refusal whose failure class is ``overload`` or ``deadline`` is
    shed; any other job is lost.
    """
    share = result.jobs // clients
    lock = threading.Lock()

    def client(worker: int) -> None:
        rng = random.Random(result.seed * 7919 + len(result.name)
                            + worker * 104729)
        qos = "interactive" if worker % 2 == 0 else "bulk"
        try:
            request = connect(worker)
        except ReproError:
            return
        for i in range(share):
            data = _payload(rng, worker * 1000 + i, max_size)
            try:
                out = request(data, qos)
            except ReproError as exc:
                if failure_of(exc) in ("overload", "deadline"):
                    with lock:
                        result.shed += 1
                continue  # else lost
            intact = _round_trips(out.output, data)
            with lock:
                result.served += 1
                result.wrong += not intact
                account(out)

    threads = [threading.Thread(target=client, args=(w,),
                                name=f"repro-chaos-{result.stack}-{w}")
               for w in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Lost: every job neither served nor shed, sent or not.
    result.lost = share * clients - result.served - result.shed


def _run_pool(result, plans, chips, machine, max_size, clients,
              exec_workers) -> None:
    """A health-aware pool, called one job at a time (``pool``) or
    behind a live service shared by client threads (``service``), where
    every refusal must be an overload and the queues stay in bound."""
    from ..backend.pool import AcceleratorPool
    from ..service.core import CompressionService
    from ..service.qos import QosClass, QosPolicy

    # Exec workers run the software backend: there is no modelled chip
    # to fault, so the chaos is killing the workers instead.
    pool = AcceleratorPool(machine=machine, chips=chips,
                          policy="round_robin",
                          backend="software" if exec_workers else "nx",
                          health=_TIGHT_BREAKER, verify=True,
                          exec_workers=exec_workers)
    stop = threading.Event()
    if exec_workers:
        injectors = [_kill_workers(result, plans, pool._exec(), stop)]
    else:
        injectors = [FaultInjector(plans, seed=result.seed, chip=chip)
                     .install(pool.backend_for(chip).accelerator)
                     for chip in range(chips)]
    if result.stack == "pool":
        def account(out) -> None:
            result.fallbacks += int(out.stats.fallback_to_software)
            result.modelled_seconds += out.stats.elapsed_seconds

        with pool:
            _drive(result, 1, max_size,
                   lambda worker: lambda data, qos: pool.compress(
                       data, fmt="gzip"),
                   account)
    else:
        result.queue_bound = 64
        service = CompressionService(pool, qos=QosPolicy((
            QosClass("interactive", fifo="high", rank=0,
                     queue_limit=result.queue_bound, max_batch=2),
            QosClass("bulk", fifo="normal", rank=1,
                     queue_limit=result.queue_bound, max_batch=4))))

        def account(out) -> None:
            result.max_queue_depth = max(result.max_queue_depth,
                                         service.stats().queued)

        with service:
            _drive(result, clients, max_size,
                   lambda worker: lambda data, qos: service.request(
                       "compress", data, fmt="gzip", qos=qos,
                       timeout_s=60.0),
                   account)
            stop.set()
            if exec_workers:
                result.worker_restarts = pool._exec().worker_restarts
    stats = pool.stats()
    result.rescues = stats.rescues
    result.verify_failures = stats.verify_failures
    result.breaker_opens = stats.breaker_opens
    result.breaker_log = pool.health.transition_log()
    _add_fired(result, injectors)


def _kill_workers(result, plans, exec_pool, stop) -> WorkerKiller:
    """Start a thread giving ``plans`` a kill chance per tick till ``stop``."""
    # Chaos kills arrive far faster than real crashes would; give the
    # respawn budget room so the scenario measures recovery, not the
    # runaway-restart backstop.
    exec_pool.restart_cap = max(exec_pool.restart_cap, 10 * result.jobs)
    killer = WorkerKiller(plans, seed=result.seed)

    def tick() -> None:
        while not stop.wait(_KILL_TICK_S):
            killer.on_tick([worker.proc for worker in list(
                exec_pool._workers.values()) if worker.proc.poll() is None])

    threading.Thread(target=tick, name="repro-chaos-worker-killer",
                     daemon=True).start()
    return killer


def _run_tcp(result, plans, max_size, clients) -> None:
    """Wire faults vs concurrent reconnecting clients, reconciled
    exactly: one real TCP server fronts one software service."""
    from ..service.client import RetryBudget, ServiceClient
    from ..service.core import CompressionService
    from ..service.idempotency import IdempotencyCache
    from ..service.server import serve

    dedup = IdempotencyCache()
    server_wrapper = fault_factory(_side(plans, "server"), seed=result.seed)
    service = CompressionService(chips=1, backend="software")
    server = serve(service, port=0, dedup=dedup,
                   socket_wrapper=server_wrapper, idle_timeout_s=30.0)
    # One shared budget across all clients: generous enough for the
    # planned fault rates to converge, bounded enough that retries stay
    # etiquette rather than amplification.
    budget = RetryBudget(capacity=8.0 * result.jobs, deposit=1.0)
    dialled = []

    def connect(worker: int):
        wrapper = fault_factory(_side(plans, "client"),
                                seed=result.seed * 613 + worker)
        client = ServiceClient(
            port=server.port, reconnect=True, max_reconnects=12,
            retry_budget=budget, socket_wrapper=wrapper, timeout_s=30.0)
        dialled.append((client, wrapper))
        return lambda data, qos: client.request(
            "compress", data, fmt="gzip", qos=qos,
            tenant=f"tenant{worker % 2}", retries=4)

    def account(out) -> None:
        result.reconnects += out.reconnects

    try:
        _drive(result, clients, max_size, connect, account)
    finally:
        for client, wrapper in dialled:
            client.close()
            _add_fired(result, wrapper.injectors)
        server.shutdown()
        service.close()
    cache = dedup.stats()
    result.executions = service.stats().completed
    result.stores = cache["stores"]
    result.duplicate_stores = cache["duplicate_stores"]
    # Server-side dedup hits are authoritative (a replayed response can
    # be lost on the wire too — the client only sees the last one).
    result.dedup_hits = cache["hits"]
    _add_fired(result, server_wrapper.injectors)


#: Per stack: the report's title and its columns (header, attribute)
#: between ``faults`` and ``wrong``.
_TITLES = {"pool": "chaos campaign", "service": "chaos under load",
           "tcp": "network chaos campaign"}
_COLUMNS = {
    "pool": (("opens", "breaker_opens"), ("rescue", "rescues"),
             ("verify", "verify_failures"), ("shed", "shed")),
    "service": (("served", "served"), ("shed", "shed"), ("lost", "lost"),
                ("opens", "breaker_opens"), ("closes", "breaker_closes"),
                ("rescue", "rescues"), ("queue", "max_queue_depth"),
                ("restart", "worker_restarts")),
    "tcp": (("reconn", "reconnects"), ("dedup", "dedup_hits"),
            ("exec", "executions"), ("dup", "duplicate_stores"),
            ("lost", "lost")),
}


def render(results: list[ScenarioResult]) -> str:
    """Human-readable survival report of one stack's scenarios."""
    first = results[0]
    columns = (("jobs", "jobs"), ("faults", "total_faults"),
               *_COLUMNS[first.stack], ("wrong", "wrong"))
    bound = f"  queue bound={first.queue_bound}" if first.queue_bound else ""
    lines = [f"{_TITLES[first.stack]}  seed={first.seed}{bound}",
             f"{'scenario':<18}" + "".join(f" {header:>7}"
                                           for header, _ in columns)]
    for result in results:
        lines.append(f"{result.name:<18}" + "".join(
            f" {getattr(result, attr):>7}" for _, attr in columns))
    faults = sum((result.faults for result in results), Counter())
    verdict = ("SURVIVED" if all(r.survived for r in results)
               else "FAILED (wrong bytes / lost jobs / double execution)")
    lines.append(f"faults injected: {dict(sorted(faults.items()))}")
    lines.append(
        f"result: {verdict}  ({sum(r.wrong for r in results)} wrong "
        f"payloads, {sum(r.duplicate_stores for r in results)} double "
        f"executions, {sum(r.lost for r in results)} lost)")
    return "\n".join(lines)
