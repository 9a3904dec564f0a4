"""Seeded, deterministic fault injection: chip, wire and worker faults.

A shared accelerator must end every job with a completion code and
never hand a tenant wrong bytes, whatever its engine, its wire or its
worker processes do.  A :class:`FaultPlan` declares one such failure;
one seeded evaluation loop, :meth:`Injector.fire`, serves three
injectors that differ only in where they are installed:

* :class:`FaultInjector` — one chip's ``chaos`` hook, consulted by
  ``nx/accelerator.py`` per popped CRB and per executed job, by
  ``sysstack/driver.py`` per CSB read and by ``sysstack/vas.py`` per
  credit return;
* :class:`NetFaultInjector` — one connection, through
  :class:`FaultySocket` (``socket_wrapper=`` on the client and the
  server; :func:`fault_factory` seeds one per connection);
* :class:`WorkerKiller` — terminates live exec-pool workers.

Each draws from one ``random.Random`` — salted ``seed * 1_000_003 +
chip`` for a chip, ``seed * 9_999_991 + peer`` for a connection — in
operation order, so a fixed seed replays the identical fault timeline.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass

from ..errors import ConfigError
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from ..sysstack.crb import CcCode

#: Every fault kind a plan may declare, by the injector that fires it.
FAULT_KINDS = {
    "chip": (
        "engine_hang",        # the engine never completes; credit stays held
        "engine_slow",        # busy time multiplied by ``magnitude``
        "corrupt_output",     # one output byte flipped after a SUCCESS job
        "spurious_cc",        # a SUCCESS CSB rewritten to a non-success CC
        "translation_storm",  # the next ``magnitude`` jobs fault on source
        "credit_leak",        # a completed job's window credit is never freed
        "chip_death",         # every job fails until ``recover_at``
    ),
    "wire": (
        "reset",       # the connection dies with a reset on this operation
        "truncate",    # a send delivers only a prefix, then the socket dies
        "slow_send",   # slow-loris: the message dribbles out in tiny chunks
        "latency",     # the operation stalls ``magnitude`` milliseconds
        "duplicate",   # the frame just sent is sent again, back to back
        "stale",       # a previously sent frame is replayed before this one
    ),
    "worker": (
        "worker_kill",  # one live exec worker process is terminated
    ),
}

#: Wire kinds that also fire on a recv (the rest act on sends only).
_RECV_KINDS = ("reset", "latency")

#: Seconds between slow-loris chunks: long enough to exercise partial
#: reads on the peer, short enough for seeded CI campaigns.
_SLOW_CHUNK_DELAY_S = 0.002


@dataclass(frozen=True)
class FaultPlan:
    """One declarative fault: what, when, how often, how hard.

    ``at`` fires on the injector's Nth opportunity: a chip's Nth job, a
    connection's Nth send (or recv, for kinds that fire there), a
    killer's Nth tick; ``probability`` fires per opportunity from the
    seeded stream.  ``max_fires`` caps firings (``at`` plans: one).
    ``magnitude`` is the slowdown for ``engine_slow``, the storm length
    for ``translation_storm``, milliseconds for ``latency``, chunks for
    ``slow_send`` and tenths of a frame for ``truncate``.
    ``recover_at`` resurrects a dead chip on that job; ``side`` puts a
    wire plan on only the ``"client"`` or ``"server"`` end of a
    campaign's connections (``None``: both).
    """

    kind: str
    probability: float = 0.0
    at: int | None = None
    max_fires: int | None = None
    magnitude: float = 8.0
    recover_at: int | None = None
    side: str | None = None

    def __post_init__(self) -> None:
        if self.source is None:
            raise ConfigError(f"unknown fault kind {self.kind!r}; "
                              f"have {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}")
        if self.at is None and self.probability == 0.0:
            raise ConfigError(
                f"plan {self.kind!r} can never fire: give it at "
                "or a probability")
        if self.side not in ((None, "client", "server")
                             if self.source == "wire" else (None,)):
            raise ConfigError(f"plan {self.kind!r}: no side {self.side!r}")

    @property
    def source(self) -> str | None:
        """``"chip"``, ``"wire"`` or ``"worker"``: who fires this kind."""
        return next((source for source, kinds in FAULT_KINDS.items()
                     if self.kind in kinds), None)

    @property
    def fire_cap(self) -> float:
        if self.max_fires is not None:
            return self.max_fires
        # A pinned one-shot unless the caller widened it explicitly.
        return 1 if self.at is not None else float("inf")


class Injector:
    """One source's plans against one seeded stream: the evaluation loop.
    Subclasses name their ``source``, salt the stream and :meth:`fire`
    once per opportunity at their hook points."""

    source = ""

    def __init__(self, plans, salt: int) -> None:
        for plan in plans:
            if plan.source != self.source:
                raise ConfigError(f"a {plan.kind!r} plan cannot fire on "
                                  f"a {self.source} injector")
        self._rng = random.Random(salt)
        self._plans = list(plans)
        self._counts = [0] * len(self._plans)
        self.fired: dict[str, int] = {}

    def fire(self, counter: int, kinds=None) -> FaultPlan | None:
        """The first plan (of ``kinds``, default any) that fires on
        opportunity ``counter``; one fault at most per opportunity."""
        for index, plan in enumerate(self._plans):
            if ((kinds is not None and plan.kind not in kinds)
                    or self._counts[index] >= plan.fire_cap):
                continue
            hit = plan.at == counter
            if not hit and plan.probability > 0.0:
                hit = self._rng.random() < plan.probability
            if hit:
                self._counts[index] += 1
                self.fired[plan.kind] = self.fired.get(plan.kind, 0) + 1
                self._record(plan.kind)
                return plan
        return None

    def _record(self, kind: str) -> None:
        """Telemetry for one firing (none by default)."""


class FaultInjector(Injector):
    """One chip's ``chaos`` hook: chip plans at the model's hook points."""

    source = "chip"

    def __init__(self, plans=(), seed: int = 0, chip: int = 0) -> None:
        super().__init__(plans, seed * 1_000_003 + chip)
        self.chip = chip
        self.job_counter = 0
        self._storm_remaining = 0
        self._dead = False
        self._recover_at: int | None = None

    def install(self, accelerator) -> "FaultInjector":
        """Attach to one chip's accelerator (and its switchboard)."""
        accelerator.chaos = self
        accelerator.vas.chaos = self
        return self

    def _record(self, kind: str) -> None:
        _TRACE.event("fault.injected", kind=kind, chip=self.chip)
        _FLIGHT.auto_dump("fault_" + kind, chip=self.chip,
                          job=self.job_counter)
        _REGISTRY.counter(
            "repro_resilience_faults_injected_total",
            "chaos faults fired by the injector").inc(
            1, kind=kind, chip=str(self.chip))

    def _fires(self, kind: str) -> FaultPlan | None:
        return self.fire(self.job_counter, (kind,))

    # -- hook points ---------------------------------------------------------

    def on_job_start(self, crb) -> str | None:
        """Accelerator hook, once per popped CRB; returns the action.

        ``"hang"`` — drop the job, keep the credit; ``"dead"`` — fail
        with an engine-check CC; ``"translation"`` — fabricate a
        translation fault on the source; ``None`` — run normally.
        """
        self.job_counter += 1
        # Chip death dominates everything else while active.
        if (self._dead and self._recover_at is not None
                and self.job_counter >= self._recover_at):
            self._dead = False
        if not self._dead:
            death = self._fires("chip_death")
            if death is not None:
                self._dead, self._recover_at = True, death.recover_at
        if self._dead:
            return "dead"
        if self._storm_remaining > 0:
            self._storm_remaining -= 1
            return "translation"
        storm = self._fires("translation_storm")
        if storm is not None:
            self._storm_remaining = max(0, int(storm.magnitude) - 1)
            return "translation"
        if self._fires("engine_hang") is not None:
            return "hang"
        return None

    def on_outcome(self, crb, outcome, space) -> None:
        """Accelerator hook after a job executed: slow it or corrupt it."""
        slow = self._fires("engine_slow")
        if slow is not None:
            outcome.busy_seconds *= slow.magnitude
        csb = outcome.csb
        if (csb.cc is CcCode.SUCCESS and csb.target_written > 0
                and self._fires("corrupt_output") is not None):
            offset = self._rng.randrange(csb.target_written)
            address = crb.target.address + offset
            original = space.read(address, 1)
            space.write(address, bytes((original[0] ^ 0xA5,)))

    def on_csb(self, csb) -> None:
        """Driver hook at CSB-read time: inject a spurious non-success CC."""
        if (csb.cc is CcCode.SUCCESS
                and self._fires("spurious_cc") is not None):
            csb.cc = CcCode.FUNCTION

    def on_credit_return(self, window_id: int) -> bool:
        """VAS hook per credit return; True means the credit leaks."""
        return self._fires("credit_leak") is not None


class NetFaultInjector(Injector):
    """One connection's wire plans, one send/recv opportunity at a time
    (installed by :class:`FaultySocket`)."""

    source = "wire"

    def __init__(self, plans=(), seed: int = 0, peer: int = 0) -> None:
        super().__init__(plans, seed * 9_999_991 + peer)
        self.peer = peer
        self._counters = {"send": 0, "recv": 0}
        self._direction = "send"

    def on_op(self, direction: str) -> FaultPlan | None:
        """One ``"send"`` / ``"recv"``; the plan that fires, if any."""
        self._counters[direction] += 1
        self._direction = direction
        return self.fire(self._counters[direction],
                         None if direction == "send" else _RECV_KINDS)

    def _record(self, kind: str) -> None:
        _TRACE.event("net.fault", kind=kind, peer=self.peer,
                     direction=self._direction)
        _FLIGHT.record("net.fault", kind=kind, peer=self.peer,
                       direction=self._direction,
                       op=sum(self._counters.values()))
        _REGISTRY.counter(
            "repro_resilience_net_faults_injected_total",
            "wire chaos faults fired by the injector").inc(
            1, kind=kind)


class WorkerKiller(Injector):
    """Exec-worker kills: one ``worker_kill`` opportunity per tick."""

    source = "worker"

    def __init__(self, plans=(), seed: int = 0) -> None:
        super().__init__(plans, seed * 31337)
        self.ticks = 0

    def on_tick(self, procs: list):
        """Maybe terminate one of the live ``procs``; the one killed."""
        self.ticks += 1
        if not procs or self.fire(self.ticks) is None:
            return None
        victim = self._rng.choice(procs)
        victim.terminate()
        return victim


class FaultySocket:
    """A socket proxy that injects the planned wire faults.

    Wraps ``sendall`` / ``recv``, the only calls the service makes on a
    socket; everything else delegates to the real socket.  Faults act
    per message — :func:`~repro.service.protocol.send_message` emits one
    ``sendall`` per message, so duplicate and stale injections replay
    *whole frames*, the case the request-id dedup has to defeat.
    """

    def __init__(self, sock: socket.socket,
                 injector: NetFaultInjector) -> None:
        self._sock = sock
        self._chaos = injector
        self._last_frame: bytes | None = None
        self._older_frame: bytes | None = None

    def _kill(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def sendall(self, data: bytes) -> None:
        plan = self._chaos.on_op("send")
        if plan is None:
            self._sock.sendall(data)
        elif plan.kind == "reset":
            self._kill()
            raise ConnectionResetError("injected connection reset on send")
        elif plan.kind == "truncate":
            cut = max(1, int(len(data) * min(0.9, plan.magnitude / 10.0))) \
                if len(data) > 1 else 0
            if cut:
                try:
                    self._sock.sendall(bytes(data[:cut]))
                except OSError:
                    pass
            self._kill()
            raise ConnectionResetError(
                f"injected truncation after {cut} of {len(data)} bytes")
        elif plan.kind == "slow_send":
            chunks = max(2, int(plan.magnitude))
            step = max(1, len(data) // chunks)
            view = memoryview(bytes(data))
            for start in range(0, len(view), step):
                self._sock.sendall(view[start:start + step])
                time.sleep(_SLOW_CHUNK_DELAY_S)
        elif plan.kind == "latency":
            time.sleep(plan.magnitude * 1e-3)
            self._sock.sendall(data)
        elif plan.kind == "duplicate":
            self._sock.sendall(data)
            self._sock.sendall(data)
        else:  # "stale"
            if self._older_frame is not None:
                self._sock.sendall(self._older_frame)
            self._sock.sendall(data)
        self._older_frame = self._last_frame
        self._last_frame = bytes(data)

    def recv(self, nbytes: int) -> bytes:
        plan = self._chaos.on_op("recv")
        if plan is not None:
            if plan.kind == "reset":
                self._kill()
                raise ConnectionResetError(
                    "injected connection reset on recv")
            time.sleep(plan.magnitude * 1e-3)  # "latency"
        return self._sock.recv(nbytes)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


def fault_factory(plans, seed: int = 0, max_connections: int | None = None):
    """A ``socket_wrapper`` that seeds a fresh injector per connection.

    ``peer`` counts connections, so reconnects replay new but
    deterministic timelines; past ``max_connections`` sockets pass
    through clean (``1`` with an ``at`` plan stages exactly one aimed
    failure).  ``wrapper.injectors`` keeps every injector it created.
    """
    injectors: list[NetFaultInjector] = []

    def wrapper(sock: socket.socket):
        if max_connections is not None \
                and len(injectors) >= max_connections:
            return sock
        injector = NetFaultInjector(plans, seed=seed, peer=len(injectors))
        injectors.append(injector)
        return FaultySocket(sock, injector)

    wrapper.injectors = injectors
    return wrapper
