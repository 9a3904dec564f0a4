"""QoS classes: per-tenant service levels mapped onto the VAS FIFOs.

The accelerator front end has exactly two receive FIFOs (high priority
and normal — the E14 arbitration), so the service maps its QoS classes
onto that hardware reality: ``interactive`` rides the high FIFO, while
``batch`` and ``bulk`` share the normal FIFO and differ only in queue
bounds and window share.  Starvation is bounded the same way the
VAS arbitrates: after :data:`DEFAULT_STARVATION_BOUND` consecutive
high-FIFO picks with normal work waiting, one normal request is served
(:func:`repro.backend.routing.arbitrate`, the rule E14 models).

Every class carries its *admission bound* — the queue limits behind the
reject-with-retry-after backpressure — and its *share of the dispatch
window*, the most of its requests in flight at once (E16: a few
in-flight jobs saturate an engine; more only add queueing and
head-of-line blocking for the high FIFO).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend.routing import arbitrate
from ..errors import ConfigError

#: The two hardware receive FIFOs behind the VAS front end.
FIFOS = ("high", "normal")

#: Consecutive high-FIFO dispatches before one normal request is forced
#: through (mirrors the modelled VAS anti-starvation arbitration).
DEFAULT_STARVATION_BOUND = 8


@dataclass(frozen=True)
class QosClass:
    """One service level and its queue/window envelope.

    ``rank`` orders classes within a FIFO (lower dispatches first);
    ``queue_limit``/``queue_bytes_limit`` bound admission;
    ``max_batch`` caps how many of this class's requests are in flight
    on the pool at once.
    """

    name: str
    fifo: str = "normal"
    rank: int = 1
    queue_limit: int = 256
    queue_bytes_limit: int = 64 << 20
    max_batch: int = 4

    def __post_init__(self) -> None:
        if self.fifo not in FIFOS:
            raise ConfigError(f"QoS class {self.name!r}: unknown FIFO "
                              f"{self.fifo!r}; have {FIFOS}")
        if self.queue_limit < 1 or self.max_batch < 1:
            raise ConfigError(f"QoS class {self.name!r}: queue_limit and "
                              "max_batch must be >= 1")


#: The stock three-level policy: RPC-sized latency-sensitive traffic on
#: the high FIFO, throughput traffic on the normal FIFO, backup-window
#: bulk behind it with the deepest queue and window share.
DEFAULT_CLASSES = (
    QosClass("interactive", fifo="high", rank=0, queue_limit=64,
             queue_bytes_limit=8 << 20, max_batch=2),
    QosClass("batch", fifo="normal", rank=1, queue_limit=256,
             queue_bytes_limit=64 << 20, max_batch=4),
    QosClass("bulk", fifo="normal", rank=2, queue_limit=512,
             queue_bytes_limit=256 << 20, max_batch=8),
)


class QosPolicy:
    """Dispatch-order policy over a set of QoS classes.

    ``pick`` chooses the next class to serve given which classes have
    queued work, preferring the high FIFO but bounding starvation: a
    run of :data:`DEFAULT_STARVATION_BOUND` consecutive high picks with
    normal work waiting forces one normal dispatch: the VAS grant rule
    (:func:`~repro.backend.routing.arbitrate`) that E14 models.
    """

    def __init__(self,
                 classes: tuple[QosClass, ...] = DEFAULT_CLASSES) -> None:
        if not classes:
            raise ConfigError("need at least one QoS class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate QoS class names in {names}")
        self.classes = tuple(classes)
        self.by_name = {c.name: c for c in classes}
        self._consecutive_high = 0

    @property
    def default_class(self) -> QosClass:
        return self.classes[0]

    def resolve(self, name: str | None) -> QosClass:
        if name is None:
            return self.default_class
        try:
            return self.by_name[name]
        except KeyError:
            raise ConfigError(f"unknown QoS class {name!r}; "
                              f"have {sorted(self.by_name)}") from None

    def pick(self, waiting: dict[str, int]) -> QosClass | None:
        """Next class to dispatch given per-class queued counts."""
        ready = [self.by_name[name] for name, count in waiting.items()
                 if count > 0 and name in self.by_name]
        if not ready:
            return None
        high = [c for c in ready if c.fifo == "high"]
        normal = [c for c in ready if c.fifo == "normal"]
        take_high, self._consecutive_high = arbitrate(
            bool(high), bool(normal), self._consecutive_high,
            DEFAULT_STARVATION_BOUND)
        return min(high if take_high else normal, key=lambda c: c.rank)
