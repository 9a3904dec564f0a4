"""A bounded per-tenant LRU and a claim table: a keyed cache that runs
each key at most once at a time.

:class:`~repro.service.idempotency.IdempotencyCache` (keyed by the
client's ``request_id``) and :class:`~repro.dictsvc.cache.ResultCache`
(keyed by content) are both a :class:`KeyedCache` behind their own
counters, and speak one protocol.  ``begin`` looks a key up — LRU
first, then the claim table, in one critical section — and answers
**hit** (the value is cached; nothing executes), **lead** (nobody
holds the key: the caller executes, then ``commit``s the value or
``abort``s) or **wait** (somebody is executing it: the caller waits on
the claim, or is parked with it, instead of executing in parallel).
An abort stores nothing and frees the key, so waiters re-claim and a
failed execution never poisons it: at most one *successful* execution
per key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class BoundedTenantLRU:
    """``(tenant, key) -> value`` under entry, byte and tenant bounds.

    Three LRU orders: keys inside a tenant (its quota evicts its own
    oldest), keys across tenants (the global bound evicts anyone's
    oldest) and tenants (a new one past ``max_tenants`` drops the least
    recently used tenant whole).  A byte bound never evicts the entry
    just stored: an oversized value is the caller's to refuse.
    """

    def __init__(self, *, tenant_max_entries: int, tenant_max_bytes: int,
                 max_tenants: int, max_entries: float = float("inf"),
                 max_bytes: float = float("inf")) -> None:
        self.tenant_max_entries = tenant_max_entries
        self.tenant_max_bytes = tenant_max_bytes
        self.max_tenants = max_tenants
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: tenant -> its keys -> value; both levels oldest first.
        self.tenants: OrderedDict[str, OrderedDict[str, object]] = \
            OrderedDict()
        self._tenant_bytes: dict[str, int] = {}
        #: (tenant, key) -> bytes charged, oldest first across tenants.
        self.order: OrderedDict[tuple[str, str], int] = OrderedDict()
        self.bytes = 0
        self.evictions = 0

    def get(self, tenant: str, key: str):
        """The cached value, now the most recently used; else None."""
        entries = self.tenants.get(tenant)
        if entries is None or key not in entries:
            return None
        entries.move_to_end(key)
        self.tenants.move_to_end(tenant)
        self.order.move_to_end((tenant, key))
        return entries[key]

    def put(self, tenant: str, key: str, value: object,
            nbytes: int) -> bool:
        """Store a value charged ``nbytes``; False if the key is held."""
        entries = self.tenants.get(tenant)
        if entries is None:
            if len(self.tenants) >= self.max_tenants:
                oldest = next(iter(self.tenants))
                for stale in list(self.tenants[oldest]):
                    self._drop(oldest, stale)
            entries = self.tenants[tenant] = OrderedDict()
            self._tenant_bytes[tenant] = 0
        elif key in entries:
            return False
        entries[key] = value
        self.tenants.move_to_end(tenant)
        self._tenant_bytes[tenant] += nbytes
        self.order[tenant, key] = nbytes
        self.bytes += nbytes
        while (len(entries) > self.tenant_max_entries
               or (len(entries) > 1
                   and self._tenant_bytes[tenant] > self.tenant_max_bytes)):
            self._drop(tenant, next(iter(entries)))
        while (len(self.order) > self.max_entries
               or (len(self.order) > 1 and self.bytes > self.max_bytes)):
            self._drop(*next(iter(self.order)))
        return True

    def shrink(self, tenant: str, key: str, value: object) -> bool:
        """Swap a held key's value for a zero-byte ``value`` in place:
        the key keeps its slot in every LRU order, so entry counts and
        evictions read as before.  False if the key is not held or
        already holds ``value``."""
        entries = self.tenants.get(tenant)
        if entries is None or entries.get(key, value) is value:
            return False
        entries[key] = value
        nbytes = self.order[tenant, key]
        self.order[tenant, key] = 0
        self._tenant_bytes[tenant] -= nbytes
        self.bytes -= nbytes
        return True

    def _drop(self, tenant: str, key: str) -> None:
        entries = self.tenants[tenant]
        del entries[key]
        nbytes = self.order.pop((tenant, key))
        self._tenant_bytes[tenant] -= nbytes
        self.bytes -= nbytes
        self.evictions += 1
        if not entries:
            del self.tenants[tenant]
            del self._tenant_bytes[tenant]


class Claim:
    """One in-flight execution of a key.  ``event``, set at the release,
    exists only once somebody waits: an uncontended claim builds none.
    ``parked`` holds followers left *with* the claim instead of blocked
    on it; after the release they are the owner's to resolve."""

    __slots__ = ("key", "event", "parked")

    def __init__(self, key: tuple[str, str]) -> None:
        self.key = key
        self.event: threading.Event | None = None
        self.parked: list = []


class ClaimTable:
    """The keys being executed right now, and who waits on each."""

    def __init__(self) -> None:
        self._claims: dict[tuple[str, str], Claim] = {}

    def enter(self, key: tuple[str, str], park=None):
        """Claim ``key``, or join whoever holds it.

        ``(True, claim)`` makes the caller the owner.  ``(False,
        claim)`` means an owner is executing: wait on ``claim.event``
        and look again — or, given ``park``, ``(False, park())`` with
        that follower left on the claim for the owner to resolve.
        """
        claim = self._claims.get(key)
        if claim is None:
            claim = self._claims[key] = Claim(key)
            return True, claim
        if park is not None:
            follower = park()
            claim.parked.append(follower)
            return False, follower
        if claim.event is None:
            claim.event = threading.Event()
        return False, claim

    def release(self, key: tuple[str, str]) -> list:
        """The owner is done either way: free the key, wake the waiters,
        hand back the parked followers."""
        claim = self._claims.pop(key, None)
        if claim is None:
            return []
        if claim.event is not None:
            claim.event.set()
        return claim.parked


class KeyedCache:
    """What both caches are: one LRU and one claim table, neither of
    which locks, under the one lock every method takes."""

    def __init__(self, **bounds: float) -> None:
        self._lru = BoundedTenantLRU(**bounds)
        self._claims = ClaimTable()
        self._lock = threading.Lock()
        self.hits = 0
        self.waits = 0
