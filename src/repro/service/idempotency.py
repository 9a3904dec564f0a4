"""Exactly-once result replay for resent requests.

The wire protocol has client-generated ``request_id`` idempotency keys
(see :mod:`repro.service.protocol`); this module is the server-side
half: :mod:`repro.dictsvc.keyed`'s LRU of recently completed replies
and its claim table, keyed by ``(tenant, request_id)``.  A resend after
the result was computed is a **hit** (the reply is replayed, the job
never re-executes); one racing the first attempt **waits** for it — the
double-execute window when a client reconnects faster than the server
finishes; one after a failure finds the key free and executes.

Bounds: ``max_entries`` results and ``max_bytes`` of reply payload per
tenant, oldest first, so a chatty tenant cannot grow server memory
without bound or wash out other tenants' windows.  ``stats()`` exposes
exact counters — ``hits``, ``stores``, ``duplicate_stores``,
``evictions``, ``waits`` — that the network chaos campaign reconciles
against client-side success counts: ``duplicate_stores == 0`` *is* the
zero-double-execution proof.
"""

from __future__ import annotations

from ..dictsvc.keyed import KeyedCache

#: Default bounds: plenty for a reconnect window, bounded for a fleet.
DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 32 << 20
DEFAULT_MAX_TENANTS = 64


class IdempotencyCache(KeyedCache):
    """Per-tenant LRU of completed results + in-flight claim table."""

    def __init__(self, *, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_tenants: int = DEFAULT_MAX_TENANTS) -> None:
        # request_id -> (header, body), charged len(body).
        super().__init__(tenant_max_entries=max_entries,
                         tenant_max_bytes=max_bytes, max_tenants=max_tenants)
        self.stores = 0
        self.duplicate_stores = 0

    # -- the handler-facing protocol -----------------------------------------

    def begin(self, tenant: str, request_id: str):
        """Start (or join) one keyed execution: ``("hit", (header,
        body))`` to replay, ``("owner", key)`` to execute and then
        :meth:`commit` or :meth:`abort`, or ``("wait", claim)`` to wait
        on ``claim.event`` and call again."""
        with self._lock:
            cached = self._lru.get(tenant, request_id)
            if cached is not None:
                self.hits += 1
                return "hit", cached
            owner, claim = self._claims.enter((tenant, request_id))
            if owner:
                return "owner", claim.key
            self.waits += 1
            return "wait", claim

    def commit(self, key: tuple[str, str], header: dict,
               body: bytes) -> bool:
        """Record the owner's completed result; wake any waiters.

        Returns False — and counts a ``duplicate_store`` — if the key
        was already present, which a correct server never produces.
        """
        with self._lock:
            fresh = self._lru.put(*key, (header, body), len(body))
            if fresh:
                self.stores += 1
            else:
                self.duplicate_stores += 1
            self._claims.release(key)
            return fresh

    def abort(self, key: tuple[str, str]) -> None:
        """The owner failed without a result: free the key for retry."""
        with self._lock:
            self._claims.release(key)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "stores": self.stores,
                "duplicate_stores": self.duplicate_stores,
                "evictions": self._lru.evictions,
                "waits": self.waits,
                "entries": len(self._lru.order),
                "tenants": len(self._lru.tenants),
            }
