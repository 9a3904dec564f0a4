"""Exactly-once result replay for resent requests.

The wire protocol has client-generated ``request_id`` idempotency keys
(see :mod:`repro.service.protocol`); this module is the server-side
half: :mod:`repro.dictsvc.keyed`'s LRU of recently completed replies
and its claim table, keyed by ``(tenant, request_id)``.  A resend after
the result was computed is a **hit** (the reply is replayed, the job
never re-executes); one racing the first attempt **waits** for it — the
double-execute window when a client reconnects faster than the server
finishes; one after a failure finds the key free and executes.

A reply is kept until its client **acknowledges** it: the client's next
request under the same tenant names the last reply it read in ``ack``,
and that entry becomes a zero-byte *tombstone* in the same critical
section as the new request's lookup.  The tombstone keeps the key and
its LRU slot, so a stale or duplicated frame of the acknowledged
request is still a hit — answered with a typed error, executing
nothing — while its reply bytes are freed.  A client that never acks
gets the LRU-bounded replay.

Bounds: ``max_entries`` results and ``max_bytes`` of reply payload per
tenant, oldest first, so a chatty tenant cannot grow server memory
without bound or wash out other tenants' windows.  ``stats()`` exposes
exact counters — ``hits``, ``stores``, ``duplicate_stores``,
``evictions``, ``waits``, ``acks`` and the reply ``bytes`` retained —
that the network chaos campaign reconciles against client-side success
counts: ``duplicate_stores == 0`` *is* the zero-double-execution proof.
"""

from __future__ import annotations

from ..dictsvc.keyed import KeyedCache

#: Default bounds: plenty for a reconnect window, bounded for a fleet.
DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 32 << 20
DEFAULT_MAX_TENANTS = 64

#: What an acknowledged reply leaves in the table: its key, no bytes.
_ACKED = ("acked",)


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
        self.acks = 0

    # -- the handler-facing protocol -----------------------------------------

    def begin(self, tenant: str, request_id: str, ack: str | None = None):
        """Start (or join) one keyed execution: ``("hit", (header,
        body))`` to replay, ``("acked", None)`` for a request whose
        client already acknowledged its reply, ``("owner", key)`` to
        execute and then :meth:`commit` or :meth:`abort`, or ``("wait",
        claim)`` to wait on ``claim.event`` and call again.

        ``ack`` names the tenant's reply the client read last: a stored
        one becomes a tombstone.  Any other value (unknown, another
        tenant's, still executing, this request's own) changes nothing.
        """
        with self._lock:
            if (ack is not None and ack != request_id
                    and self._lru.shrink(tenant, ack, _ACKED)):
                self.acks += 1
            cached = self._lru.get(tenant, request_id)
            if cached is not None:
                self.hits += 1
                if cached is _ACKED:
                    return "acked", None
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
                "acks": self.acks,
                "bytes": self._lru.bytes,
            }
