"""Self-healing client for the compression job server.

Thin, dependency-free, and honest about backpressure: a shed request
surfaces as :class:`~repro.errors.ServiceOverloaded` carrying the
server's ``retry_after_s`` hint, and :meth:`ServiceClient.request`
optionally honours it (bounded retries with the server-suggested
backoff) so callers get the paper's shared-accelerator etiquette —
back off, don't hammer — by default.

The wire is a failure domain of its own, and the client owns three
defences (all off the hot path when the connection behaves):

* **Auto-reconnect** (``reconnect=True``): a connection lost mid-call
  is redialled with capped exponential backoff and *deterministic*
  jitter (derived from the request id, so a seeded chaos campaign
  replays the identical timeline), and the request is resent **with
  the same** ``request_id`` — the server's idempotency cache turns the
  resend into a replay, never a second execution.  One logical
  request: one id, one trace, one execution.  The next request under
  the same tenant carries that id back as ``ack``: the client has read
  the reply, so the server may free it.
* **A shared retry budget** — a token bucket spanning all requests on
  the client: successful traffic earns fractional tokens, every retry
  (reconnect or overload) spends one.  Under a genuine outage retries
  starve instead of amplifying the overload into a synchronized storm.
* **Stale-response filtering** — the server echoes ``request_id``;
  any response carrying a different id (a duplicated or stale frame
  from an earlier exchange) is discarded and reading continues, so a
  noisy wire can delay an answer but never cross-wire two requests.

One client owns one socket and is **not** thread-safe; concurrent
callers should each open their own (connections are cheap, the server
threads per connection).  A single :class:`RetryBudget` may be shared
across many clients — that is the point of it.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from ..errors import (RetryBudgetExhausted, ServiceOverloaded,
                      ServiceUnreachable, from_wire)
from ..obs.context import TraceContext
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from ..resilience.policy import _mix
from .protocol import FrameReader, ProtocolError, send_message

#: Reconnect backoff: capped exponential, deterministically jittered.
_BACKOFF_BASE_S = 0.05
_BACKOFF_MAX_S = 2.0
_BACKOFF_JITTER = 0.25

#: Drop at most this many mismatched responses per call before giving
#: up on the connection — a peer spraying stale frames is a dead peer.
_MAX_STALE_DROPS = 16


class RetryBudget:
    """Token bucket damping retries across all of a client's requests.

    Every logical request deposits ``deposit`` tokens (capped at
    ``capacity``); every retry withdraws one.  When the bucket is empty
    the retry is denied — the caller surfaces the underlying failure
    instead of resending.  The arithmetic is time-free and therefore
    deterministic: a seeded campaign replays the same grant/deny
    sequence.  Thread-safe, so one budget can be shared fleet-wide.
    """

    def __init__(self, capacity: float = 16.0, deposit: float = 0.5,
                 initial: float | None = None) -> None:
        self.capacity = float(capacity)
        self.deposit = float(deposit)
        self._tokens = self.capacity if initial is None else float(initial)
        self._lock = threading.Lock()
        self.granted = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def on_request(self) -> None:
        """One logical request started: earn fractional retry credit."""
        with self._lock:
            self._tokens = min(self.capacity, self._tokens + self.deposit)

    def try_withdraw(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.granted += 1
                return True
            self.denied += 1
            _REGISTRY.counter(
                "repro_service_net_retry_denied_total",
                "retries refused by the client retry budget").inc(1)
            return False


class ClientResult:
    """One served request: the bytes plus the server's timing view."""

    __slots__ = ("output", "qos", "modelled_s", "queue_wait_s",
                 "batch_size", "attempts", "traceparent", "request_id",
                 "reconnects", "deduped")

    def __init__(self, output: bytes, header: dict, attempts: int = 1,
                 traceparent: str = "", request_id: str = "",
                 reconnects: int = 0) -> None:
        self.output = output
        self.qos = header.get("qos", "")
        self.modelled_s = float(header.get("modelled_s", 0.0))
        self.queue_wait_s = float(header.get("queue_wait_s", 0.0))
        self.batch_size = int(header.get("batch_size", 1))
        self.attempts = attempts
        #: The trace context this request was sent under; join it with
        #: the server's ``/traces/recent`` trees by its 32-hex trace id.
        self.traceparent = traceparent
        #: The wire idempotency key this logical request kept across
        #: every resend.
        self.request_id = request_id
        #: Connections dialled beyond the first to fulfil this request.
        self.reconnects = reconnects
        #: True when the server replayed the result from its
        #: idempotency cache instead of executing again.
        self.deduped = bool(header.get("deduped", False))


class ServiceClient:
    """Blocking client over one connection to a compression server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout_s: float = 60.0, reconnect: bool = False,
                 max_reconnects: int = 4,
                 retry_budget: RetryBudget | None = None,
                 socket_wrapper=None) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.reconnect = reconnect
        self.max_reconnects = max_reconnects
        #: Shared across requests (and shareable across clients): the
        #: damper that keeps retries from amplifying an overload.
        self.retry_budget = retry_budget or RetryBudget()
        #: Chaos/test hook: wraps every socket this client dials.
        self.socket_wrapper = socket_wrapper
        #: tenant -> request_id of the last ``ok`` reply read under it,
        #: sent as the next request's ``ack`` (on any connection).
        self._acks: dict[str, str] = {}
        self.sock: socket.socket | None = None
        self._connect()

    def _connect(self) -> None:
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout_s)
        except OSError as exc:
            raise ServiceUnreachable(
                f"server unreachable at {self.host}:{self.port} "
                f"({exc.strerror or exc})",
                host=self.host, port=self.port) from exc
        if self.socket_wrapper is not None:
            sock = self.socket_wrapper(sock)
        self.sock = sock
        # A new reader with the new socket: bytes read ahead on the old
        # connection belong to exchanges that died with it.
        self._reader = FrameReader(sock)

    def close(self) -> None:
        if self.sock is None:
            return
        try:
            self.sock.close()
        except OSError:
            pass
        self.sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- raw exchange --------------------------------------------------------

    def call(self, header: dict) -> tuple[dict, bytes]:
        """One payload-less request/response round trip (``ping``,
        ``stats``, ``drain``); raises on a dead socket."""
        if self.sock is None:
            self._connect()
        send_message(self.sock, header, b"")
        message = self._reader.read()
        if message is None:
            raise ProtocolError("server closed the connection")
        return message

    def _call_matching(self, header: dict, payload: bytes,
                       request_id: str, span) -> tuple[dict, bytes]:
        """``call`` that discards responses for *other* request ids.

        A duplicated or delayed frame from an earlier exchange on this
        connection must not be mistaken for this request's answer; the
        echoed ``request_id`` is the discriminator.  Responses without
        an id (old servers, ``ping``/``stats``) pass through.
        """
        if self.sock is None:
            self._connect()
        send_message(self.sock, header, payload)
        for _ in range(_MAX_STALE_DROPS):
            message = self._reader.read()
            if message is None:
                raise ProtocolError("server closed the connection")
            echoed = message[0].get("request_id")
            if echoed is None or echoed == request_id:
                return message
            span.event("client.stale_drop", got=echoed)
            _REGISTRY.counter(
                "repro_service_net_stale_drops_total",
                "stale/duplicated responses discarded by the "
                "client").inc(1)
        raise ProtocolError(
            f"no response for {request_id!r} within "
            f"{_MAX_STALE_DROPS} frames")

    # -- reconnect machinery -------------------------------------------------

    def _backoff_s(self, request_id: str, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter."""
        base = min(_BACKOFF_BASE_S * (2.0 ** (attempt - 1)),
                   _BACKOFF_MAX_S)
        unit = _mix(int(request_id, 16), attempt) / float(1 << 64)
        return base * (1.0 + _BACKOFF_JITTER * (2.0 * unit - 1.0))

    def _reconnect(self, request_id: str, reconnects: int, span,
                   cause: Exception) -> None:
        """Tear down, back off, redial; raises when out of budget."""
        if not self.reconnect or reconnects > self.max_reconnects:
            raise cause
        if not self.retry_budget.try_withdraw():
            raise RetryBudgetExhausted(
                f"retry budget empty after connection failure: "
                f"{cause}") from cause
        self.close()
        span.event("client.reconnect", attempt=reconnects,
                   cause=type(cause).__name__)
        _REGISTRY.counter(
            "repro_service_net_reconnects_total",
            "connections redialled after a wire failure").inc(1)
        _FLIGHT.record("net.reconnect", request_id=request_id,
                       attempt=reconnects, cause=type(cause).__name__)
        time.sleep(self._backoff_s(request_id, reconnects))
        self._connect()  # raises ServiceUnreachable if still down

    # -- typed surface -------------------------------------------------------

    def ping(self) -> bool:
        header, _ = self.call({"op": "ping"})
        return header.get("status") == "ok"

    def stats(self) -> dict:
        header, _ = self.call({"op": "stats"})
        return header.get("stats", {})

    def drain(self) -> bool:
        header, _ = self.call({"op": "drain"})
        return header.get("status") == "ok"

    def request(self, op: str, payload: bytes, *, qos: str | None = None,
                tenant: str = "", fmt: str | None = None,
                strategy: str = "auto", deadline_s: float | None = None,
                retries: int = 0) -> ClientResult:
        """Submit one job; retry overload sheds and connection losses.

        ``retries`` bounds how many times a retryable failure (an
        overload rejection) is retried, sleeping the server's
        ``retry_after_s`` hint between attempts.  The final one, or any
        other failure, raises as the class the reply names.  With
        ``reconnect`` enabled, a connection lost mid-call
        is redialled (up to ``max_reconnects``, spending the shared
        retry budget) and the request resent under the **same**
        ``request_id``, so the server executes it at most once.

        Every request originates a wire trace context, sent as a
        ``traceparent`` header field; retries and resends reuse it (one
        logical request, one trace).  With client-side tracing enabled
        the round trip is additionally covered by a local
        ``client.request`` span stamped with that context.
        """
        ctx = TraceContext.new()
        request_id = os.urandom(8).hex()
        header = {"op": op, "strategy": strategy,
                  "traceparent": ctx.to_traceparent(),
                  "request_id": request_id}
        if qos is not None:
            header["qos"] = qos
        if tenant:
            header["tenant"] = tenant
        if fmt is not None:
            header["fmt"] = fmt
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        ack = self._acks.get(tenant)
        if ack is not None:
            header["ack"] = ack
        attempts = 0
        reconnects = 0
        self.retry_budget.on_request()
        with _TRACE.span("client.request", ctx=ctx, op=op,
                         nbytes=len(payload)) as span:
            while True:
                attempts += 1
                try:
                    response, body = self._call_matching(
                        header, payload, request_id, span)
                except (ProtocolError, ServiceUnreachable, OSError) as exc:
                    reconnects += 1
                    self._reconnect(request_id, reconnects, span, exc)
                    continue
                status = response.get("status")
                if status == "ok":
                    self._acks[tenant] = request_id
                    span.set(status="ok", attempts=attempts,
                             out_bytes=len(body))
                    return ClientResult(body, response, attempts=attempts,
                                        traceparent=ctx.to_traceparent(),
                                        request_id=request_id,
                                        reconnects=reconnects)
                retry_after_s = float(response.get("retry_after_s", 0.0))
                if status == "rejected":
                    error = ServiceOverloaded(
                        response.get("error", "request shed"),
                        retry_after_s=retry_after_s,
                        qos=response.get("qos"))
                else:
                    error = from_wire(response.get("error_type", ""),
                                      response.get("error",
                                                   "request failed"))
                if error.retryable and attempts <= retries \
                        and self.retry_budget.try_withdraw():
                    span.event("client.retry", attempt=attempts)
                    time.sleep(max(0.0, retry_after_s))
                    continue
                span.set(status=status, attempts=attempts,
                         error=type(error).__name__)
                raise error

    def compress(self, payload: bytes, **kwargs) -> ClientResult:
        return self.request("compress", payload, **kwargs)

    def decompress(self, payload: bytes, **kwargs) -> ClientResult:
        return self.request("decompress", payload, **kwargs)
