"""TCP front end for :class:`~repro.service.core.CompressionService`.

A :class:`ThreadingTCPServer` speaking the length-prefixed protocol of
:mod:`repro.service.protocol`.  Each connection gets a handler thread
that parses requests, submits them to the shared service (admission
control, QoS, batching all happen there), and writes the response —
so the socket layer adds connection handling and nothing else; every
policy decision lives in the in-process service and is equally
exercised by in-process callers and remote clients.

Overload and failure map onto the wire as structured responses, never
dropped connections: a shed request returns ``status: rejected`` with
``retryable: true`` and the server's ``retry_after_s`` hint.  The
connection layer adds three wire-robustness guarantees on top:

* **Idle read deadlines** — a connection that goes silent (or
  slow-loris dribbles) mid-frame is closed after ``idle_timeout_s``,
  so abandoned sockets cannot pin handler threads forever.
* **Typed bad-frame rejection** — a structurally broken request
  (garbage or oversized header, oversized payload declaration) is
  answered with ``error_type: "bad_frame"`` before the connection
  closes; the dispatcher never sees the frame and stays healthy.
* **Exactly-once resends** — requests carrying a ``request_id`` are
  deduplicated through a bounded per-tenant
  :class:`~repro.service.idempotency.IdempotencyCache`: a resend after
  a broken connection replays the cached result (``deduped: true``)
  instead of executing the job twice, and a resend racing the first
  execution waits for it rather than double-running it.  A request's
  ``ack`` frees the reply its client read before it; a stale frame of
  that acknowledged request is answered with a non-retryable error.
"""

from __future__ import annotations

import socketserver
import threading

from ..errors import (RETRYABLE, ConfigError, ReproError, ServiceError,
                      failure_of, wire_name)
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from .core import CompressionService, finite_seconds
from .idempotency import IdempotencyCache
from .protocol import FrameReader, ProtocolError, send_message

#: Ops a connection may invoke; anything else is a protocol error.
_OPS = ("compress", "decompress", "ping", "stats", "drain")

#: Close a connection that sends nothing readable for this long.
DEFAULT_IDLE_TIMEOUT_S = 120.0

#: Bound on begin()/wait loops for one keyed request: an owner always
#: commits or aborts, so more spins than this means something is wrong.
_MAX_DEDUP_WAITS = 16


#: Optional request header fields that are strings on the wire, and the
#: ``CompressionService.submit`` argument each becomes.
_STR_FIELDS = (("fmt", "fmt"), ("strategy", "strategy"), ("qos", "qos"),
               ("tenant", "tenant"), ("traceparent", "traceparent"),
               ("request_id", "client_request_id"))


def _request_fields(header: dict) -> dict:
    """The optional fields of a request as ``submit`` arguments.

    A malformed field is ignored, never fatal: one of the wrong type is
    dropped here, once, before the idempotency table or admission see
    it (a list is no dict key, a string no deadline).
    """
    fields = {}
    for name, argument in _STR_FIELDS:
        value = header.get(name)
        if isinstance(value, str):
            fields[argument] = value
    deadline = finite_seconds(header.get("deadline_s"))
    if deadline is not None:
        fields["deadline_s"] = deadline
    return fields


def _net_counter(name: str, help_text: str, **labels) -> None:
    _REGISTRY.counter(name, help_text).inc(1, **labels)


class _Handler(socketserver.BaseRequestHandler):
    """One connection: loop reading requests until the peer hangs up."""

    def handle(self) -> None:
        service: CompressionService = self.server.service
        self.request.settimeout(self.server.idle_timeout_s)
        _net_counter("repro_service_net_connections_total",
                     "connections accepted by the service socket")
        reader = FrameReader(self.request)
        while True:
            try:
                message = reader.read()
            except TimeoutError:
                _net_counter("repro_service_net_idle_timeouts_total",
                             "connections closed at the idle deadline")
                _FLIGHT.record("net.idle_timeout",
                               timeout_s=self.server.idle_timeout_s)
                return
            except ProtocolError as exc:
                self._reject_bad_frame(exc)
                return
            except OSError:
                return
            if message is None:
                return
            header, payload = message
            try:
                response, body = self._serve(service, header, payload)
            except ProtocolError:
                # e.g. a keyed request that never resolved: nothing
                # trustworthy to answer with — drop the connection.
                return
            except OSError:
                return
            try:
                send_message(self.request, response, body)
            except OSError:
                return

    def _reject_bad_frame(self, exc: ProtocolError) -> None:
        """Answer a structurally broken frame with a typed error.

        Only ``answerable`` failures (the reader's stream position is
        still coherent) get a response; a peer that vanished mid-frame
        gets nothing because there is nothing to write to.  Either way
        the connection closes — resynchronising a stream after garbage
        would be guessing.
        """
        _net_counter("repro_service_net_bad_frames_total",
                     "structurally broken frames received",
                     kind=exc.kind)
        _FLIGHT.record("net.bad_frame", kind=exc.kind, error=str(exc))
        if not exc.answerable:
            return
        try:
            send_message(self.request, _error_reply(exc, kind=exc.kind))
        except OSError:
            pass

    def _serve(self, service: CompressionService, header: dict,
               payload: bytes) -> tuple[dict, bytes]:
        op = header.get("op")
        if op == "ping":
            return {"status": "ok", "op": "ping"}, b""
        if op == "stats":
            stats = service.stats()
            doc = {"accepted": stats.accepted,
                   "rejected": stats.rejected,
                   "expired": stats.expired,
                   "completed": stats.completed,
                   "failed": stats.failed,
                   "queued": stats.queued,
                   "batches": stats.batches,
                   "bytes_in": stats.bytes_in,
                   "bytes_out": stats.bytes_out,
                   "state": stats.state,
                   "per_class": stats.per_class}
            if self.server.dedup is not None:
                doc["dedup"] = self.server.dedup.stats()
            return {"status": "ok", "op": "stats", "stats": doc}, b""
        if op == "drain":
            # Drain in the background so this response still goes out.
            threading.Thread(target=service.drain, daemon=True).start()
            return {"status": "ok", "op": "drain"}, b""
        if op not in ("compress", "decompress"):
            return _error_reply(ConfigError(
                f"unknown op {op!r}; have {_OPS}")), b""
        request = _request_fields(header)
        if not request.get("client_request_id") or self.server.dedup is None:
            request.pop("client_request_id", None)
            return self._execute(service, op, payload, request)
        ack = header.get("ack")
        return self._serve_idempotent(service, op, payload, request,
                                      ack if isinstance(ack, str) else None)

    def _serve_idempotent(self, service: CompressionService, op: str,
                          payload: bytes, request: dict,
                          ack: str | None) -> tuple[dict, bytes]:
        """At-most-one execution per ``(tenant, request_id)``; ``ack``
        frees the reply the client read before this request."""
        dedup: IdempotencyCache = self.server.dedup
        tenant = request.get("tenant", "")
        request_id = request["client_request_id"]
        for _ in range(_MAX_DEDUP_WAITS):
            state, token = dedup.begin(tenant, request_id, ack)
            if state == "acked":
                # A stale frame of a request whose reply the client
                # has read: nothing to replay, nothing to run.
                _FLIGHT.record("net.acked_resend", request_id=request_id,
                               op=op, tenant=tenant)
                return _error_reply(ServiceError(
                    f"request {request_id!r} was already answered and "
                    "acknowledged"), request_id=request_id), b""
            if state == "hit":
                cached_header, body = token
                response = dict(cached_header)
                response["deduped"] = True
                _net_counter("repro_service_net_dedup_hits_total",
                             "resent requests served from the result "
                             "cache", op=op)
                _FLIGHT.record("net.dedup_hit", request_id=request_id,
                               op=op, tenant=tenant)
                return response, body
            if state == "wait":
                # Another connection is executing this very request
                # (the client reconnected faster than we finished).
                token.event.wait(self.server.request_timeout_s)
                continue
            committed = False
            try:
                response, body = self._execute(service, op, payload,
                                               request)
                if response["status"] == "ok":
                    dedup.commit(token, response, body)
                    committed = True
                return response, body
            finally:
                if not committed:
                    dedup.abort(token)
        raise ProtocolError(
            f"request {request_id!r} still unresolved after "
            f"{_MAX_DEDUP_WAITS} dedup waits")

    def _execute(self, service: CompressionService, op: str,
                 payload: bytes, request: dict) -> tuple[dict, bytes]:
        request_id = request.get("client_request_id")
        echo = {} if request_id is None else {"request_id": request_id}
        try:
            result = service.submit(op, payload, **request).wait(
                self.server.request_timeout_s)
        except (ReproError, TimeoutError) as exc:
            return _error_reply(exc, **echo), b""
        return {"status": "ok", "op": op, "qos": result.qos,
                "modelled_s": result.modelled_seconds,
                "queue_wait_s": result.queue_wait_s,
                "batch_size": result.batch_size,
                **echo}, result.output


def _error_reply(exc: BaseException, **fields: object) -> dict:
    """The reply header for a request that ended in ``exc``: a shed is
    ``rejected`` with the server's retry hint, any other failure an
    ``error`` naming its class in ``error_type`` (:mod:`repro.errors`)."""
    failure = failure_of(exc)
    if failure == "overload":
        return {"status": "rejected", "retryable": True, "error": str(exc),
                "qos": exc.qos, "retry_after_s": exc.retry_after_s,
                **fields}
    return {"status": "error", "retryable": failure in RETRYABLE,
            "error_type": wire_name(exc), "error": str(exc), **fields}


class CompressionServer(socketserver.ThreadingTCPServer):
    """The TCP server; one shared service behind all connections."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 service: CompressionService,
                 request_timeout_s: float = 60.0, *,
                 idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
                 dedup: IdempotencyCache | None = None,
                 socket_wrapper=None) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.request_timeout_s = request_timeout_s
        self.idle_timeout_s = idle_timeout_s
        #: Result cache behind request_id idempotency; always on unless
        #: explicitly disabled with ``dedup=None`` via :func:`serve`.
        self.dedup = dedup if dedup is not None else IdempotencyCache()
        #: Test/chaos hook: wrap every accepted connection's socket
        #: (e.g. :func:`repro.resilience.faults.fault_factory`).
        self.socket_wrapper = socket_wrapper

    def get_request(self):
        sock, addr = super().get_request()
        if self.socket_wrapper is not None:
            sock = self.socket_wrapper(sock)
        return sock, addr

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve(service: CompressionService, host: str = "127.0.0.1",
          port: int = 0, **server_kwargs) -> CompressionServer:
    """Bind and start serving on a background thread.

    ``port=0`` picks an ephemeral port (read it back off ``.port``).
    Keyword arguments (``idle_timeout_s``, ``dedup``,
    ``socket_wrapper``…) pass through to :class:`CompressionServer`.
    The caller owns shutdown: ``server.shutdown()`` stops the accept
    loop, then drain/close the service.
    """
    server = CompressionServer((host, port), service, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-service-accept", daemon=True)
    thread.start()
    return server
