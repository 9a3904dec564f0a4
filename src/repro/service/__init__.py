"""Compression-as-a-service: a multi-client job server over the pool.

The paper's accelerator is a *shared* resource — one NX/zEDC per chip
serving every tenant on the machine.  This package is the software
discipline that sharing requires:

* :mod:`repro.service.core` — :class:`CompressionService`, the
  in-process server: bounded per-QoS-class queues with explicit
  reject-with-retry-after backpressure, a single dispatcher coalescing
  requests into async batches (sized by the E16 saturation depth), and
  graceful drain;
* :mod:`repro.service.qos` — QoS classes mapped onto the two VAS
  receive FIFOs with the E14 starvation-bounded arbitration;
* :mod:`repro.service.protocol` / :mod:`~repro.service.server` /
  :mod:`~repro.service.client` — the length-prefixed TCP surface
  (``repro serve`` / ``repro submit``) over the same service object.

Quick start (in-process)::

    from repro.service import CompressionService

    with CompressionService(chips=2) as svc:
        result = svc.compress(b"payload" * 1000, qos="interactive")

Over a socket::

    from repro.service import CompressionService, ServiceClient, serve

    svc = CompressionService(chips=2)
    server = serve(svc, port=0)
    with ServiceClient(port=server.port) as client:
        out = client.compress(b"payload" * 1000, qos="bulk").output
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .client import ClientResult, RetryBudget, ServiceClient
    from .core import CompressionService, ServiceStats
    from .idempotency import IdempotencyCache
    from .protocol import ProtocolError, recv_message, send_message
    from .qos import (DEFAULT_CLASSES, DEFAULT_STARVATION_BOUND, FIFOS,
                      QosClass, QosPolicy)
    from .server import CompressionServer, serve

__all__ = lazy_exports(__name__, {
    "client": "ClientResult RetryBudget ServiceClient",
    "core": "CompressionService ServiceStats",
    "idempotency": "IdempotencyCache",
    "protocol": "ProtocolError recv_message send_message",
    "qos": "DEFAULT_CLASSES DEFAULT_STARVATION_BOUND FIFOS QosClass "
           "QosPolicy",
    "server": "CompressionServer serve",
})
