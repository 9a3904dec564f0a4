"""Unified backend layer: one protocol, four execution paths, one pool.

Everything above the machine models — the public API session, the CLI,
workloads, and benchmarks — acquires compression engines here, by name
from the registry or pooled across chips by :class:`AcceleratorPool`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import BackendCapabilities, BackendStats, CompressionBackend
    from .pool import SOFTWARE, AcceleratorPool, Job
    from .registry import (backend_capabilities, backend_names,
                           create_backend, default_backend,
                           register_backend, unregister_backend)
    from .routing import ROUTING_POLICIES

__all__ = lazy_exports(__name__, {
    "base": "BackendCapabilities BackendStats CompressionBackend",
    "pool": "SOFTWARE AcceleratorPool Job",
    "registry": "backend_capabilities backend_names create_backend "
                "default_backend register_backend unregister_backend",
    "routing": "ROUTING_POLICIES",
})
