"""Process-based execution layer: warm worker pools + shared-memory slabs.

The seams above (``deflate/parallel``, the backend pool, the service
dispatcher) submit jobs here instead of spinning up per-call process
pools.  See DESIGN.md "Execution layer" for ownership and failure
semantics.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .pool import (ExecJob, ProcessWorkerPool, get_default_pool,
                       shutdown_default_pool)
    from .shm import Slab, SlabAllocator, live_segments
    from .worker import in_worker, register_worker_fn

__all__ = lazy_exports(__name__, {
    "pool": "ExecJob ProcessWorkerPool get_default_pool "
            "shutdown_default_pool",
    "shm": "Slab SlabAllocator live_segments",
    "worker": "in_worker register_worker_fn",
})
