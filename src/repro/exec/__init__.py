"""Process-based execution layer: one warm pool of worker processes.

The seams above (the backend pool, and through it the service
dispatcher) submit jobs here instead of spinning up per-call process
pools.  Each worker is a plain child process with one task pipe and one
result pipe; see DESIGN.md "Execution layer" for the protocol and the
failure semantics.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .pool import (ExecJob, ProcessWorkerPool, get_default_pool,
                       shutdown_default_pool)
    from .worker import in_worker

__all__ = lazy_exports(__name__, {
    "pool": "ExecJob ProcessWorkerPool get_default_pool "
            "shutdown_default_pool",
    "worker": "in_worker",
})
