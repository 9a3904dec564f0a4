"""System-stack substrate: how software reaches the accelerator.

CRB/CSB/DDE request structures, the VAS switchboard with copy/paste
submission and window credits, a paged address space with translation-
fault injection, and the user-mode driver with the documented
touch-and-resubmit and software-fallback behaviour.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .crb import (CRB_BYTES, CSB_BYTES, CcCode, Crb, Csb, FunctionCode,
                      Op)
    from .dde import DDE_BYTES, Dde
    from .driver import (AsyncNxDriver, DriverResult, NxDriver, PendingJob,
                         SubmissionStats)
    from .mmu import PAGE_SIZE, AddressSpace, FaultInjector
    from .vas import SendWindow, Vas

__all__ = lazy_exports(__name__, {
    "crb": "CRB_BYTES CSB_BYTES CcCode Crb Csb FunctionCode Op",
    "dde": "DDE_BYTES Dde",
    "driver": "AsyncNxDriver DriverResult NxDriver PendingJob "
              "SubmissionStats",
    "mmu": "PAGE_SIZE AddressSpace FaultInjector",
    "vas": "SendWindow Vas",
})
