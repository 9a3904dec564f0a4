"""repro: behavioural reproduction of the IBM POWER9/z15 on-chip data
compression accelerator (Abali et al., ISCA 2020).

Quick start::

    from repro import NxGzip

    with NxGzip("POWER9") as session:
        compressed = session.compress(b"hello " * 1000)
        restored = session.decompress(compressed.data)

Packages:

* :mod:`repro.deflate` — from-scratch DEFLATE/zlib/gzip codec (software
  baseline).
* :mod:`repro.nx` — the accelerator model (match pipeline, DHT, engines).
* :mod:`repro.sysstack` — CRB/DDE/VAS/MMU/driver submission stack.
* :mod:`repro.perf` — calibrated cost, timing, queueing, system models.
* :mod:`repro.workloads` — synthetic corpora, traces, Spark TPC-DS model.
* :mod:`repro.backend` — the unified backend layer (protocol, registry,
  accelerator pool) every consumer routes through.
* :mod:`repro.core` — the high-level session API and reporting helpers.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .backend import (AcceleratorPool, BackendCapabilities,
                          CompressionBackend, backend_names,
                          create_backend, default_backend,
                          register_backend)
    from .core import (Analysis, CompressedBuffer, NxGzip, OffloadAdvisor,
                       Route, analyze)
    from .nx import POWER9, Z15, DhtStrategy, get_machine, z15_max_config

__version__ = "1.0.0"

__all__ = [*lazy_exports(__name__, {
    "backend": "AcceleratorPool BackendCapabilities CompressionBackend "
               "backend_names create_backend default_backend "
               "register_backend",
    "core": "Analysis CompressedBuffer NxGzip OffloadAdvisor Route analyze",
    "nx": "POWER9 Z15 DhtStrategy get_machine z15_max_config",
}), "__version__"]
