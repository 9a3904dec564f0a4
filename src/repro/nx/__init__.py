"""The accelerator model: the paper's primary contribution.

Behavioural + cycle-approximate model of the POWER9 NX-GZIP and z15
Integrated-Accelerator-for-zEDC compression engines: the banked-hash
match pipeline, the DHT generator, the job engine with CRB/CSB/DDE
semantics, and the chip-level accelerator behind the VAS switchboard.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .accelerator import CompletedJob, NxAccelerator
    from .compressor import CycleBreakdown, NxCompressor, NxCompressResult
    from .decompressor import NxDecompressor, NxDecompressResult
    from .dht import DhtStrategy, canned_dht, canned_names, select_canned
    from .engine import EngineCounters, JobOutcome, NxEngine
    from .params import (MACHINES, POWER9, Z15, EngineParams, MachineParams,
                         Topology, get_machine, z15_max_config)
    from .pipeline import NxMatchPipeline, ScanResult
    from .selftest import SelfTestReport, run_selftest
    from .z15 import (ConditionCode, Dfltcc, DfltccFunction, ParameterBlock,
                      dfltcc_compress, dfltcc_expand)

__all__ = lazy_exports(__name__, {
    "accelerator": "CompletedJob NxAccelerator",
    "compressor": "CycleBreakdown NxCompressor NxCompressResult",
    "decompressor": "NxDecompressor NxDecompressResult",
    "dht": "DhtStrategy canned_dht canned_names select_canned",
    "engine": "EngineCounters JobOutcome NxEngine",
    "params": "MACHINES POWER9 Z15 EngineParams MachineParams Topology "
              "get_machine z15_max_config",
    "pipeline": "NxMatchPipeline ScanResult",
    "selftest": "SelfTestReport run_selftest",
    "z15": "ConditionCode Dfltcc DfltccFunction ParameterBlock "
           "dfltcc_compress dfltcc_expand",
})
