"""The software backend: the from-scratch zlib running on the cores.

This is the path every production deployment keeps as the last resort —
libnxz falls back to it when the accelerator is unavailable and the
offload advisor routes small buffers to it outright.  Functional output
comes from :mod:`repro.deflate`; time is charged from the calibrated
:class:`SoftwareCostModel` (cycles/byte on the machine's cores), the
same rates the driver's fallback path uses.
"""

from __future__ import annotations

from ..deflate.containers import FORMATS, require_format
from ..nx.dht import CannedLibrary
from ..nx.params import POWER9, MachineParams, get_machine
from ..obs.trace import TRACE as _TRACE
from ..perf.cost import SoftwareCostModel
from ..resilience.verify import run_in_software
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import BackendCapabilities, CompressionBackend


class SoftwareZlibBackend(CompressionBackend):
    """Run DEFLATE on general-purpose cores at the calibrated rate."""

    name = "software"

    def __init__(self, machine: MachineParams | str = POWER9,
                 level: int = 6) -> None:
        super().__init__()
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine = machine
        self.level = level
        self._cost = SoftwareCostModel(machine)
        self._caps = BackendCapabilities(
            name=self.name,
            formats=FORMATS,
            synchronous=True,
            hardware=False,
            compress_gbps=self._cost.compress_rate_mbps(level) / 1000.0,
            decompress_gbps=self._cost.decompress_rate_mbps() / 1000.0,
            per_call_overhead_s=0.0,
        )

    # -- implementation ------------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool,
                  library: CannedLibrary,
                  deadline_s: float | None) -> DriverResult:
        require_format(fmt, history, final)
        output, seconds = run_in_software(
            "compress", data, fmt, level=self.level, history=history,
            final=final, machine=self.machine)
        _TRACE.event("software.deflate", level=self.level)
        stats = SubmissionStats(submissions=1, elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    def _decompress(self, payload: bytes, fmt: str, history: bytes,
                    deadline_s: float | None, max_output: int) -> DriverResult:
        output, seconds = run_in_software(
            "decompress", payload, fmt, history=history,
            machine=self.machine, max_output=max_output)
        stats = SubmissionStats(submissions=1, elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)
