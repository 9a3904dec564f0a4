"""The 842 backend: the NX unit's memory-compression pipes, standalone.

842 is the template codec the NX shipped before the gzip engines — no
Huffman stage, so it streams at line rate with a weaker ratio.  This
backend drives the bare :class:`Engine842` (AIX active-memory-expansion
style usage, where the kernel calls the engine directly without the
gzip driver stack); to run 842 jobs through the full CRB/VAS protocol
instead, use the ``nx`` backend with ``fmt="842"``.
"""

from __future__ import annotations

from ..e842.engine import (BYTES_PER_CYCLE, CLOCK_GHZ, PIPELINE_FILL_CYCLES,
                          Engine842)
from ..errors import ConfigError
from ..nx.dht import CannedLibrary
from ..obs.trace import TRACE as _TRACE
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import BackendCapabilities, CompressionBackend


class E842Backend(CompressionBackend):
    """Template-codec engine pair: fast, Huffman-free, fixed format."""

    name = "842"

    def __init__(self, machine=None) -> None:
        # ``machine`` is accepted (and ignored) so the registry can pass
        # one uniformly; the 842 engine model is machine-independent.
        super().__init__()
        self.engine = Engine842()
        line_rate = CLOCK_GHZ * BYTES_PER_CYCLE
        self._caps = BackendCapabilities(
            name=self.name,
            formats=("842",),
            synchronous=True,
            hardware=True,
            compress_gbps=line_rate,
            decompress_gbps=line_rate,
            per_call_overhead_s=PIPELINE_FILL_CYCLES / (CLOCK_GHZ * 1e9),
        )

    # -- implementation ------------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool,
                  library: CannedLibrary,
                  deadline_s: float | None) -> DriverResult:
        self._check(history, final)
        result = self.engine.compress(data)
        _TRACE.event("e842.pipe", op="compress", seconds=result.seconds)
        stats = SubmissionStats(submissions=1,
                                elapsed_seconds=result.seconds)
        return DriverResult(output=result.data, csb=None, stats=stats,
                            engine_result=result)

    def _decompress(self, payload: bytes, fmt: str, history: bytes,
                    deadline_s: float | None, max_output: int) -> DriverResult:
        self._check(history, final=True)
        result = self.engine.decompress(payload, max_output)
        stats = SubmissionStats(submissions=1,
                                elapsed_seconds=result.seconds)
        return DriverResult(output=result.data, csb=None, stats=stats,
                            engine_result=result)

    @staticmethod
    def _check(history: bytes, final: bool) -> None:
        if history or not final:
            raise ConfigError("842 has no continuation state")
