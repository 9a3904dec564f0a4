"""The POWER9 asynchronous NX backend: CRB → VAS paste → drain → CSB.

This wraps the full modelled user/kernel stack (:class:`NxDriver`
on an :class:`NxAccelerator` with a faultable :class:`AddressSpace`) so
it exercises exactly what the old ``NxGzip`` construction did: credit
flow control on the send window, touch-and-resubmit on translation
faults, target-buffer growth, and the bounded-retry software fallback.

Beyond the synchronous protocol methods it exposes the asynchronous
batch surface (``submit``/``poll``/``wait_all``) the POWER9 interface
exists for — the :class:`AcceleratorPool` drives that to keep several
jobs in flight per chip.
"""

from __future__ import annotations

from dataclasses import replace

from ..deflate.containers import FORMATS
from ..errors import NO_BOUND, ConfigError
from ..nx.accelerator import NxAccelerator
from ..nx.dht import BUILTIN, CannedLibrary
from ..nx.params import POWER9, MachineParams, get_machine
from ..perf.cost import accelerator_effective_gbps
from ..sysstack.crb import Op
from ..sysstack.driver import (DEFAULT_MAX_RETRIES, DriverResult, NxDriver,
                               PendingJob)
from ..sysstack.mmu import AddressSpace, FaultInjector
from .base import BackendCapabilities, CompressionBackend

_FORMATS = FORMATS + ("842",)

_COMPRESS_OPS = {"compress": Op.COMPRESS, "decompress": Op.DECOMPRESS}


def _ops_for(fmt: str) -> tuple[Op, Op, str]:
    """Map a wire format to (compress op, decompress op, driver fmt)."""
    if fmt == "842":
        return Op.COMPRESS_842, Op.DECOMPRESS_842, "raw"
    return Op.COMPRESS, Op.DECOMPRESS, fmt


class NxAsyncBackend(CompressionBackend):
    """One chip's NX unit behind the documented submission protocol."""

    name = "nx"

    def __init__(self, machine: MachineParams | str = POWER9,
                 fault_probability: float = 0.0, seed: int = 0,
                 engine=None,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        super().__init__()
        if isinstance(machine, str):
            machine = get_machine(machine)
        if engine is not None:
            machine = replace(machine, engine=engine)
        self.machine = machine
        self.space = AddressSpace(
            fault_injector=FaultInjector(fault_probability, seed=seed))
        self.accelerator = NxAccelerator(machine)
        self.driver = NxDriver(self.accelerator, self.space,
                               max_retries=max_retries)
        self.driver.open()
        self._caps = BackendCapabilities(
            name=self.name,
            formats=_FORMATS,
            synchronous=False,
            hardware=True,
            compress_gbps=_effective_gbps(machine, "compress"),
            decompress_gbps=_effective_gbps(machine, "decompress"),
            per_call_overhead_s=(machine.submit_overhead_us
                                 + machine.dispatch_overhead_us
                                 + machine.completion_overhead_us) * 1e-6,
        )

    def close(self) -> None:
        self.driver.close()

    # -- synchronous protocol ------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool,
                  library: CannedLibrary,
                  deadline_s: float | None) -> DriverResult:
        op, _, driver_fmt = _ops_for(fmt)
        return self.driver.run(op, data, strategy=strategy, fmt=driver_fmt,
                               history=history, final=final,
                               deadline_s=deadline_s, library=library)

    def _decompress(self, payload: bytes, fmt: str, history: bytes,
                    deadline_s: float | None, max_output: int) -> DriverResult:
        _, op, driver_fmt = _ops_for(fmt)
        return self.driver.run(op, payload, fmt=driver_fmt, history=history,
                               deadline_s=deadline_s,
                               max_output=max_output)

    # -- asynchronous batch surface ------------------------------------------

    def submit(self, kind: str, data: bytes, *, strategy: object = "auto",
               fmt: str | None = None,
               deadline_s: float | None = None,
               library: CannedLibrary = BUILTIN,
               max_output: int = NO_BOUND) -> PendingJob:
        """Paste one request without waiting; poll for its completion."""
        if kind not in _COMPRESS_OPS:
            raise ConfigError(f"unknown job kind {kind!r}")
        fmt, strategy = self._checked(fmt, strategy)
        cop, dop, driver_fmt = _ops_for(fmt)
        op = cop if kind == "compress" else dop
        return self.driver.submit(op, data, strategy=strategy,
                                  fmt=driver_fmt, deadline_s=deadline_s,
                                  library=library, max_output=max_output)

    def poll(self) -> list[PendingJob]:
        """Drain completions; finished jobs are folded into ``stats()``."""
        return self._recorded(self.driver.poll())

    def wait_all(self) -> list[PendingJob]:
        """Poll until every in-flight job on this backend completes."""
        return self._recorded(self.driver.wait_all())

    def _recorded(self, finished: list[PendingJob]) -> list[PendingJob]:
        """Async completions bypass the public methods' record hook."""
        for job in finished:
            if job.result is not None:  # a failed job has none to account
                op = ("compress" if job.op in (Op.COMPRESS, Op.COMPRESS_842)
                      else "decompress")
                self._record(job.result, job.data_len, op)
        return finished

    def cancel_pending(self) -> list[PendingJob]:
        """Abandon in-flight jobs and reclaim their window credits."""
        return self.driver.cancel_pending()

    @property
    def in_flight(self) -> int:
        return self.driver.in_flight

    @property
    def capacity(self) -> int:
        """Send-window credits: the useful in-flight depth per chip.

        Submitting beyond this only spins the paste-backoff loop, so
        batch-sizing callers (the pool's ``suggested_batch_depth``, the
        service dispatcher) cap coalescing here.
        """
        return self.driver.credits


def _effective_gbps(machine: MachineParams, op: str) -> float:
    """Calibrated rate; measure the engine model for uncalibrated sweeps."""
    try:
        return accelerator_effective_gbps(machine, op)
    except ValueError:
        from ..perf.cost import measure_effective_gbps
        sample = bytes(range(256)) * 64
        return measure_effective_gbps(machine, sample)
