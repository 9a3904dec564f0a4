"""Accelerator self-test: known-answer vectors through both pipes.

Production firmware runs a power-on self-test and the driver sanity-
checks the engine at window-open: canned vectors go through compress and
decompress, and the plaintext must come back byte for byte.  This
module provides that routine for the model — it doubles as the quickest
possible "is the whole stack wired correctly" check for users.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AcceleratorError, ReproError
from ..obs.metrics import REGISTRY as _REGISTRY
from .compressor import NxCompressor
from .decompressor import NxDecompressor
from .dht import DhtStrategy
from .params import MachineParams

# Known-answer vectors: (name, plaintext).
_VECTORS: list[tuple[str, bytes]] = [
    ("ascii", b"IBM POWER9 and z15 on-chip compression accelerator"),
    ("runs", b"\x00" * 300 + b"\xff" * 300 + b"ab" * 150),
    ("binary", bytes(range(256)) * 4),
    ("single", b"x"),
    ("empty", b""),
]


@dataclass(frozen=True)
class SelfTestReport:
    """Outcome of one self-test run."""

    machine: str
    vectors_run: int
    strategies_run: int
    passed: bool
    compress_passed: bool = True
    decompress_passed: bool = True


def run_selftest(machine: MachineParams,
                 raise_on_failure: bool = True) -> SelfTestReport:
    """Push every vector through every strategy and verify roundtrips."""
    from ..deflate import inflate

    compressor = NxCompressor(machine.engine)
    decompressor = NxDecompressor(machine.engine)
    strategies = list(DhtStrategy)
    failures = []
    compress_ok = decompress_ok = True
    for name, plaintext in _VECTORS:
        for strategy in strategies:
            payload = compressor.compress(plaintext,
                                          strategy=strategy).data
            restored = decompressor.decompress(payload).data
            if restored != plaintext:
                failures.append((name, strategy))
                # Attribute the failure: if the reference software
                # decoder can't restore the payload either, the
                # compressor produced a bad stream; otherwise the
                # decompressor misread a good one.
                try:
                    reference = inflate(payload)
                except Exception:
                    reference = None
                if reference != plaintext:
                    compress_ok = False
                else:
                    decompress_ok = False
    passed = not failures
    gauge = _REGISTRY.gauge(
        "repro_nx_selftest_pass",
        "1 if the engine's known-answer vectors round-trip")
    gauge.set(float(compress_ok), machine=machine.name,
              engine="compress")
    gauge.set(float(decompress_ok), machine=machine.name,
              engine="decompress")
    if not passed and raise_on_failure:
        raise AcceleratorError(
            f"self-test failed on {machine.name}: {failures}")
    return SelfTestReport(machine=machine.name,
                          vectors_run=len(_VECTORS),
                          strategies_run=len(strategies),
                          passed=passed,
                          compress_passed=compress_ok,
                          decompress_passed=decompress_ok)


#: Known-answer input for :func:`probe_backend` — compressible but not
#: degenerate, so a corrupting engine is very unlikely to pass by luck.
_PROBE_VECTOR = (b"nx-health-probe " * 24) + bytes(range(128))


def probe_backend(backend) -> bool:
    """One known-answer job through a *live* backend instance.

    This is the half-open circuit-breaker probe: unlike
    :func:`run_selftest` (which tests the engine model in isolation) it
    goes through the full submission path of an existing backend, so a
    dead or corrupting chip is caught where it actually fails.  A result
    that only succeeded via the software fallback does **not** count —
    the probe asks whether the *hardware* is healthy again.
    """
    try:
        result = backend.compress(_PROBE_VECTOR)
    except ReproError:
        ok = False
    else:
        hardware = (result.csb is not None
                    and not result.stats.fallback_to_software)
        if hardware:
            from ..resilience.verify import verify_payload

            fmt = backend.capabilities().default_format
            ok = verify_payload(_PROBE_VECTOR, result.output, fmt)
        else:
            ok = False
    _REGISTRY.counter(
        "repro_nx_probe_total",
        "half-open breaker probes by outcome").inc(
        1, backend=backend.name, outcome="pass" if ok else "fail")
    return ok
