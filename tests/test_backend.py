"""Backend layer: registry, protocol round-trips, wire parity, stats."""

from __future__ import annotations

import gzip as stdlib_gzip
import zlib as stdlib_zlib

import pytest

from repro.backend import (
    backend_capabilities,
    backend_names,
    create_backend,
    default_backend,
    register_backend,
    unregister_backend,
)
from repro.core.api import NxGzip
from repro.errors import ConfigError
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9, Z15
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace, FaultInjector

BUILTIN = ("software", "nx", "dfltcc", "842")


# -- registry ----------------------------------------------------------------

def test_all_builtin_names_resolvable():
    for name in BUILTIN:
        assert name in backend_names()
        with create_backend(name) as backend:
            assert backend.name == name
            caps = backend.capabilities()
            assert caps.name == name
            assert caps.formats
            assert caps.default_format == caps.formats[0]


def test_unknown_backend_reports_available():
    with pytest.raises(ConfigError, match="unknown backend"):
        create_backend("zstd")


def test_register_alias_entry_point_spec():
    register_backend("nx-alias", "repro.backend.nx_async:NxAsyncBackend")
    try:
        assert "nx-alias" in backend_names()
        with create_backend("nx-alias", machine=POWER9) as backend:
            out = backend.compress(b"alias " * 200).output
            assert stdlib_gzip.decompress(out) == b"alias " * 200
    finally:
        unregister_backend("nx-alias")
    assert "nx-alias" not in backend_names()


def test_register_duplicate_rejected_unless_replace():
    with pytest.raises(ConfigError, match="already registered"):
        register_backend("nx", "repro.backend.nx_async:NxAsyncBackend")
    # replace=True is allowed and unregister restores the builtin spec.
    register_backend("nx", "repro.backend.nx_async:NxAsyncBackend",
                     replace=True)
    unregister_backend("nx")
    with create_backend("nx") as backend:
        assert backend.name == "nx"


def test_default_backend_per_machine():
    assert default_backend(POWER9) == "nx"
    assert default_backend(Z15) == "dfltcc"
    assert default_backend("z15") == "dfltcc"


def test_backend_capabilities_helper():
    caps = backend_capabilities("dfltcc")
    assert caps.synchronous and caps.hardware
    caps = backend_capabilities("software", machine=POWER9)
    assert not caps.hardware
    assert caps.per_call_overhead_s == 0.0


# -- protocol round-trips ----------------------------------------------------

@pytest.mark.parametrize("name", BUILTIN)
def test_round_trip_every_format(name, payload_suite):
    with create_backend(name) as backend:
        for fmt in backend.capabilities().formats:
            for label, data in payload_suite.items():
                compressed = backend.compress(data, fmt=fmt)
                restored = backend.decompress(compressed.output, fmt=fmt)
                assert restored.output == data, (name, fmt, label)


@pytest.mark.parametrize("name", backend_names())
def test_unknown_strategy_or_format_is_refused(name):
    """One check on every backend, before any engine sees the request."""
    with create_backend(name) as backend:
        for kwargs in ({"strategy": "bogus"}, {"fmt": "bogus"}):
            with pytest.raises(ConfigError):
                backend.compress(b"payload", **kwargs)
        with pytest.raises(ConfigError):
            backend.decompress(b"payload", fmt="bogus")
        assert backend.stats().requests == 0


@pytest.mark.parametrize("name", ["nx", "dfltcc"])
def test_hardware_bitstreams_decodable_by_stdlib(name, text_20k):
    with create_backend(name) as backend:
        gz = backend.compress(text_20k, fmt="gzip").output
        zz = backend.compress(text_20k, fmt="zlib").output
        raw = backend.compress(text_20k, fmt="raw").output
    assert stdlib_gzip.decompress(gz) == text_20k
    assert stdlib_zlib.decompress(zz) == text_20k
    assert stdlib_zlib.decompressobj(-15).decompress(raw) == text_20k


def test_backend_stats_accumulate(json_20k):
    with create_backend("software") as backend:
        backend.compress(json_20k)
        backend.compress(json_20k)
        stats = backend.stats()
    assert stats.requests == 2
    assert stats.bytes_in == 2 * len(json_20k)
    assert stats.bytes_out > 0
    assert stats.modelled_seconds > 0.0


# -- NxGzip parity with a hand-built driver stack -----------------------------

@pytest.mark.parametrize("machine", [POWER9, Z15], ids=["POWER9", "z15"])
def test_session_byte_identical_to_direct_driver(machine, payload_suite):
    """A session adds nothing to the modelled job: through API, pool and
    backend it gives the bytes and modelled seconds of ``NxDriver.run``
    on an accelerator and address space put together by hand."""
    space = AddressSpace(fault_injector=FaultInjector(0.0, seed=0))
    direct = NxDriver(NxAccelerator(machine), space)
    direct.open()
    session = NxGzip(machine)
    try:
        for label, data in payload_suite.items():
            want = direct.run(Op.COMPRESS, data, strategy="auto",
                              fmt="gzip")
            got = session.compress(data)
            assert got.data == want.output, label
            assert got.modelled_seconds == want.stats.elapsed_seconds, label
    finally:
        direct.close()
        session.close()


def test_session_explicit_backends_round_trip(text_20k):
    for name in ("software", "nx"):
        with NxGzip(POWER9, backend=name) as session:
            buf = session.compress(text_20k)
            assert session.decompress(buf.data).data == text_20k
    with NxGzip(Z15, backend="dfltcc") as session:
        buf = session.compress(text_20k)
        assert session.decompress(buf.data).data == text_20k


def test_session_rejects_fault_injection_on_foreign_backend():
    with pytest.raises(ConfigError, match="fault injection"):
        NxGzip(Z15, fault_probability=0.5, backend="dfltcc")


# -- SessionStats regression (faults/fallbacks on every path) ----------------

def test_session_stats_count_faults_and_fallbacks(text_20k):
    with NxGzip(POWER9, fault_probability=1.0, seed=7) as session:
        session.compress(text_20k)
        assert session.stats.fallbacks == 1
        assert session.stats.faults > 0

        session.compress_842(text_20k)
        assert session.stats.fallbacks == 2

        stream = session.compress_stream(fmt="raw")
        stream.write(text_20k[:8192])
        stream.finish(text_20k[8192:16384])
        assert session.stats.fallbacks == 4
        assert session.stats.requests == 4
        assert session.stats.modelled_seconds > 0.0


def test_session_stats_clean_run_counts_nothing(text_20k):
    with NxGzip(POWER9) as session:
        buf = session.compress(text_20k)
        session.decompress(buf.data)
        assert session.stats.requests == 2
        assert session.stats.faults == 0
        assert session.stats.fallbacks == 0
