"""Shared fixtures: small deterministic payloads and machine handles."""

from __future__ import annotations

import os

import pytest

from repro.nx.params import POWER9, Z15
from repro.workloads.generators import generate

try:  # CI's install job runs one module, without hypothesis
    from hypothesis import Phase, settings
except ImportError:
    pass
else:  # tests/test_served_model.py; each shrink step waits out a server's
    # 0.5 s shutdown poll, so tier-1 reports its fixed examples unshrunk
    settings.register_profile(
        "served-model", derandomize=True, database=None, deadline=None,
        max_examples=10, stateful_step_count=100, phases=[Phase.generate])
    settings.register_profile("served-random", settings.get_profile(
        "served-model"), derandomize=False, max_examples=100,
        phases=list(Phase))


@pytest.fixture(scope="session")
def text_20k() -> bytes:
    return generate("markov_text", 20000, seed=11)


@pytest.fixture(scope="session")
def json_20k() -> bytes:
    return generate("json_records", 20000, seed=12)


@pytest.fixture(scope="session")
def random_8k() -> bytes:
    return generate("random_bytes", 8192, seed=13)


@pytest.fixture(scope="session")
def binary_20k() -> bytes:
    return generate("binary_executable", 20000, seed=14)


@pytest.fixture(scope="session")
def payload_suite(text_20k, json_20k, random_8k, binary_20k) -> dict:
    return {
        "empty": b"",
        "one": b"x",
        "tiny": b"abcabcabcabc",
        "text": text_20k,
        "json": json_20k,
        "random": random_8k,
        "binary": binary_20k,
        "zeros": bytes(4096),
    }


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_its_pool():
    """The whole suite must leave no child process behind.

    Every exec worker is a child of this process, and shutting a pool
    down waits for each of them; once the default pool is shut down too,
    a child still running — or exited but never waited for — is a worker
    that outlived its pool.
    """
    yield
    from repro.exec import shutdown_default_pool

    shutdown_default_pool()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    what = f"pid {pid} was never reaped" if pid else "one is still running"
    raise AssertionError(f"a child process outlived its pool: {what}")


@pytest.fixture(scope="session")
def p9():
    return POWER9


@pytest.fixture(scope="session")
def z15():
    return Z15
