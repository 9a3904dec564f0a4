"""What a process loads, held by module names (DESIGN.md, "What a
process loads").

Start-up is paid by every CLI call, every server launch and every worker
respawn, and it is almost all imports.  A millisecond bound would flap
with the host; the set of modules a process ends up with does not, so
that is what is pinned: each test runs one real entry point under
``PYTHONPROFILEIMPORTTIME`` and reads, from the interpreter's own log,
every module imported and the import that pulled it in.

The served entry points are tried both ways a user reaches them — they
enter by different modules — ``python -m repro`` (``repro/__main__.py``)
and, where the package is installed, the ``repro`` console script
(``repro.cli:main``).
"""

from __future__ import annotations

import gzip
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import textwrap
from importlib import import_module

import pytest

import repro
from repro.service import ServiceClient

ENTRY_POINTS = {"python-m-repro": [sys.executable, "-m", "repro"]}
if shutil.which("repro"):
    ENTRY_POINTS["repro-script"] = [shutil.which("repro")]

entry_points = pytest.mark.parametrize(
    "entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \| ( *)(\S+)$",
                          re.MULTILINE)


class Imports:
    """The ``-X importtime`` log of one process tree: the modules
    imported, each with the chain of imports that led to it."""

    def __init__(self, log: str) -> None:
        # The log is post-order: a module's line follows the lines of
        # everything it imported, which sit one level deeper.
        self.names: list[str] = []
        self.parent: dict[int, int] = {}
        waiting: dict[int, list[int]] = {}
        for index, match in enumerate(_IMPORT_LINE.finditer(log)):
            depth = len(match.group(1)) // 2
            self.names.append(match.group(2))
            for child in waiting.pop(depth + 1, []):
                self.parent[child] = index
            waiting.setdefault(depth, []).append(index)

    def chain(self, index: int) -> str:
        links = [self.names[index]]
        while index in self.parent:
            index = self.parent[index]
            links.append(self.names[index])
        return " <- ".join(links)

    def matching(self, *patterns: str) -> list[str]:
        """Import chains of the modules that are, or sit under, one of
        ``patterns`` (``repro.core`` covers ``repro.core.api``)."""
        return [self.chain(index) for index, name in enumerate(self.names)
                if any(name == p or name.startswith(p + ".")
                       for p in patterns)]

    def refuse(self, *patterns: str) -> None:
        found = self.matching(*patterns)
        assert not found, "loaded needlessly:\n  " + "\n  ".join(found)


def imports_of(argv: list[str]) -> Imports:
    done = subprocess.run(
        argv, env={**os.environ, "PYTHONPROFILEIMPORTTIME": "1"},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return Imports(done.stderr)


def served_imports(log_path, args: list[str], payloads: list[bytes]):
    """A ``python -m repro serve ARGS`` tree that answered one compress
    request per payload, then stopped: its imports and the replies."""
    with open(log_path, "w+") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            env={**os.environ, "PYTHONPROFILEIMPORTTIME": "1"},
            stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            for line in server.stdout:  # after a clamp notice on 1 CPU
                if "serving on" in line:
                    break
            port = int(re.search(r":(\d+) ", line).group(1))
            with ServiceClient(port=port) as client:
                replies = [client.compress(payload, fmt="gzip")
                           for payload in payloads]
        finally:
            server.terminate()
            server.communicate(timeout=60)
        assert server.returncode == 0
        log.seek(0)
        return Imports(log.read()), replies


def test_an_exec_worker_loads_one_backend_stack():
    """``import repro.exec.worker`` and one real ``dfltcc`` job: the
    codec, the engine model and the driver types — no service, CLI, ops
    plane, fault injection, workloads, session API or ``multiprocessing``,
    no ``hashlib`` (its OpenSSL costs each worker ~3.6 MB of RSS), and of
    the performance models only the cost calibration."""
    job = textwrap.dedent("""
        import gzip
        from repro.exec.worker import backend_job
        payload = bytes(range(256)) * 64
        result = backend_job(backend="dfltcc", machine="z15",
                             backend_kwargs={}, kind="compress",
                             fmt="gzip", data=payload)
        assert gzip.decompress(result.output) == payload
    """)
    imports = imports_of([sys.executable, "-c", job])
    assert imports.matching("repro.nx.z15"), "the job did not run"
    imports.refuse("repro.service", "repro.cli", "repro.obs.http",
                   "repro.obs.export", "repro.resilience.chaos",
                   "repro.resilience.faults",
                   "repro.workloads", "repro.core", "multiprocessing",
                   "secrets", "hashlib")
    perf = {chain.split(" <- ")[0] for chain in imports.matching("repro.perf")}
    assert perf == {"repro.perf", "repro.perf.cost"}, imports.matching(
        "repro.perf")


@entry_points
def test_a_server_loads_no_study_and_no_ops_plane(entry):
    """``repro serve`` on the asynchronous backend, no ``--http-port``,
    no ``--exec-workers``: nothing of the workloads, the session API,
    the ops HTTP server, the queueing studies, the process layer or the
    z15 model, and none of the stdlib the ops plane and executors need."""
    imports = imports_of([*entry, "serve", "--backend", "nx",
                          "--duration-s", "0"])
    assert imports.matching("repro.service.server"), "nothing was served"
    imports.refuse("repro.workloads", "repro.core.analyze", "repro.core.api",
                   "repro.core.plot", "repro.deflate.stream",
                   "repro.deflate.inflate_stream", "repro.deflate.zlib_like",
                   "repro.obs.http",
                   "repro.perf.des", "repro.perf.queueing",
                   "repro.perf.timing", "repro.perf.tco", "repro.perf.energy",
                   "repro.perf.system", "repro.exec", "repro.nx.z15",
                   "http.server", "ssl", "concurrent.futures",
                   "hashlib", "_hashlib")


def test_a_cache_hit_loads_no_hashlib(tmp_path):
    """The result cache keys on the request's own bytes, and the
    built-in table library's key is a constant: ``serve --cache-mb``
    answers a miss and then a hit without OpenSSL's ~3.5 MB."""
    payload = bytes(range(256)) * 16
    imports, (miss, hit) = served_imports(
        tmp_path / "log", ["--backend", "nx", "--cache-mb", "16"],
        [payload, payload])
    assert miss.modelled_s > 0 and hit.modelled_s == 0, "no cache hit"
    assert hit.output == miss.output
    imports.refuse("hashlib", "_hashlib")


@entry_points
def test_help_loads_the_parser_choices_and_nothing_else(entry):
    """``repro --help`` needs the names its ``choices=`` list (machines,
    backends, routing policies, wire formats) and nothing that runs a
    job.  The package is stdlib-only: numpy, once a declared dependency
    nothing imported, would cost every launch ~0.19 s and ~16 MB."""
    imports = imports_of([*entry, "--help"])
    ours = [chain for chain in imports.matching("repro")
            if chain.startswith("repro.")]
    assert 0 < len(ours) <= 20, "\n  ".join(ours)
    imports.refuse("repro.backend.pool", "repro.sysstack",
                   "repro.resilience", "repro.service", "numpy")


def test_a_spawned_worker_of_the_server_never_loads_the_cli(tmp_path):
    """Of a ``python -m repro`` server and its workers only the server
    loads ``repro.cli``, while every one of them loads the worker loop;
    and no process of the tree loads ``multiprocessing`` or the
    ``secrets`` module its shared memory needs, nor — the exec parent
    keys the library it sends a worker by :attr:`CannedLibrary.key`,
    the built-in one's a constant — ``hashlib`` after a reply."""
    payload = bytes(range(256)) * 128
    imports, (reply,) = served_imports(
        tmp_path / "log", ["--machine", "z15", "--backend", "dfltcc",
                           "--exec-workers", "1"], [payload])
    assert gzip.decompress(reply.output) == payload
    assert len(imports.matching("repro.exec.worker")) >= 2, \
        "expected the server and its workers"
    cli = imports.matching("repro.cli")
    assert len(cli) == 1, "\n  ".join(cli)
    imports.refuse("multiprocessing", "repro.exec.shm", "secrets",
                   "hashlib", "_hashlib")


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                text = stat.read()
        except OSError:
            continue  # exited while we were reading
        if int(text[text.rindex(")") + 2:].split()[1]) == pid:
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_a_server_with_two_exec_workers_is_three_processes():
    """The tree is the server and one child per worker — no
    resource-tracker process — and a worker starts nothing of its own."""
    workers = min(2, os.cpu_count() or 1)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--machine", "z15", "--backend", "dfltcc",
         "--exec-workers", "2", "--duration-s", "30"],
        stdout=subprocess.PIPE, text=True)
    try:
        for line in server.stdout:  # after a clamp notice on 1 CPU
            if "serving on" in line:
                break
        kids = _children(server.pid)
        assert len(kids) == workers, kids
        assert all(_children(kid) == [] for kid in kids)
    finally:
        server.terminate()
        server.communicate(timeout=60)


PACKAGES = ["repro", *(found.name for found in pkgutil.iter_modules(
    repro.__path__, "repro.") if found.ispkg)]


@pytest.mark.parametrize("package", PACKAGES)
def test_a_lazy_package_exports_what_its_submodules_define(package):
    """Every public name resolves to the very object its submodule
    defines, is listed by ``dir``, comes with ``import *`` and is cached
    on the package; an unknown one is an ``AttributeError``."""
    pkg = import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__) > 0
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert star[name] is value and name in dir(pkg)
        assert vars(pkg)[name] is value
        if name in pkg._exports:
            home = import_module(f"{package}.{pkg._exports[name]}")
            assert getattr(home, name) is value, name
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        pkg.no_such_name


def test_a_public_name_outlives_the_submodule_it_is_spelled_like():
    """``deflate.inflate``, ``core.analyze``, ``workloads.replay`` and
    ``obs.flight`` are functions *and* submodule names.  The import
    system binds a submodule on its package when it loads — here before
    anything asked the package for the function."""
    imports_of([sys.executable, "-c", textwrap.dedent("""
        import repro.deflate.inflate, repro.core.analyze
        import repro.workloads.replay, repro.obs.flight
        import repro
        for package, name in ((repro.deflate, "inflate"),
                              (repro.core, "analyze"),
                              (repro.workloads, "replay"),
                              (repro.obs, "flight")):
            assert type(getattr(package, name)).__name__ == "function", name
        assert repro.analyze is repro.core.analyze
        assert repro.obs.flight() is repro.obs.FLIGHT
    """)])
