#!/usr/bin/env python
"""Reachability census: which entry point reaches each public name,
and which sets each knob.

Every public module-level name and every public method under
``src/repro/`` must be reached from an entry point, or carry a one-line
reason in :data:`ALLOW`.  The entry points (*roots*) are:

* each handler in ``repro.cli._COMMANDS``, and ``repro.cli.main``;
* every ``benchmarks/bench_*.py``, ``benchmarks/stack/*.py``,
  ``examples/*.py`` and ``tools/*.py`` file (but this one),
  ``benchmarks/experiments.py`` and ``tests/test_claims.py`` — a root
  file is read whole.

Unit tests are not roots: a name only a unit test calls is reported.

The walk reads source with :mod:`ast` and never imports what it
judges.  From a root it follows:

* names and dotted attribute chains, through imports, re-exports and
  the ``lazy_exports`` tables of package ``__init__`` files;
* ``"module:attr"`` strings (the exec-worker and backend registries),
  module-name strings, and ``from repro.x import y`` inside strings
  (the exec workers' ``python -c`` boot line);
* a module's top-level statements, once anything loads the module;
* a class's body, bases and decorators once the class is reached, and
  its dunder methods; any other method once the class is reached *and*
  reached code reads an attribute of that name (``x.name``,
  ``getattr(x, "name")``, or any identifier string in a module that
  calls ``getattr`` with a computed name) — the census does not infer
  types.

Annotations are not followed: a name only a type hint mentions is
unreached.  A repo-local module a root imports (``benchmarks/_common.py``,
a test module ``tools/kernel_diff.py`` reuses) is followed name by name,
like ``src/``.  An allow-listed name is kept, and so is what it reaches
(a method of a kept class by the attribute names any reached code
reads); an entry with no reason, for a name that does not exist, or for
a name a root reaches anyway is an error.

The second census is over *knobs*: each defaulted parameter of a public
function, method or constructor a root reaches, and each defaulted
field of a public dataclass that no code writes after construction
(outside ``__init__`` and ``__post_init__``: a written field is state,
not a knob).  A knob is *set* when reached code passes it to a call
that may run its def — by keyword or by position, to a call resolved
the way names are (a method by its attribute name, a class by its
constructor, ``dataclasses.replace`` by field name, ``TABLE[key](...)``
through a module-level dict, a call of a local through its module's
``"module:attr"`` registry, and a job named by its registry key, as in
``submit("name", **kw)`` or ``("name", {...})``) — or through a
``**kwargs`` parameter its def passes on.  A knob no root sets is
deleted, with its default folded into the code, or listed in
:data:`ALLOW_KNOBS` with a reason; an entry with no reason, for a knob
that does not exist, or for a knob a root sets is an error.

Run from anywhere; prints every name with the roots that reach it, then
the allow-list, then every knob with the roots that set it and the knob
allow-list, and exits 1 on any problem (each on stderr)::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import builtins
import pathlib
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Names kept though no root reaches them, each with its reason.
ALLOW: dict[str, str] = {
    # Reference models and oracles the tests hold reached code to.
    "repro.nx.hashbank.BankedHashTable.lookup_insert":
        "per-access model tests/test_scan_kernel.py holds "
        "NxMatchPipeline.scan equal to",
    "repro.deflate.huffman.kraft_sum":
        "completeness oracle tests/test_huffman.py, test_dht.py and "
        "test_constants.py apply to every code the builders emit",
    "repro.deflate.bitio.BitWriter.bit_length":
        "exact bit length tests/test_inflate_kernel.py cuts encoded "
        "streams at",
    # Called by the standard library, never by name.
    "repro.service.server.CompressionServer.get_request":
        "socketserver.TCPServer calls it to accept a connection",
    # Type aliases: only annotations name them.
    "repro.deflate.matcher.Token": "type alias of a matcher token",
    "repro.perf.queueing.Size": "type alias of a job size or sampler",
    # Extension points and the other half of a reached pair.
    "repro.obs.flight":
        "the flight recorder's accessor beside obs.tracer and obs.registry; "
        "tests/test_import_graph.py pins that it outlives its submodule",
    "repro.backend.registry.register_backend":
        "plug-in point exported from repro: a backend outside the tree "
        "joins the registry through it",
    "repro.backend.registry.unregister_backend":
        "undoes register_backend, so a plug-in leaves the registry as "
        "it found it",
    "repro.service.client.ServiceClient.ping":
        "client half of the wire protocol's ping op, which the server "
        "answers",
    "repro.sysstack.dde.Dde.gather":
        "builds the indirect DDE the engine's gather path walks",
    "repro.sysstack.dde.Dde.pack_entries":
        "writes the indirect entry array Dde.unpack_entries reads back",
    "repro.deflate.zlib_like.decompress":
        "decode half of the zlib_like drop-in, whose compress half "
        "tools/record_goldens.py pins",
    "repro.deflate.containers.zlib_decompress":
        "decode half of containers.zlib_compress",
    "repro.deflate.stream.DecompressStream":
        "decode half of CompressStream, whose framing "
        "tools/record_goldens.py pins; repro decompress does not read "
        "through it yet (it would leave the pool's modelled path)",
}

#: Knobs no root sets, each with the reason it stays.
ALLOW_KNOBS: dict[str, str] = {
    # Test seams: a test reaches, cheaply, a path roots reach at scale.
    "repro.backend.pool.AcceleratorPool(exec_pool=)":
        "test seam: an exec pool whose workers dwell (default_delay_s) "
        "is how tests/test_service.py observes the dispatch window",
    "repro.sysstack.driver.NxDriver.open(credits=)":
        "test seam: a window of a few credits makes tests/"
        "test_async_driver.py's and test_buffer_release.py's pastes back "
        "off and drain",
    "repro.deflate.inflate.inflate_core(max_output=)":
        "test seam: tools/kernel_diff.py and tests/test_inflate_kernel.py "
        "hold the kernel's cap one-shot; a served decode's bound, its QoS "
        "class's byte limit, reaches the kernel as containers.Resolver.run's "
        "cap",
    "repro.deflate.inflate.inflate_core(start=)":
        "test seam: tests/test_inflate_kernel.py decodes a body behind a "
        "header; a served decode starts at a bit through "
        "containers.Resolver",
    "repro.cli.main(argv=)":
        "test seam: tests run the CLI in process on an argument list",
    "repro.deflate.compress.deflate(block_tokens=)":
        "test seam: splits a few-KB input into many blocks, so block "
        "seams are tested without megabyte inputs",
    "repro.nx.compressor.NxCompressor(block_bytes=)":
        "test seam: splits a few-KB input into many blocks, so block "
        "seams are tested without megabyte inputs",
    "repro.nx.z15.dfltcc_compress(quantum=)":
        "test seam: forces the CC=3 re-issue loop on a 200 KB input",
    "repro.backend.dfltcc.DfltccBackend(quantum=)":
        "test seam: forces the CC=3 re-issue loop through the backend, "
        "so tests/test_single_pass_decompress.py spans the check value "
        "across re-issued chunks",
    "repro.deflate.seekindex.decode_indexed(max_output=)":
        "library bound: repro cat decodes the user's own file with no "
        "bound, as a served decode's class bound does not apply there; a "
        "caller that indexes untrusted input sets it "
        "(test_zero_bomb_stops_at_the_cap holds the peak under 2 MB)",
    "repro.deflate.seekindex.decode_indexed(index_spacing=)":
        "test seam: a few-KB spacing records many seek points on a "
        "test-sized archive",
    "repro.dictsvc.cache.ResultCache(tenant_max_entries=)":
        "test seam: a small per-tenant bound makes one tenant's eviction "
        "fire before the global one",
    "repro.dictsvc.cache.ResultCache(max_tenants=)":
        "test seam: a two-tenant cap shows the oldest tenant evicted",
    "repro.service.idempotency.IdempotencyCache(max_entries=)":
        "test seam: small bounds make every eviction fire within one "
        "example of tests/test_served_model.py's state machine",
    "repro.service.idempotency.IdempotencyCache(max_bytes=)":
        "test seam: small bounds make every eviction fire within one "
        "example of tests/test_served_model.py's state machine",
    "repro.service.idempotency.IdempotencyCache(max_tenants=)":
        "test seam: a two-tenant cap shows the oldest tenant evicted",
    "repro.exec.pool.ProcessWorkerPool.run_batch(timeout_s=)":
        "test seam: a hung worker fails the test instead of hanging the "
        "run",
    "repro.exec.pool.ProcessWorkerPool.run_batch(metrics=)":
        "test seam: tests/test_service_trace.py folds a crashed and "
        "resubmitted job's worker counters exactly once",
    "repro.perf.tco.FleetAssumptions(compression_ratio=)":
        "test seam: tests/test_tco.py holds storage savings at zero for "
        "ratio 1 and rising with the ratio",
    "repro.resilience.faults.fault_factory(max_connections=)":
        "test seam: stages exactly one aimed wire failure, so a retry is "
        "shown to recover on a clean reconnect",
    "repro.resilience.policy.RetryPolicy(max_paste_retries=)":
        "test seam: tests/test_one_driver.py shrinks the paste budget so "
        "a leaked-credit window wedges within three jobs",
    "repro.sysstack.driver.NxDriver(retry_policy=)":
        "test seam: carries tests/test_one_driver.py's shrunk paste "
        "budget into the driver",
    "repro.sysstack.driver.NxDriver(deadline_s=)":
        "test seam: tests/test_one_driver.py blows one deadline on both "
        "run and submit + wait_all",
    "repro.sysstack.driver.NxDriver.wait_all(max_polls=)":
        "test seam: runs the poll budget out on a stuck job in a few "
        "polls",
    "repro.sysstack.mmu.PageState(writable=)":
        "test seam: tests/test_mmu.py clears it to show a write to a "
        "read-only page faults",
    "repro.service.client.RetryBudget(initial=)":
        "test seam: a bucket that starts below capacity shows deposits "
        "and denials within a few requests",
    "repro.service.server.CompressionServer(request_timeout_s=)":
        "test seam: a hang fails tests/test_service_robust.py in 5 s, "
        "not 60",
    "repro.workloads.replay.DiurnalSpec(duration_s=)":
        "test seam: a 0.5 s day keeps tests/test_replay.py's replay small",
    "repro.workloads.replay.DiurnalSpec(base_rate_per_s=)":
        "test seam: 5 000 req/s keeps tests/test_replay.py's replay small",
    "repro.workloads.replay.DiurnalSpec(bulk_rate_per_s=)":
        "test seam: 200 req/s keeps tests/test_replay.py's replay small",
    # Set where the census cannot see it.
    "repro.service.core.CompressionService.submit(client_request_id=)":
        "set by CompressionServer through its **request header map (the "
        "wire's request_id), which the census does not follow",
    # The paper's hardware and the stdlib API the drop-in mirrors.
    "repro.sysstack.vas.Vas.open_window(priority=)":
        "the paper's high-priority VAS receive FIFO; tests/test_priority.py "
        "holds Vas.pop_request to the arbitrate E14's queueing model runs",
    "repro.deflate.compress.deflate(strategy=)":
        "zlib's Z_HUFFMAN_ONLY and Z_RLE on the software codec; "
        "tests/test_interop_zlib.py holds each strategy's streams to "
        "stdlib's",
    "repro.deflate.zlib_like.compressobj(zdict=)":
        "stdlib zlib.compressobj's preset dictionary, which the drop-in "
        "mirrors; tests/test_interop_zlib.py holds its streams to stdlib's",
}

#: Root files, as globs under the repo, and the label prefix of each.
ROOT_GLOBS = (("benchmarks/bench_*.py", "bench"),
              ("benchmarks/experiments.py", "bench"),
              ("benchmarks/stack/*.py", "stack"),
              ("examples/*.py", "example"),
              ("tools/*.py", "tool"),
              ("tests/test_claims.py", "test"))

#: Where a repo-local (non-``repro``) import is looked up, after the
#: importing file's own directory: the directories root files put on
#: ``sys.path``.
_SEARCH_DIRS = ("", "benchmarks", "benchmarks/stack", "tests", "tools")

_SPEC_RE = re.compile(r"^(repro(?:\.\w+)*):(\w+)$")
_BOOT_RE = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\w+)")
_SKIP_FIELDS = frozenset({"annotation", "returns", "type_comment"})


@dataclass
class _Node:
    """One unit of code the walk reaches whole: a module's top level, a
    function, a class body, a method (every def of that name), a
    module-level assignment, or a root file."""

    module: str
    trees: list = field(default_factory=list)
    cls: str | None = None          # a method's class key
    scope: dict = field(default_factory=dict)  # class-body names


@dataclass
class _Module:
    name: str
    path: pathlib.Path
    tree: ast.Module
    is_package: bool
    globals: dict = field(default_factory=dict)   # name -> binding
    lazy: dict = field(default_factory=dict)      # export -> submodule
    #: Calls ``getattr`` with a computed name: its identifier strings
    #: may be attribute names.
    dynamic: bool = False


@dataclass
class _Param:
    name: str
    knob: str | None        # the knob a defaulted parameter is
    positional: bool


@dataclass
class _Sig:
    """A callable's parameters.  ``key`` owns its ``**`` parameter (the
    class, for a constructor); the usual call fills ``bound`` leading
    parameters implicitly (``self``)."""

    key: str
    params: list[_Param]
    kwarg: str | None
    bound: int


@dataclass
class _Call:
    """One call site: its possible targets as ``(signature, leading
    parameters bound)``, what it passes, and — when it passes its own
    def's ``**`` parameter on — that def's signature key."""

    targets: list[tuple[_Sig, int]]
    npos: int
    star: bool
    keywords: frozenset[str]
    forwards: str | None


@dataclass
class Census:
    """What :func:`census` found.  ``reach`` maps every public name to
    the roots that reach it (empty: unreached)."""

    reach: dict[str, set[str]]
    roots: list[str]
    allowed: dict[str, str]
    unreached: list[str]
    problems: list[str]
    #: Every knob of reached code -> the roots that set it.
    knobs: dict[str, set[str]] = field(default_factory=dict)
    allowed_knobs: dict[str, str] = field(default_factory=dict)
    unset: list[str] = field(default_factory=list)


class _Index:
    def __init__(self, repo: pathlib.Path) -> None:
        self.repo = repo = repo.resolve()
        self.src = repo / "src"
        self.modules: dict[str, _Module] = {}
        self.nodes: dict[str, _Node] = {}
        self.methods: dict[str, list[str]] = {}    # class key -> methods
        self.by_attr: dict[str, list[str]] = {}    # method name -> keys
        self.public: list[str] = []
        self.classes: dict[str, ast.ClassDef] = {}
        self.values: dict[str, ast.expr] = {}      # assignment -> value
        self._summaries: dict[str, tuple] = {}
        self._calls: dict[str, list[_Call]] = {}
        self._signatures: dict[str, _Sig | None] = {}
        self._jobs: dict | None = None
        for path in sorted((self.src / "repro").rglob("*.py")):
            parts = path.relative_to(self.src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self._add_module(".".join(parts), path)
        # Imports bind once every module's own names are known.
        for mod in list(self.modules.values()):
            self._bind(mod)

    # -- indexing ------------------------------------------------------------

    def _add_module(self, name: str, path: pathlib.Path) -> _Module:
        tree = ast.parse(path.read_text(), str(path))
        mod = _Module(name, path, tree, path.name == "__init__.py")
        mod.dynamic = any(
            _is_getattr(node) and not isinstance(node.args[1], ast.Constant)
            for node in ast.walk(tree))
        self.modules[name] = mod
        report = name.split(".")[0] == "repro"
        load = _Node(name)
        self.nodes[name + ":"] = load
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_def(mod, stmt.name, [stmt], report)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._add_class(mod, stmt, report)
                continue
            # An assignment runs when its module loads; its name is
            # reached only where it is read.
            for target in _targets(stmt):
                self._add_def(mod, target, [], report)
                self.values[f"{name}.{target}"] = stmt.value
            if not _is_main_guard(stmt):
                load.trees.append(stmt)
            for sub in ast.walk(stmt):
                if _is_lazy_call(sub):
                    for key, value in zip(sub.args[1].keys,
                                          sub.args[1].values):
                        for export in _literal(value).split():
                            mod.lazy[export] = _literal(key)
        return mod

    def _bind(self, mod: _Module) -> None:
        """Bind the names a module's top-level imports define."""
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for local, binding in self._import_bindings(mod, sub):
                        mod.globals.setdefault(local, binding)

    def _add_def(self, mod: _Module, name: str, trees: list,
                 report: bool) -> str:
        key = f"{mod.name}.{name}"
        self.nodes[key] = _Node(mod.name, trees)
        mod.globals[name] = ("def", key)
        if report and not name.startswith("_"):
            self.public.append(key)
        return key

    def _add_class(self, mod: _Module, cls: ast.ClassDef,
                   report: bool) -> None:
        body = [stmt for stmt in cls.body
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
        key = self._add_def(
            mod, cls.name, [*cls.bases, *cls.keywords, *cls.decorator_list,
                            *body], report)
        node = self.nodes[key]
        self.classes[key] = cls
        methods: dict[str, list] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.setdefault(stmt.name, []).append(stmt)
        self.methods[key] = []
        for name, defs in methods.items():
            method = f"{key}.{name}"
            self.nodes[method] = _Node(mod.name, defs, cls=key)
            node.scope[name] = method
            self.methods[key].append(method)
            self.by_attr.setdefault(name, []).append(method)
            if report and not name.startswith("_") \
                    and not cls.name.startswith("_"):
                self.public.append(method)

    def _import_bindings(self, mod: _Module, stmt: ast.stmt):
        """``(local name, binding)`` for each name ``stmt`` binds."""
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                found = self.find(alias.name, mod)
                if alias.asname:
                    yield alias.asname, ("module", found)
                else:
                    top = alias.name.split(".")[0]
                    yield top, ("module", self.find(top, mod))
            return
        base = self._absolute(mod, stmt)
        target = self.find(base, mod) if base else None
        for alias in stmt.names:
            sub = self.find(f"{base}.{alias.name}", mod) if base else None
            if target and self._has(target, alias.name):
                binding = ("from", target, alias.name)
            elif sub:
                binding = ("module", sub)
            elif target:
                binding = ("from", target, alias.name)
            else:
                continue
            yield alias.asname or alias.name, binding

    def _absolute(self, mod: _Module, stmt: ast.ImportFrom) -> str | None:
        if not stmt.level:
            return stmt.module
        parts = mod.name.split(".")
        package = parts if mod.is_package else parts[:-1]
        package = package[:len(package) - stmt.level + 1]
        return ".".join([*package, *([stmt.module] if stmt.module else [])])

    def _has(self, module: str, name: str) -> bool:
        mod = self.modules[module]
        return name in mod.globals or name in mod.lazy

    def find(self, name: str, importer: _Module) -> str | None:
        """The canonical module an import of ``name`` loads, indexing a
        repo-local module on first sight."""
        if name in self.modules:
            return name
        if name.split(".")[0] == "repro":
            return None
        rel = pathlib.Path(*name.split("."))
        for base in [importer.path.parent,
                     *(self.repo / d for d in _SEARCH_DIRS)]:
            for path in (base / rel.with_suffix(".py"),
                         base / rel / "__init__.py"):
                if path.is_file() and self.src not in path.parents:
                    return self._aux(path).name
        return None

    def _aux(self, path: pathlib.Path) -> _Module:
        rel = path.resolve().relative_to(self.repo).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        name = ".".join(parts)
        if name not in self.modules:
            self._bind(self._add_module(name, path))
        return self.modules[name]

    # -- resolution ----------------------------------------------------------

    def resolve(self, binding, depth: int = 0) -> str | None:
        """The node key (a def, or ``module:`` for a module) a binding
        names, following re-exports and lazy export tables."""
        if binding is None or depth > 20:
            return None
        kind, *rest = binding
        if kind == "def":
            return rest[0]
        if kind == "module":
            return rest[0] + ":" if rest[0] else None
        return self.attr(rest[0] + ":", rest[1], depth)

    def attr(self, key: str, name: str, depth: int = 0) -> str | None:
        """What ``<key>.<name>`` is, for a module or class key."""
        if key.endswith(":"):
            module = self.modules[key[:-1]]
            if name in module.globals:
                return self.resolve(module.globals[name], depth + 1)
            if name in module.lazy:
                return self.attr(f"{module.name}.{module.lazy[name]}:",
                                 name, depth + 1)
            sub = f"{module.name}.{name}"
            return sub + ":" if sub in self.modules else None
        method = f"{key}.{name}"
        return method if method in self.nodes else None

    # -- per-node summaries --------------------------------------------------

    def summary(self, key: str) -> tuple[set[str], set[str]]:
        """``(node keys, attribute names)`` the code of ``key`` refers to."""
        if key not in self._summaries:
            self._summaries[key] = self._summarize(self.nodes[key])
        return self._summaries[key]

    def _lookup(self, node: _Node):
        """``(lookup, loads)``: what a name in ``node``'s code resolves
        to, and the modules its imports execute."""
        mod = self.modules[node.module]
        loads: set[str] = set()
        local: dict[str, tuple] = {}
        for tree in node.trees:
            for sub in ast.walk(tree):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    local.update(self._import_bindings(mod, sub))
                    loads.update(self._loads(mod, sub))

        def lookup(name: str) -> str | None:
            if name in node.scope:
                return node.scope[name]
            return self.resolve(local.get(name) or mod.globals.get(name))
        return lookup, loads

    def _summarize(self, node: _Node) -> tuple[set[str], set[str]]:
        mod = self.modules[node.module]
        lookup, refs = self._lookup(node)
        attrs: set[str] = set()

        def visit(tree: ast.AST) -> None:
            if isinstance(tree, ast.If) and _is_type_checking(tree):
                for stmt in tree.orelse:
                    visit(stmt)
                return
            if isinstance(tree, ast.Name):
                if isinstance(tree.ctx, ast.Load):
                    refs.add(lookup(tree.id))
                return
            if isinstance(tree, ast.Expr) \
                    and isinstance(tree.value, ast.Constant):
                return  # a docstring
            if isinstance(tree, ast.Attribute):
                chain = []
                base = tree
                while isinstance(base, ast.Attribute):
                    chain.append(base.attr)
                    base = base.value
                attrs.update(chain[1:])
                if isinstance(tree.ctx, ast.Load):
                    attrs.add(chain[0])
                if not isinstance(base, ast.Name):
                    visit(base)
                    return
                target = lookup(base.id)
                refs.add(target)
                for name in reversed(chain):
                    if target is None:
                        break
                    target = self.attr(target, name)
                    refs.add(target)
                return
            if isinstance(tree, ast.Constant) and isinstance(tree.value, str):
                refs.update(self._strings(tree.value))
                if mod.dynamic and tree.value.isidentifier():
                    attrs.add(tree.value)
                return
            if _is_getattr(tree) and isinstance(tree.args[1], ast.Constant):
                attrs.add(str(tree.args[1].value))
            for name, value in ast.iter_fields(tree):
                if name in _SKIP_FIELDS:
                    continue
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child)

        for tree in node.trees:
            visit(tree)
        refs.discard(None)
        return refs, attrs

    def _loads(self, mod: _Module, stmt: ast.stmt) -> set[str]:
        """The modules an import statement executes."""
        if isinstance(stmt, ast.Import):
            names = [alias.name for alias in stmt.names]
        else:
            base = self._absolute(mod, stmt)
            names = [base] if base else []
            names += [f"{base}.{alias.name}" for alias in stmt.names]
        found = set()
        for name in names:
            parts = name.split(".")
            for end in range(1, len(parts) + 1):
                module = self.find(".".join(parts[:end]), mod)
                if module:
                    found.add(module + ":")
        return found

    def _strings(self, text: str) -> set[str]:
        found = set()
        match = _SPEC_RE.match(text)
        if match and match[1] in self.modules:
            found.add(self.attr(match[1] + ":", match[2]))
        if text in self.modules and text.split(".")[0] == "repro":
            found.add(text + ":")
        for module, name in _BOOT_RE.findall(text):
            if module in self.modules:
                found.add(self.attr(module + ":", name))
        return found

    # -- the walk ------------------------------------------------------------

    def walk(self, starts: list[str]) -> set[str]:
        """Every node key reachable from ``starts``."""
        reached: set[str] = set()
        attrs: set[str] = set()
        stack = list(starts)
        while stack:
            key = stack.pop()
            if key in reached or key not in self.nodes:
                continue
            reached.add(key)
            node = self.nodes[key]
            stack.append(node.module + ":")
            parts = node.module.split(".")
            stack += [".".join(parts[:end]) + ":" for end in range(1, len(parts))]
            if node.cls:
                stack.append(node.cls)
            refs, names = self.summary(key)
            stack += refs
            for name in names - attrs:
                attrs.add(name)
                stack += [method for method in self.by_attr.get(name, ())
                          if self.nodes[method].cls in reached]
            for method in self.methods.get(key, ()):
                name = method.rsplit(".", 1)[1]
                if name in attrs or _is_dunder(name):
                    stack.append(method)
        return reached

    # -- knobs ---------------------------------------------------------------

    def signature(self, key: str, depth: int = 0) -> _Sig | None:
        """The parameters of the def ``key`` (a class: its constructor,
        inherited when it has none of its own)."""
        if key not in self._signatures:
            self._signatures[key] = self._signature(key, depth)
        return self._signatures[key]

    def _signature(self, key: str, depth: int) -> _Sig | None:
        cls = self.classes.get(key)
        if key.endswith(".__init__") and self.nodes[key].cls:
            return self.signature(self.nodes[key].cls, depth + 1)
        if cls is None:
            defs = [tree for tree in self.nodes[key].trees
                    if isinstance(tree, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
            if not defs:
                return None
            owner = self.nodes[key].cls
            bound = 0 if not owner or "staticmethod" in _decorators(defs[0]) \
                else 1
            return _function_sig(key, defs[0], bound)
        if f"{key}.__init__" in self.nodes:
            init = self.nodes[f"{key}.__init__"].trees[0]
            return _function_sig(key, init, 1)
        bases = [self._expr_key(base, self.nodes[key]) for base in cls.bases]
        bases = [base for base in bases if base in self.classes]
        inherited = None
        for base in bases:
            if depth < 20:
                inherited = inherited or self.signature(base, depth + 1)
        if not _is_dataclass(cls):
            return inherited
        params = list(inherited.params) if inherited and inherited.bound == 0 \
            else []
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) \
                    or not isinstance(stmt.target, ast.Name) \
                    or "ClassVar" in ast.unparse(stmt.annotation):
                continue
            name, value = stmt.target.id, stmt.value
            options = {word.arg: word.value for word in value.keywords} \
                if _is_call_to(value, "field") else None
            if options is not None and _literal(options.get("init")) is False:
                continue
            defaulted = value is not None if options is None \
                else bool({"default", "default_factory"} & options.keys())
            params = [param for param in params if param.name != name]
            params.append(_Param(name, f"{key}({name}=)" if defaulted
                                 else None, True))
        return _Sig(key, params, None, 0)

    def _expr_key(self, expr: ast.expr, node: _Node,
                  lookup=None) -> str | None:
        """The node key a name or dotted chain names, if it is static."""
        if lookup is None:
            lookup = self._lookup(node)[0]
        if isinstance(expr, ast.Name):
            return lookup(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_key(expr.value, node, lookup)
            return self.attr(base, expr.attr) if base else None
        return None

    def calls(self, key: str) -> list[_Call]:
        """The call sites in the code of ``key``."""
        if key not in self._calls:
            self._calls[key] = self._find_calls(key)
        return self._calls[key]

    def _find_calls(self, key: str) -> list[_Call]:
        node = self.nodes[key]
        lookup = self._lookup(node)[0]
        mod = self.modules[node.module]
        found = []
        for tree in node.trees:
            kwarg = tree.args.kwarg.arg if isinstance(
                tree, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and tree.args.kwarg else None
            owner = node.cls if node.cls \
                and getattr(tree, "name", "") == "__init__" else key
            keys = _dict_keys(tree)

            def passes(pairs) -> tuple[frozenset[str], str | None]:
                """What ``(name, value)`` keyword pairs pass (a ``None``
                name: ``**value``), and whose ``**`` they pass on."""
                words, forwards = set(), None
                for name, value in pairs:
                    if name is not None:
                        words.add(name)
                    elif isinstance(value, ast.Dict):
                        words.update(filter(None, map(_literal, value.keys)))
                    elif isinstance(value, ast.Name):
                        words |= keys.get(value.id, set())
                        if value.id == kwarg:
                            forwards = owner
                return frozenset(words), forwards

            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                args = call.args
                if _is_call_to(call, "replace"):  # dataclasses.replace
                    targets = [(sig, 0) for sig in self._dataclass_sigs()]
                    args = []
                else:
                    targets = self._callees(call.func, node, lookup, mod)
                words, forwards = passes(
                    (word.arg, word.value) for word in call.keywords)
                star = any(isinstance(arg, ast.Starred) for arg in args)
                if targets:
                    found.append(_Call(targets, len(args) - star, star,
                                       words, forwards))
                # A job named by its registry key: ``submit("name",
                # **kwargs)`` or ``("name", {...})`` pairs.
                for arg in ast.walk(call):
                    if arg in call.args and _literal(arg) in self.jobs():
                        found.append(_Call(self.jobs()[_literal(arg)], 0,
                                           False, words, forwards))
                    elif isinstance(arg, ast.Tuple) and len(arg.elts) == 2 \
                            and _literal(arg.elts[0]) in self.jobs() \
                            and isinstance(arg.elts[1], ast.Dict):
                        found.append(_Call(
                            self.jobs()[_literal(arg.elts[0])], 0, False,
                            *passes(zip(arg.elts[1].keys,
                                        arg.elts[1].values))))
        return found

    def jobs(self) -> dict[str, list[tuple[_Sig, int]]]:
        """Registry key -> its target, for every module-level dict that
        maps names to ``"module:attr"`` specs."""
        if self._jobs is None:
            self._jobs = {}
            for table in self.values.values():
                if not isinstance(table, ast.Dict):
                    continue
                for name, spec in zip(table.keys, table.values):
                    targets = [key for key in self._strings(_literal(spec))
                               if key in self.nodes] \
                        if isinstance(_literal(spec), str) else []
                    sigs = list(filter(None, map(self.signature, targets)))
                    if sigs and isinstance(_literal(name), str):
                        self._jobs[_literal(name)] = [(sig, 0) for sig in sigs]
        return self._jobs

    def _callees(self, func: ast.expr, node: _Node, lookup,
                 mod: _Module) -> list[tuple[_Sig, int]]:
        """What a call of ``func`` may run, as ``(signature, leading
        parameters bound)``."""
        if isinstance(func, ast.Name):
            key = node.cls if func.id == "cls" and node.cls \
                else lookup(func.id)
            if key is None and func.id not in _BUILTINS:
                # A callable looked up at run time: a registry's
                # "module:attr" entries.
                return [(sig, sig.bound) for sig in self._specs(mod)]
            sig = self.signature(key) if key in self.nodes else None
            return [(sig, sig.bound)] if sig else []
        if isinstance(func, ast.Subscript):
            # TABLE[name](...): the callables a module-level dict holds.
            where = self._expr_key(func.value, node, lookup)
            table = self.values.get(where)
            if not isinstance(table, ast.Dict):
                return []
            found = []
            for value in table.values:
                key = self._expr_key(value, self.nodes[where]) \
                    if value else None
                sig = self.signature(key) if key in self.nodes else None
                found += [(sig, sig.bound)] if sig else []
            return found
        if not isinstance(func, ast.Attribute):
            return []
        if isinstance(func.value, ast.Call) \
                and _is_call_to(func.value, "super") and node.cls:
            # super().name(...): the bases' def of ``name``.
            found = []
            for base in self.classes[node.cls].bases:
                base = self._expr_key(base, self.nodes[node.cls])
                if base in self.classes:
                    method = base if func.attr == "__init__" \
                        else f"{base}.{func.attr}"
                    sig = self.signature(method) \
                        if method in self.nodes else None
                    found += [(sig, sig.bound)] if sig else []
            return found
        owner = self._expr_key(func.value, node, lookup)
        if owner is not None and (owner.endswith(":")
                                  or owner in self.classes):
            target = self.attr(owner, func.attr)
            sig = self.signature(target) if target in self.nodes else None
            if sig is None:
                return []
            if owner in self.classes and target != owner \
                    and self.nodes[target].cls == owner:
                # Class.method(...): ``self`` is passed explicitly.
                tree = self.nodes[target].trees[0]
                return [(sig, int("classmethod" in _decorators(tree)))]
            return [(sig, sig.bound)]
        if _is_dunder(func.attr):
            return []
        return [(sig, sig.bound) for sig in map(
            self.signature, self.by_attr.get(func.attr, ())) if sig]

    def _specs(self, mod: _Module) -> list[_Sig]:
        found = []
        for sub in ast.walk(mod.tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                    and _SPEC_RE.match(sub.value):
                for key in self._strings(sub.value):
                    sig = self.signature(key) if key in self.nodes else None
                    found += [sig] if sig else []
        return found

    def _dataclass_sigs(self) -> list[_Sig]:
        return [sig for sig in map(self.signature, (
            key for key, cls in self.classes.items() if _is_dataclass(cls)))
            if sig]

    def written(self) -> set[str]:
        """Attribute names code assigns or deletes outside ``__init__``
        and ``__post_init__`` — on anything but an argparse namespace,
        whose attributes are command-line options, not fields."""
        names: set[str] = set()

        def visit(tree: ast.AST, options: set[str]) -> None:
            if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if tree.name in ("__init__", "__post_init__"):
                    return
                options = options | _namespaces(tree)
            if isinstance(tree, ast.Attribute) \
                    and isinstance(tree.ctx, (ast.Store, ast.Del)) \
                    and not (isinstance(tree.value, ast.Name)
                             and tree.value.id in options):
                names.add(tree.attr)
            for child in ast.iter_child_nodes(tree):
                visit(child, options)

        for mod in self.modules.values():
            visit(mod.tree, set())
        return names

    def knobs(self, reached: set[str]) -> dict[str, str]:
        """Knob -> the def key it belongs to, over the public defs in
        ``reached``: defaulted parameters, and the defaulted fields of a
        dataclass that no code writes after construction."""
        written = self.written()
        found = {}
        for key in self.public:
            if key not in reached or key not in self.nodes:
                continue
            name = key.rsplit(".", 1)[1]
            if key not in self.classes and _is_dunder(name):
                continue
            sig = self.signature(key)
            if sig is None or sig.key != key:
                continue
            fields = key in self.classes \
                and f"{key}.__init__" not in self.nodes
            for param in sig.params:
                owner = param.knob.split("(")[0] if param.knob else ""
                # Its own, or a private base's: no other entry counts it.
                if param.knob and not param.name.startswith("_") \
                        and (owner == key
                             or owner.rsplit(".", 1)[-1].startswith("_")) \
                        and not (fields and param.name in written):
                    found[param.knob] = key
        return found

    def settings(self, reached: set[str]) -> set[str]:
        """The knobs the code of ``reached`` sets: by keyword or by
        position, and through ``**`` parameters passed on."""
        done: set[str] = set()
        spilled: dict[str, set[str]] = {}  # signature key -> via **
        hops: dict[str, list[_Call]] = {}
        work = []
        for key in reached:
            for call in self.calls(key):
                work.append((call, call.keywords))
                if call.forwards:
                    hops.setdefault(call.forwards, []).append(call)
        while work:
            call, words = work.pop()
            for sig, bound in call.targets:
                positional = [param for param in sig.params
                              if param.positional][bound:]
                if not call.star:
                    positional = positional[:call.npos]
                done.update(param.knob for param in positional)
                names = {param.name: param for param in sig.params}
                done.update(names[word].knob for word in words
                            if word in names)
                new = {word for word in words if word not in names} \
                    - spilled.setdefault(sig.key, set())
                if sig.kwarg and new:
                    spilled[sig.key] |= new
                    work += [(hop, hop.keywords | new)
                             for hop in hops.get(sig.key, ())]
        done.discard(None)
        return done


def _targets(stmt: ast.stmt) -> list[str]:
    """The names a module-level assignment binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


_BUILTINS = frozenset(dir(builtins))


def _function_sig(key: str, tree: ast.FunctionDef, bound: int) -> _Sig:
    args = tree.args
    positional = [*args.posonlyargs, *args.args]
    defaults = [None] * (len(positional) - len(args.defaults)) \
        + list(args.defaults)
    params = [_Param(arg.arg, f"{key}({arg.arg}=)" if default else None,
                     True) for arg, default in zip(positional, defaults)]
    params += [_Param(arg.arg, f"{key}({arg.arg}=)" if default else None,
                      False)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
    return _Sig(key, params, args.kwarg.arg if args.kwarg else None, bound)


def _namespaces(func: ast.FunctionDef) -> set[str]:
    """The names ``func`` binds to an argparse namespace: parameters
    annotated ``Namespace``, and names a ``parse_args()`` call assigns."""
    args = func.args
    found = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)
             if arg.annotation is not None
             and ast.unparse(arg.annotation).rsplit(".", 1)[-1]
             == "Namespace"}
    for sub in ast.walk(func):
        if isinstance(sub, ast.Assign) and _is_call_to(sub.value,
                                                       "parse_args"):
            found.update(target.id for target in sub.targets
                         if isinstance(target, ast.Name))
    return found


def _decorators(tree: ast.AST) -> set[str]:
    return {ast.unparse(dec).split("(")[0].rsplit(".", 1)[-1]
            for dec in getattr(tree, "decorator_list", ())}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return "dataclass" in _decorators(cls)


def _is_call_to(node: ast.AST | None, *names: str) -> bool:
    """Is ``node`` a call of a function or method named one of ``names``?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) \
        else func.attr if isinstance(func, ast.Attribute) else None
    return name in names


def _dict_keys(tree: ast.AST) -> dict[str, set[str]]:
    """The constant keys each local name is given as a dict: ``d = {...}``,
    ``d["key"] = ...``."""
    keys: dict[str, set[str]] = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target, value = sub.targets[0], sub.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Dict):
                keys.setdefault(target.id, set()).update(
                    filter(None, map(_literal, value.keys)))
            elif isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name) \
                    and _literal(target.slice):
                keys.setdefault(target.value.id, set()).add(
                    _literal(target.slice))
    return keys


def _is_getattr(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("getattr", "hasattr") and len(node.args) > 1


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_main_guard(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.If) and "__main__" in ast.unparse(stmt.test)


def _is_type_checking(stmt: ast.If) -> bool:
    return ast.unparse(stmt.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _is_lazy_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "lazy_exports" and len(node.args) == 2 \
        and isinstance(node.args[1], ast.Dict)


def _literal(expr: ast.expr) -> str:
    return expr.value if isinstance(expr, ast.Constant) else ""


def roots(index: _Index) -> dict[str, str]:
    """Root label -> node key."""
    found = {}
    cli = index.modules.get("repro.cli")
    if cli is not None:
        found["cli:main"] = "repro.cli.main"
        for stmt in cli.tree.body:
            if isinstance(stmt, ast.Assign) and _targets(stmt) == ["_COMMANDS"]:
                for name, handler in zip(stmt.value.keys, stmt.value.values):
                    found[f"cli:{_literal(name)}"] = f"repro.cli.{handler.id}"
    for pattern, label in ROOT_GLOBS:
        for path in sorted(index.repo.glob(pattern)):
            if path.resolve() == pathlib.Path(__file__).resolve():
                continue  # names code as data; runs none of it
            module = index._aux(path)
            key = f"root:{path.relative_to(index.repo)}"
            index.nodes[key] = _Node(module.name, [module.tree])
            found[f"{label}:{path.stem}"] = key
    return found


def census(repo: pathlib.Path = REPO_ROOT, allow: dict[str, str] = ALLOW,
           allow_knobs: dict[str, str] = ALLOW_KNOBS) -> Census:
    index = _Index(repo)
    reach: dict[str, set[str]] = {name: set() for name in index.public}
    starts = roots(index)
    walks = {label: index.walk([key]) for label, key in starts.items()}
    for label, reached in walks.items():
        for name in reached & reach.keys():
            reach[name].add(label)
    problems = []
    for name, reason in allow.items():
        if not reason.strip():
            problems.append(f"allow-list entry {name} gives no reason")
        if name not in reach:
            problems.append(f"allow-list entry {name} names nothing")
        elif reach[name]:
            problems.append(f"allow-list entry {name} is reached from "
                            f"{', '.join(sorted(reach[name]))}")
    kept = index.walk([*starts.values(), *(name for name in allow
                                           if name in reach)])
    unreached = [name for name in index.public
                 if not reach[name] and name not in kept]
    problems += [f"unreached: {name}" for name in unreached]
    everything = set().union(*walks.values())
    knobs: dict[str, set[str]] = {
        knob: set() for knob in index.knobs(everything)}
    walks["allow"] = kept - everything  # what only the allow-list keeps
    for label, reached in walks.items():
        for knob in index.settings(reached) & knobs.keys():
            knobs[knob].add(label)
    for knob, reason in allow_knobs.items():
        if not reason.strip():
            problems.append(f"knob allow-list entry {knob} gives no reason")
        if knob not in knobs:
            problems.append(f"knob allow-list entry {knob} names nothing")
        elif knobs[knob]:
            problems.append(f"knob allow-list entry {knob} is set from "
                            f"{', '.join(sorted(knobs[knob]))}")
    unset = [knob for knob in knobs
             if not knobs[knob] and knob not in allow_knobs]
    problems += [f"unset knob: {knob}" for knob in unset]
    return Census(reach, list(starts), dict(allow), unreached, problems,
                  knobs, dict(allow_knobs), unset)


def _compact(labels: set[str], every: list[str]) -> str:
    """``labels`` with each kind every root of which is in it as
    ``kind:*``."""
    words = []
    for kind in dict.fromkeys(label.split(":")[0] for label in every):
        group = [label for label in every if label.startswith(kind + ":")]
        if all(label in labels for label in group):
            words.append(f"{kind}:*")
        else:
            words += [label for label in group if label in labels]
    return " ".join(words) or "-"


def main() -> int:
    result = census()
    for name in sorted(result.reach):
        print(f"{name}  {_compact(result.reach[name], result.roots)}")
    print(f"\nallow-listed ({len(result.allowed)}):")
    for name, reason in sorted(result.allowed.items()):
        print(f"  {name}: {reason}")
    for problem in result.problems:
        print(f"reach: {problem}", file=sys.stderr)
    print()
    for knob in sorted(result.knobs):
        setters = result.knobs[knob]
        words = _compact(setters - {"allow"}, result.roots)
        if "allow" in setters:  # code only the allow-list keeps
            words = "allow-list" if words == "-" else f"{words} allow-list"
        print(f"{knob}  {words}")
    print(f"\nallow-listed knobs ({len(result.allowed_knobs)}):")
    for knob, reason in sorted(result.allowed_knobs.items()):
        print(f"  {knob}: {reason}")
    reached = sum(bool(roots) for roots in result.reach.values())
    kept = len(result.reach) - reached - len(result.unreached)
    print(f"\nreach: {len(result.reach)} public names: {reached} reached from "
          f"a root, {kept} kept by {len(result.allowed)} allow-list entries, "
          f"{len(result.unreached)} unreached")
    settable = len(result.knobs)
    allowed = len(result.allowed_knobs.keys() & result.knobs.keys())
    print(f"reach: {settable} knobs: {settable - allowed - len(result.unset)} "
          f"set by reached code, {allowed} kept by the knob allow-list, "
          f"{len(result.unset)} unset")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
