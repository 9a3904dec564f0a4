#!/usr/bin/env python
"""Reachability census: which entry point reaches each public name.

Every public module-level name and every public method under
``src/repro/`` must be reached from an entry point, or carry a one-line
reason in :data:`ALLOW`.  The entry points (*roots*) are:

* each handler in ``repro.cli._COMMANDS``, and ``repro.cli.main``;
* every ``benchmarks/bench_*.py``, ``benchmarks/stack/*.py``,
  ``examples/*.py`` and ``tools/*.py`` file (but this one), and
  ``tests/test_claims.py`` — a root file is read whole.

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

Run from anywhere; prints every name with the roots that reach it, then
the allow-list, then each unreached name, and exits 1 on any problem::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Names kept though no root reaches them, each with its reason.  An
#: entry that says "queued" is dead code whose tests still call it: the
#: next change to delete code deletes it with them.
ALLOW: dict[str, str] = {
    # Reference models and oracles the tests hold reached code to.
    "repro.nx.hashbank.BankedHashTable.lookup_insert":
        "per-access model tests/test_scan_kernel.py holds "
        "NxMatchPipeline.scan equal to",
    "repro.nx.hashbank.BankedHashTable.charge_group_conflicts":
        "per-access bank-conflict model tests/test_scan_kernel.py holds "
        "the scan's stall count equal to",
    "repro.deflate.huffman.kraft_sum":
        "completeness oracle tests/test_huffman.py, test_dht.py and "
        "test_constants.py apply to every code the builders emit",
    "repro.dictsvc.cache.ResultCache.snapshot_keys":
        "LRU order tests/test_dictsvc.py compares with its reference "
        "OrderedDict model",
    "repro.dictsvc.keyed.KeyedCache.cached_bytes":
        "byte total tests/test_dictsvc.py and test_message_floor.py "
        "compare with their reference models",
    "repro.deflate.bitio.BitWriter.bit_length":
        "exact bit length tests/test_inflate_kernel.py cuts encoded "
        "streams at",
    # Called by the standard library, never by name.
    "repro.service.server.CompressionServer.get_request":
        "socketserver.TCPServer calls it to accept a connection",
    # Type aliases: only annotations name them.
    "repro.deflate.matcher.Token": "type alias of a matcher token",
    "repro.perf.queueing.Size": "type alias of a job size or sampler",
    "repro.workloads.traces.SizeSampler": "type alias of a size sampler",
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
    "repro.core.api.NxGzip.decompress_stream":
        "decode half of NxGzip.compress_stream, whose units "
        "tools/record_goldens.py pins",
    "repro.core.stream.NxDecompressStream.decode_unit":
        "decode half of NxCompressStream.write",
    "repro.core.stream.reassemble":
        "joins NxCompressStream units into one raw stream",
    "repro.deflate.zlib_like.decompress":
        "decode half of the zlib_like drop-in, whose compress half "
        "tools/record_goldens.py pins",
    "repro.deflate.zlib_like.decompressobj":
        "decode half of zlib_like.compressobj",
    "repro.deflate.containers.zlib_decompress":
        "decode half of containers.zlib_compress",
    "repro.deflate.containers.gzip_decompress_members":
        "multi-member decode stdlib gzip.decompress also accepts; "
        "tests/test_truncation.py holds it to a typed error at every cut",
    "repro.deflate.gzip_stream.GzipReader":
        "streaming decode of gzip members over InflateStream",
    # Queued: only tests call these.
    "repro.core.metrics.gbps": "queued: only tests/test_api.py calls it",
    "repro.core.metrics.speedup":
        "queued: only tests/test_api.py calls it",
    "repro.core.metrics.ratio": "queued: only tests/test_api.py calls it",
    "repro.core.offload.OffloadAdvisor.curve":
        "queued: only tests/test_api.py calls it",
    "repro.deflate.huffman.HuffmanEncoder.cost":
        "queued: only tests/test_huffman.py calls it",
    "repro.nx.pipeline.ScanResult.total_cycles":
        "queued: only tests/test_pipeline.py reads it",
    "repro.workloads.filesets.by_extension":
        "queued: only tests/test_strategies_and_filesets.py calls it",
    "repro.workloads.traces.standard_traces":
        "queued: only tests/test_workloads.py calls it (and with it "
        "TraceSpec, fixed_size and lognormal_size)",
}

#: Root files, as globs under the repo, and the label prefix of each.
ROOT_GLOBS = (("benchmarks/bench_*.py", "bench"),
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
class Census:
    """What :func:`census` found.  ``reach`` maps every public name to
    the roots that reach it (empty: unreached)."""

    reach: dict[str, set[str]]
    roots: list[str]
    allowed: dict[str, str]
    unreached: list[str]
    problems: list[str]


class _Index:
    def __init__(self, repo: pathlib.Path) -> None:
        self.repo = repo = repo.resolve()
        self.src = repo / "src"
        self.modules: dict[str, _Module] = {}
        self.nodes: dict[str, _Node] = {}
        self.methods: dict[str, list[str]] = {}    # class key -> methods
        self.by_attr: dict[str, list[str]] = {}    # method name -> keys
        self.public: list[str] = []
        self._summaries: dict[str, tuple] = {}
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

    def _summarize(self, node: _Node) -> tuple[set[str], set[str]]:
        mod = self.modules[node.module]
        refs: set[str] = set()
        attrs: set[str] = set()
        local: dict[str, tuple] = {}
        for tree in node.trees:
            for sub in ast.walk(tree):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    local.update(self._import_bindings(mod, sub))
                    refs.update(self._loads(mod, sub))

        def lookup(name: str) -> str | None:
            if name in node.scope:
                return node.scope[name]
            return self.resolve(local.get(name) or mod.globals.get(name))

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


def _targets(stmt: ast.stmt) -> list[str]:
    """The names a module-level assignment binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


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


def census(repo: pathlib.Path = REPO_ROOT,
           allow: dict[str, str] = ALLOW) -> Census:
    index = _Index(repo)
    reach: dict[str, set[str]] = {name: set() for name in index.public}
    starts = roots(index)
    for label, key in starts.items():
        for name in index.walk([key]) & reach.keys():
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
    return Census(reach, list(starts), dict(allow), unreached, problems)


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
    reached = sum(bool(roots) for roots in result.reach.values())
    kept = len(result.reach) - reached - len(result.unreached)
    print(f"\nreach: {len(result.reach)} public names: {reached} reached from "
          f"a root, {kept} kept by {len(result.allowed)} allow-list entries, "
          f"{len(result.unreached)} unreached")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
