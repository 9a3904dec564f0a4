"""One failure table, one type at every layer.

``repro.errors`` declares every library error and its failure class;
the pool, the service, the server, the client and the chaos harness
read that class and decide nothing themselves.  These tests hold the
consequences: an input fails with the same type and message in process
and over TCP, every class survives the wire, and an ``ast`` rule keeps
the classification from growing back anywhere else in ``src/``.
"""

from __future__ import annotations

import ast
import gzip as stdlib_gzip
import inspect
import pathlib
import re

import pytest

import repro
from repro import errors
from repro.backend.pool import AcceleratorPool
from repro.errors import ConfigError, ReproError
from repro.service.client import ServiceClient
from repro.service.core import CompressionService
from repro.service.server import _error_reply, serve

from .test_pool import _corrupt_crc, _oversubscribed

SRC = pathlib.Path(repro.__file__).parent
FAILURES = {"chip", "deadline", "overload", "unavailable", "refused"}


# -- one type at every layer --------------------------------------------------

@pytest.fixture(scope="module")
def stack():
    """A pool, a service, and a client of a server over that service."""
    pool = AcceleratorPool(chips=1)
    service = CompressionService(chips=1)
    server = serve(service, port=0)
    client = ServiceClient(port=server.port)
    yield pool, service, client
    client.close()
    server.shutdown()
    service.close()
    pool.close()


def _inputs(text: bytes) -> dict[str, tuple]:
    """``(op, payload, request, layers)`` per input."""
    every = ("pool", "service", "tcp")
    return {
        "crc": ("decompress", _corrupt_crc(text), {"fmt": "gzip"}, every),
        "oversubscribed": ("decompress", _oversubscribed(text),
                           {"fmt": "gzip"}, every),
        "cut": ("decompress", stdlib_gzip.compress(text)[:40],
                {"fmt": "gzip"}, every),
        # Expires in the queue; the message names the measured wait.
        "deadline": ("compress", text, {"fmt": "gzip", "deadline_s": 1e-9},
                     ("service", "tcp")),
    }


def _ending(call, op, payload, request) -> tuple[type, str]:
    with pytest.raises(ReproError) as caught:
        call(op, payload, **request)
    return type(caught.value), re.sub(r"\d+(\.\d+)?", "#",
                                      str(caught.value))


@pytest.mark.parametrize("name", ["crc", "oversubscribed", "cut",
                                  "deadline"])
def test_every_layer_raises_the_innermost_type(stack, text_20k, name):
    pool, service, client = stack
    layers = {"pool": lambda op, payload, **request: getattr(pool, op)(
                  payload, **request),
              "service": service.request, "tcp": client.request}
    op, payload, request, where = _inputs(text_20k)[name]
    endings = {layer: _ending(layers[layer], op, payload, request)
               for layer in where}
    innermost = endings[where[0]]
    assert endings == dict.fromkeys(where, innermost)
    assert innermost[0] is not errors.ServiceError


def test_an_unknown_op_is_a_config_error(stack):
    with pytest.raises(ConfigError, match="unknown op 'frobnicate'"):
        stack[2].request("frobnicate", b"payload")


# -- the table ----------------------------------------------------------------

def _declared() -> list[type]:
    return [value for value in vars(errors).values()
            if inspect.isclass(value) and issubclass(value, ReproError)]


def test_the_table_covers_every_class():
    declared = _declared()
    assert set(errors.BY_WIRE_NAME.values()) == set(declared)
    assert {cls.failure for cls in declared} == FAILURES
    assert errors.failure_of(ValueError("a worker's bug")) == "chip"


@pytest.mark.parametrize("cls", _declared(), ids=lambda cls: cls.__name__)
def test_every_class_round_trips_the_wire(cls):
    reply = _error_reply(cls("boom"))
    retryable = cls.failure in errors.RETRYABLE
    assert reply["retryable"] is retryable
    if reply["status"] == "rejected":
        assert cls is errors.ServiceOverloaded
        return
    rebuilt = errors.from_wire(reply["error_type"], reply["error"])
    assert (type(rebuilt), str(rebuilt)) == (cls, "boom")


def test_an_unknown_name_is_a_service_error():
    rebuilt = errors.from_wire("TimeoutError", "not fulfilled")
    assert (type(rebuilt), str(rebuilt)) == (errors.ServiceError,
                                             "not fulfilled")


# -- the rule: the classification lives in errors.py alone --------------------

def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _family() -> set[str]:
    """errors.py's ReproError family, from its source (a base is
    declared before its subclasses)."""
    family = {"ReproError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) \
                and any(_name(base) in family for base in node.bases):
            family.add(node.name)
    return family


def _caught(tree: ast.AST, family: set[str]) -> set[str]:
    """Names that hold an exception: ``except ... as name``, and
    parameters annotated with an exception class."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            hint = _name(node.annotation) or ""
            if hint in family or hint.endswith(("Error", "Exception")):
                names.add(node.arg)
    return names


def _is_text(node: ast.AST, caught: set[str], names: set[str]) -> bool:
    """``str(e)``, ``e.args`` or ``type(e).__name__`` of a caught ``e``,
    or a string that names a library error (its class or wire name)."""
    def held(arg: ast.AST) -> bool:
        return isinstance(arg, ast.Name) and arg.id in caught

    if isinstance(node, ast.Constant):
        return node.value in names
    if isinstance(node, ast.Call) and _name(node.func) == "str":
        return len(node.args) == 1 and held(node.args[0])
    if isinstance(node, ast.Attribute) and node.attr == "args":
        return held(node.value)
    if isinstance(node, ast.Attribute) and node.attr == "__name__":
        inner = node.value
        return (isinstance(inner, ast.Call) and _name(inner.func) == "type"
                and len(inner.args) == 1 and held(inner.args[0]))
    return False


def violations(source: str, path: str, family: set[str]) -> list[str]:
    """Where ``source`` classifies an error outside errors.py."""
    tree = ast.parse(source)
    family = set(family)  # grows by the classes (c) finds
    caught = _caught(tree, family)
    names = family | set(errors.BY_WIRE_NAME)
    home = path.endswith("errors.py")
    found = []
    for node in ast.walk(tree):
        tested = []
        if isinstance(node, ast.Compare):
            tested = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("startswith", "endswith")):
            tested = [node.func.value]
        if any(_is_text(sub, caught, names) for part in tested
               for sub in ast.walk(part)):
            found.append(f"{path}:{node.lineno}: (a) an error's text tested")
        if home:
            continue
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance" \
                and len(node.args) == 2:
            classes = node.args[1]
            named = (classes.elts if isinstance(classes, ast.Tuple)
                     else [classes])
            if any(_name(cls) in family for cls in named):
                found.append(f"{path}:{node.lineno}: (b) isinstance "
                             "against a library error")
        if isinstance(node, ast.ClassDef) \
                and any(_name(base) in family for base in node.bases):
            found.append(f"{path}:{node.lineno}: (c) library error "
                         f"{node.name} declared outside errors.py")
            family.add(node.name)
    return found


def test_no_module_classifies_an_error_itself():
    family = _family()
    found = [hit for path in sorted(SRC.rglob("*.py"))
             for hit in violations(path.read_text(),
                                   str(path.relative_to(SRC)), family)]
    assert found == []


@pytest.mark.parametrize("rule,source", [
    ("(a)", "try:\n    pass\nexcept DeflateError as exc:\n"
            "    if not str(exc).startswith('unexpected end'):\n"
            "        raise\n"),
    ("(a)", "def ran_out(exc: DeflateError) -> bool:\n"
            "    return 'unexpected end' in str(exc)\n"),
    ("(a)", "try:\n    pass\nexcept ReproError as e:\n"
            "    if type(e).__name__ in ('DeadlineExceeded', 'JobError'):\n"
            "        raise\n"),
    ("(a)", "try:\n    pass\nexcept Exception as err:\n"
            "    late = err.args[0] == 'late'\n"),
    ("(a)", "if reply.get('error_type') in ('DeadlineExceeded', 'JobError'):"
            "\n    pass\n"),
    ("(b)", "late = isinstance(error, DeadlineExceeded)\n"),
    ("(b)", "bad = isinstance(error, (ValueError, errors.ChecksumError))\n"),
    ("(c)", "class RemoteServiceError(ServiceError):\n    pass\n"),
], ids=["startswith", "in-param", "name-in", "args-eq", "wire-name",
        "isinstance", "isinstance-tuple", "subclass"])
def test_the_rule_fails_on(rule, source):
    found = violations(source, "service/client.py", _family())
    assert len(found) == 1 and f": {rule} " in found[0], found


def test_the_rule_passes_what_reads_the_table():
    source = (
        "try:\n    pass\nexcept ReproError as exc:\n"
        "    reason = type(exc).__name__\n"
        "    log(str(exc))\n"
        "    shed = failure_of(exc) in ('overload', 'deadline')\n"
        "ok = isinstance(data, (bytes, bytearray))\n"
        "class Frame(tuple):\n    pass\n")
    assert violations(source, "service/client.py", _family()) == []
    home = "class ChipError(ReproError):\n    pass\n" \
           "chip = isinstance(exc, ReproError)\n"
    assert violations(home, "errors.py", _family()) == []
