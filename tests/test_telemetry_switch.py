"""Telemetry owns its off switch.

Whether spans and metrics are recorded is decided in one place: the
sinks (``TRACE``, ``REGISTRY``, ``FLIGHT``) under ``src/repro/obs/``.
Every instrumented site calls them unconditionally, so

* an ``ast`` rule fails on any ``if``, conditional expression, boolean
  test or local alias outside ``obs/`` that reads a sink's ``enabled``;
* one served request of each kind, with telemetry off, leaves no span
  and no metric family behind;
* the metric-name lint (``tools/metrics_lint.py``) passes, with every
  name it requires still registered.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import pytest

from repro import obs
from repro.service import ServiceClient
from repro.service.core import CompressionService
from repro.service.server import serve
from tools.record_goldens import TELEMETRY_CASES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The sinks whose switch only ``obs/`` may read.
SINKS = {"TRACE", "REGISTRY", "FLIGHT"}
#: ``repro.obs`` functions that read a switch.
SWITCH_READERS = {"tracing_enabled", "metrics_enabled"}


def _sink_names(tree: ast.AST) -> set[str]:
    """Local names bound to a sink by ``from ... import TRACE as _T``."""
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in SINKS}


def _reads_switch(node: ast.AST, sinks: set[str]) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                and isinstance(sub.value, ast.Name)
                and sub.value.id in sinks):
            return True
        if isinstance(sub, ast.Call) and (
                getattr(sub.func, "id", None) in SWITCH_READERS
                or getattr(sub.func, "attr", None) in SWITCH_READERS):
            return True
    return False


def _tested(tree: ast.AST) -> list[ast.expr]:
    """Every expression whose truth a statement or operator tests, and
    every value bound straight to a name (a test one step removed,
    such as ``traced = TRACE.enabled``)."""
    tested: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.BoolOp):
            tested.extend(node.values)
        elif isinstance(node, ast.comprehension):
            tested.extend(node.ifs)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) \
                and isinstance(node.value, (ast.Attribute, ast.Call)):
            tested.append(node.value)
    return tested


def violations(source: str, path: str) -> list[str]:
    """Where ``source`` decides for itself whether telemetry is on."""
    tree = ast.parse(source)
    sinks = _sink_names(tree) | SINKS
    lines = {part.lineno for part in _tested(tree)
             if _reads_switch(part, sinks)}
    return [f"{path}:{line}: reads a telemetry switch"
            for line in sorted(lines)]


def test_no_site_outside_obs_reads_a_switch():
    found = [hit for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).parts[0] != "obs"
             for hit in violations(path.read_text(),
                                   str(path.relative_to(SRC)))]
    assert found == []


@pytest.mark.parametrize("source", [
    "if _TRACE.enabled:\n    pass\n",
    "if _REGISTRY.enabled:\n    record_job()\nelse:\n    pass\n",
    "span = TRACE.span('x') if TRACE.enabled else NULL_SPAN\n",
    "if finished and _REGISTRY.enabled:\n    pass\n",
    "traced = _TRACE.enabled\n",
    "if FLIGHT.enabled:\n    pass\n",
    "while obs.tracing_enabled():\n    pass\n",
    "names = [n for n in names if metrics_enabled()]\n",
], ids=["if", "if-else", "ifexp", "boolop", "alias", "flight", "reader",
        "comp"])
def test_the_rule_fails_on(source):
    source = "from ..obs.trace import TRACE as _TRACE\n" \
             "from ..obs.metrics import REGISTRY as _REGISTRY\n" + source
    assert len(violations(source, "service/core.py")) == 1


def test_the_rule_passes_unconditional_calls():
    source = (
        "from ..obs.trace import TRACE as _TRACE\n"
        "from ..obs.metrics import REGISTRY as _REGISTRY\n"
        "with _TRACE.span('pool.route', nbytes=n) as span:\n"
        "    span.set(chip=chip)\n"
        "_REGISTRY.counter('repro_pool_dispatch_total').inc(1)\n"
        "opts = {'trace': _TRACE.enabled}\n"
        "if window.enabled:\n    pass\n")
    assert violations(source, "backend/pool.py") == []


# -- telemetry off: a served request records nothing ------------------------

@pytest.mark.parametrize("name", sorted(TELEMETRY_CASES))
def test_a_request_with_telemetry_off_records_nothing(name):
    """The stack benchmark's four served paths, as the telemetry golden
    records them traced (``tools/record_goldens.py``), run with
    telemetry off."""
    kwargs, op, qos, make_payload, requests = TELEMETRY_CASES[name]
    payload = make_payload()
    obs.disable()
    obs.reset()
    service = CompressionService(chips=2, **kwargs)
    server = serve(service)
    try:
        with ServiceClient(port=server.port) as client:
            for _ in range(requests):
                client.request(op, payload, qos=qos, fmt="gzip")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    assert obs.tracer().finished() == []
    assert obs.registry().names() == []


# -- the metric-name lint ----------------------------------------------------

def test_metrics_lint_passes_with_every_required_name():
    import tools.metrics_lint as metrics_lint

    run = subprocess.run([sys.executable,
                          str(ROOT / "tools" / "metrics_lint.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    seen: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        assert metrics_lint.lint_source(path.read_text(), str(path),
                                        seen) == []
    assert metrics_lint.REQUIRED_NAMES <= seen
