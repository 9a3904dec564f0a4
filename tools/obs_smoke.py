"""CI smoke test for the observability layer.

Phase 1 runs a traced parallel-deflate round-trip in-process, exports
the Chrome trace, and asserts the trace parses and contains the
expected span taxonomy.  Phase 2 starts a real ``repro serve`` child
process with the HTTP ops plane, scrapes ``/healthz`` and ``/metrics``,
submits a traced job through :class:`~repro.service.ServiceClient`, and
asserts the exported trace tree on ``/traces/recent`` nests
client → service → pool → worker spans under the client's wire trace
id.  The telemetry-overhead ceiling itself is enforced separately by
``tools/perf_gate.py --obs-only``.

Usage::

    PYTHONPATH=src python tools/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import urllib.request

from repro import obs
from repro.backend import AcceleratorPool
from repro.deflate.inflate import inflate
from repro.deflate.parallel import parallel_deflate
from repro.nx.params import POWER9
from repro.service import ServiceClient
from repro.workloads.generators import generate

#: Spans the served trace tree must contain, per the propagation chain
#: service.request → pool.route → worker.job → kernel.
SERVED_SPANS = {"service.request", "pool.route", "worker.job",
                "backend.submit"}


def _tree_names(node: dict, out: set | None = None) -> set:
    out = out if out is not None else set()
    out.add(node["name"])
    for child in node.get("children", ()):
        _tree_names(child, out)
    return out


def _http_get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read()


def serve_smoke() -> int:
    """Phase 2: live server + ops plane + cross-process trace."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--http-port", "0", "--backend", "software",
         "--exec-workers", "2", "--duration-s", "60"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        ports: dict[str, int] = {}
        for line in proc.stdout:
            match = re.search(r"serving on [\d.]+:(\d+)", line)
            if match:
                ports["tcp"] = int(match.group(1))
            match = re.search(r"ops on http://[\d.]+:(\d+)", line)
            if match:
                ports["http"] = int(match.group(1))
                break
        if set(ports) != {"tcp", "http"}:
            print("obs smoke FAILED: server did not announce its ports")
            return 1
        base = f"http://127.0.0.1:{ports['http']}"

        health = json.loads(_http_get(base + "/healthz"))
        if health.get("status") != "ok":
            print(f"obs smoke FAILED: /healthz says {health}")
            return 1

        payload = generate("markov_text", 65536, seed=23)
        with ServiceClient(port=ports["tcp"]) as client:
            result = client.compress(payload, fmt="raw")
        if inflate(result.output) != payload:
            print("obs smoke FAILED: served round-trip mismatch")
            return 1
        wire_trace = result.traceparent.split("-")[1]

        metrics = _http_get(base + "/metrics").decode()
        if "repro_service_requests_total" not in metrics:
            print("obs smoke FAILED: /metrics missing service counters")
            return 1

        doc = json.loads(_http_get(base + "/traces/recent"))
        match_trees = [tree for tree in doc.get("traces", ())
                       if tree.get("trace_id") == wire_trace]
        if not match_trees:
            print(f"obs smoke FAILED: no exported trace with wire id "
                  f"{wire_trace}")
            return 1
        names: set = set()
        for root in match_trees[0]["roots"]:
            _tree_names(root, names)
        if not SERVED_SPANS <= names:
            print(f"obs smoke FAILED: served trace missing spans "
                  f"{SERVED_SPANS - names} (have {sorted(names)})")
            return 1
        print(f"serve smoke passed: trace {wire_trace[:12]}… nests "
              f"{sorted(SERVED_SPANS)}")
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()


def main() -> int:
    corpus = generate("markov_text", 262144, seed=21)

    obs.enable()
    result = parallel_deflate(corpus, level=6, workers=2)
    if inflate(result.data) != corpus:
        print("obs smoke FAILED: parallel-deflate round-trip mismatch")
        return 1

    # One pooled job so the backend/pool metric families populate too.
    with AcceleratorPool(POWER9, chips=1) as pool:
        pooled = pool.compress(corpus[:20000])
        if pool.decompress(pooled.output).output != corpus[:20000]:
            print("obs smoke FAILED: pooled round-trip mismatch")
            return 1

    with tempfile.NamedTemporaryFile(suffix=".trace.json",
                                     delete=False) as handle:
        trace_path = handle.name
    obs.export_chrome_trace(trace_path)
    doc = json.loads(open(trace_path).read())
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        print("obs smoke FAILED: trace has no events")
        return 1
    names = {e["name"] for e in events if e.get("ph") == "X"}
    expected = {"deflate.parallel", "pool.route", "backend.submit",
                "vas.paste", "engine.run", "csb.complete"}
    if not expected <= names:
        print(f"obs smoke FAILED: missing spans {expected - names}")
        return 1

    snapshot = obs.registry().to_prometheus()
    obs.disable()
    obs.reset()

    spans = len(events)
    metric_lines = len(snapshot.splitlines())
    print(f"obs smoke passed: {len(corpus)} bytes round-tripped, "
          f"{spans} trace events, {metric_lines} metric lines")
    return serve_smoke()


if __name__ == "__main__":
    raise SystemExit(main())
