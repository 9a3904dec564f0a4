"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compress``   — compress a file through the accelerator model
* ``decompress`` — decompress a file (gzip/zlib/raw)
* ``cat``        — decompress to stdout; ``--range OFF:LEN`` serves a
  random read through a seek-index sidecar without decoding the prefix
* ``machines``   — list modelled machines and their calibrated rates
* ``backends``   — list registered backends and their capabilities
* ``advise``     — offload advice for a request size
* ``ratio``      — compare codec ratios on a file or named generator
* ``stats``      — telemetry snapshot: metrics registry + engine health
  (or ``--url`` to scrape a live server's ops endpoint)
* ``chaos``      — seeded fault-injection survival campaign
* ``serve``      — compression job server (QoS queues, batching);
  ``--http-port`` adds the ops plane (``/metrics`` ``/healthz``
  ``/traces/recent`` ``/flight`` ``/ops``)
* ``submit``     — client: send a file to a running server
* ``top``        — live fleet view: poll a server's ops endpoint and
  render rolling-window latency/throughput/shed/breaker state

Telemetry is off by default; ``repro --trace <command>`` records spans
for every job and writes a Chrome ``trace_event`` JSON (open it in
Perfetto or chrome://tracing), and ``--metrics`` prints a Prometheus
snapshot of the metrics registry after the command.

Every engine acquisition goes through the backend registry: pick the
execution path with ``--backend`` and fan jobs across chips with
``--pool-chips``/``--pool-policy``.  The CLI exists so the model is
usable without writing Python; every command prints the modelled timing
next to the functional result.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Module level holds what ``build_parser`` needs for its ``choices=``;
# a handler imports the layers it runs when it is dispatched.
from .backend.registry import backend_names
from .backend.routing import ROUTING_POLICIES
from .deflate.containers import FORMATS, SUFFIXES
from .errors import ConfigError, ReproError, wire_name
from .nx.params import MACHINES, get_machine


def _add_machine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="POWER9",
                        choices=sorted(MACHINES),
                        help="machine model to run on")


def _add_backend_args(parser: argparse.ArgumentParser,
                      pool: bool = False) -> None:
    parser.add_argument("--backend", default=None,
                        choices=sorted(backend_names()),
                        help="execution backend from the registry "
                             "(default: the machine's driver stack)")
    if pool:
        parser.add_argument("--pool-chips", type=int, default=1,
                            help="route across N per-chip accelerator "
                                 "instances (default: 1, no pool)")
        parser.add_argument("--pool-policy", default="round_robin",
                            choices=ROUTING_POLICIES,
                            help="pool routing policy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IBM POWER9/z15 compression accelerator model")
    parser.add_argument("--trace", action="store_true",
                        help="record job spans and write a Chrome "
                             "trace_event JSON after the command")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="trace output path "
                             "(default: repro-trace.json)")
    parser.add_argument("--metrics", action="store_true",
                        help="print a Prometheus metrics snapshot "
                             "after the command")
    sub = parser.add_subparsers(dest="command", required=True)

    p_comp = sub.add_parser("compress", help="compress a file")
    p_comp.add_argument("input", type=pathlib.Path)
    p_comp.add_argument("-o", "--output", type=pathlib.Path)
    p_comp.add_argument("--fmt", default="gzip",
                        choices=FORMATS)
    p_comp.add_argument("--strategy", default="auto",
                        choices=["auto", "fixed", "dynamic", "canned"])
    p_comp.add_argument("--verify", action="store_true",
                        help="verify-after-compress: re-inflate and "
                             "CRC-check before writing; mismatches are "
                             "re-encoded in software")
    p_comp.add_argument("--deadline-ms", type=float, default=None,
                        help="per-job deadline in modelled milliseconds "
                             "(bounds retry/wait time)")
    _add_machine_arg(p_comp)
    _add_backend_args(p_comp, pool=True)

    p_dec = sub.add_parser("decompress", help="decompress a file")
    p_dec.add_argument("input", type=pathlib.Path)
    p_dec.add_argument("-o", "--output", type=pathlib.Path)
    p_dec.add_argument("--fmt", default="gzip",
                       choices=FORMATS)
    p_dec.add_argument("--deadline-ms", type=float, default=None,
                       help="per-job deadline in modelled milliseconds")
    _add_machine_arg(p_dec)
    _add_backend_args(p_dec, pool=True)

    p_cat = sub.add_parser(
        "cat", help="decompress to stdout; --range serves random reads "
                    "through a seek index without decoding the prefix")
    p_cat.add_argument("input", type=pathlib.Path)
    p_cat.add_argument("-o", "--output", type=pathlib.Path,
                       help="write bytes here instead of stdout")
    p_cat.add_argument("--fmt", default="gzip",
                       choices=FORMATS)
    p_cat.add_argument("--range", default=None, metavar="OFF:LEN",
                       help="uncompressed byte range to serve "
                            "(e.g. 1048576:4096)")
    p_cat.add_argument("--index", type=pathlib.Path, default=None,
                       help="seek-index sidecar path "
                            "(default: INPUT.rsix)")
    p_cat.add_argument("--no-index", action="store_true",
                       help="never read or write an index sidecar")

    sub.add_parser("machines", help="list machine models")

    p_back = sub.add_parser("backends",
                            help="list registered compression backends")
    _add_machine_arg(p_back)

    p_adv = sub.add_parser("advise", help="offload advice for a size")
    p_adv.add_argument("size", type=int, help="request size in bytes")
    p_adv.add_argument("--level", type=int, default=6)
    _add_machine_arg(p_adv)

    p_ratio = sub.add_parser("ratio", help="codec ratio comparison")
    p_ratio.add_argument("source",
                         help="a file path or generator:<name>[:size]")
    _add_machine_arg(p_ratio)
    _add_backend_args(p_ratio)

    p_self = sub.add_parser("selftest",
                            help="known-answer vectors through both pipes")
    _add_machine_arg(p_self)

    p_stats = sub.add_parser(
        "stats", help="telemetry snapshot: metrics + accelerator health")
    p_stats.add_argument("--machine", default=None,
                         choices=sorted(MACHINES),
                         help="probe one machine's engines "
                              "(default: all)")
    p_stats.add_argument("--format", default="both",
                         choices=["json", "prometheus", "both"],
                         help="snapshot rendering (default: both)")
    p_stats.add_argument("--url", default=None,
                         help="scrape a live server's ops endpoint "
                              "(e.g. http://127.0.0.1:8080) instead of "
                              "probing local engines")

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection survival campaign")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="campaign seed (default: 7)")
    p_chaos.add_argument("--jobs", type=int, default=None,
                         help="jobs per scenario (default: 200; 40 with "
                              "--network)")
    p_chaos.add_argument("--chips", type=int, default=2,
                         help="pool size (default: 2)")
    p_chaos.add_argument("--max-size", type=int, default=4096,
                         help="largest job payload in bytes")
    p_chaos.add_argument("--scenario", default=None,
                         help="run only this named scenario")
    stack = p_chaos.add_mutually_exclusive_group()
    stack.add_argument("--network", action="store_true",
                       help="wire-fault campaign: seeded socket chaos "
                            "(resets, truncation, slow-loris, "
                            "duplicates) vs reconnecting idempotent "
                            "clients; asserts exactly-once execution")
    stack.add_argument("--under-load", action="store_true",
                       help="inject faults while a live service "
                            "handles concurrent clients (chaos-under-"
                            "load: payload integrity, typed refusals, "
                            "bounded queues)")
    p_chaos.add_argument("--clients", type=int, default=4,
                         help="concurrent client threads for --network "
                              "and --under-load (default: 4)")
    p_chaos.add_argument("--exec-workers", type=int, default=None,
                         help="with --under-load: run jobs on N pool "
                              "worker processes and kill workers "
                              "mid-run instead of injecting modelled "
                              "faults (crash-recovery integrity check)")
    _add_machine_arg(p_chaos)

    p_dict = sub.add_parser(
        "dict", help="dictionary service: train and list tenant canned "
                     "DHTs (serve --dicts pushes a bundle)")
    dict_sub = p_dict.add_subparsers(dest="dict_command", required=True)
    p_dtrain = dict_sub.add_parser(
        "train", help="train per-family dictionaries on a seeded corpus")
    p_dtrain.add_argument("--corpus", default="cloud-like",
                          help="workload corpus to sample "
                               "(default: cloud-like)")
    p_dtrain.add_argument("--scale", type=float, default=0.25,
                          help="corpus scale factor (default: 0.25)")
    p_dtrain.add_argument("--seed", type=int, default=7,
                          help="training seed; the same seed always "
                               "produces byte-identical dictionaries")
    p_dtrain.add_argument("--sample-bytes", type=int, default=4096,
                          help="bytes sampled per observed payload")
    p_dtrain.add_argument("--max-clusters", type=int, default=4,
                          help="cluster cap per tenant (default: 4)")
    p_dtrain.add_argument("-o", "--out", type=pathlib.Path,
                          default=pathlib.Path("dicts.json"),
                          help="bundle output path (default: dicts.json)")
    p_dlist = dict_sub.add_parser(
        "list", help="list a bundle's dictionaries")
    p_dlist.add_argument("--bundle", type=pathlib.Path, required=True,
                         help="bundle to inspect")

    p_serve = sub.add_parser(
        "serve", help="compression job server (QoS queues, batching)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default: 0 = ephemeral; the "
                              "bound port is printed)")
    p_serve.add_argument("--chips", type=int, default=1,
                         help="accelerator pool size (default: 1)")
    p_serve.add_argument("--policy", default="round_robin",
                         choices=ROUTING_POLICIES,
                         help="pool routing policy")
    p_serve.add_argument("--verify", action="store_true",
                         help="verify-after-compress on served jobs")
    p_serve.add_argument("--duration-s", type=float, default=None,
                         help="serve for N seconds then drain and exit "
                              "(default: until interrupted)")
    p_serve.add_argument("--exec-workers", type=int, default=None,
                         help="run served jobs on N persistent worker "
                              "processes, at most one per CPU "
                              "(payloads on plain pipes; the "
                              "dispatcher stays an I/O loop)")
    p_serve.add_argument("--http-port", type=int, default=None,
                         help="also serve the HTTP ops plane on this "
                              "port (0 = ephemeral; adds /metrics, "
                              "/healthz, /traces/recent, /flight, /ops "
                              "and enables tracing+metrics)")
    p_serve.add_argument("--cache-mb", type=float, default=None,
                         help="mount a content-addressed result cache "
                              "of this many MB in front of dispatch "
                              "(identical compress requests dedupe to "
                              "one execution)")
    p_serve.add_argument("--dicts", type=pathlib.Path, default=None,
                         help="dictionary bundle (from 'repro dict "
                              "train') to push into the engine's "
                              "canned library before serving")
    _add_machine_arg(p_serve)
    _add_backend_args(p_serve)

    p_sub = sub.add_parser(
        "submit", help="send one file to a running compression server")
    p_sub.add_argument("input", type=pathlib.Path)
    p_sub.add_argument("-o", "--output", type=pathlib.Path)
    p_sub.add_argument("--op", default="compress",
                       choices=["compress", "decompress"])
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, required=True)
    p_sub.add_argument("--qos", default=None,
                       help="QoS class (interactive/batch/bulk)")
    p_sub.add_argument("--tenant", default="")
    p_sub.add_argument("--fmt", default="gzip",
                       choices=FORMATS)
    p_sub.add_argument("--deadline-ms", type=float, default=None)
    p_sub.add_argument("--retries", type=int, default=3,
                       help="retry budget for overload rejections "
                            "(default: 3, honouring retry_after_s)")

    p_top = sub.add_parser(
        "top", help="live fleet view over a server's HTTP ops plane")
    p_top.add_argument("--url", required=True,
                       help="ops base URL, e.g. http://127.0.0.1:8080")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes (default: 2)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit (scripts/CI)")
    return parser


def _load_source(source: str) -> tuple[str, bytes]:
    if source.startswith("generator:"):
        from .core.metrics import human_bytes
        from .workloads.generators import generate

        parts = source.split(":")
        name = parts[1]
        size = int(parts[2]) if len(parts) > 2 else 65536
        return f"{name}({human_bytes(size)})", generate(name, size, seed=1)
    path = pathlib.Path(source)
    return path.name, path.read_bytes()


def _run_session(args: argparse.Namespace, kind: str,
                 data: bytes) -> tuple[bytes, float]:
    """Execute one request through the accelerator pool; returns
    (output bytes, modelled seconds).  A single chip still routes
    through the pool so every CLI job shares one code path (and one
    span taxonomy: pool.route → backend.submit → …)."""
    from .backend.pool import AcceleratorPool

    if getattr(args, "pool_chips", 1) < 1:
        raise ReproError(f"--pool-chips must be >= 1, got {args.pool_chips}")
    deadline_ms = getattr(args, "deadline_ms", None)
    deadline_s = deadline_ms * 1e-3 if deadline_ms is not None else None
    with AcceleratorPool(args.machine,
                         chips=getattr(args, "pool_chips", 1),
                         policy=getattr(args, "pool_policy",
                                        "round_robin"),
                         backend=args.backend or "nx",
                         verify=getattr(args, "verify", False)) as pool:
        if kind == "compress":
            result = pool.compress(data, strategy=args.strategy,
                                   fmt=args.fmt, deadline_s=deadline_s)
        else:
            result = pool.decompress(data, fmt=args.fmt,
                                     deadline_s=deadline_s)
    return result.output, result.stats.elapsed_seconds


def cmd_compress(args: argparse.Namespace) -> int:
    from .core.metrics import human_bytes

    data = args.input.read_bytes()
    payload, seconds = _run_session(args, "compress", data)
    suffix = SUFFIXES[args.fmt]
    output = args.output or args.input.with_name(args.input.name + suffix)
    output.write_bytes(payload)
    ratio = len(data) / len(payload) if payload else 0.0
    print(f"{args.input} -> {output}")
    print(f"  {human_bytes(len(data))} -> {human_bytes(len(payload))} "
          f"(ratio {ratio:.2f})")
    print(f"  modelled time on {args.machine}: "
          f"{seconds * 1e6:.1f} us "
          f"({len(data) / 1e9 / seconds:.2f} GB/s)")
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    from .core.metrics import human_bytes

    payload = args.input.read_bytes()
    args.strategy = "auto"  # decompress has no strategy flag
    data, seconds = _run_session(args, "decompress", payload)
    output = args.output or args.input.with_suffix(".out")
    output.write_bytes(data)
    print(f"{args.input} -> {output}")
    print(f"  {human_bytes(len(payload))} -> "
          f"{human_bytes(len(data))}")
    print(f"  modelled time on {args.machine}: "
          f"{seconds * 1e6:.1f} us")
    return 0


def _parse_range(spec: str) -> tuple[int, int]:
    try:
        off_s, len_s = spec.split(":", 1)
        offset, length = int(off_s, 0), int(len_s, 0)
    except ValueError:
        raise ReproError(f"--range wants OFF:LEN, got {spec!r}") from None
    if offset < 0 or length < 0:
        raise ReproError(f"--range values must be >= 0, got {spec!r}")
    return offset, length


def cmd_cat(args: argparse.Namespace) -> int:
    """Decompress to stdout, or serve a random read via the seek index.

    Bytes go to stdout (or ``-o``); everything human-readable goes to
    stderr so ``repro cat f.gz > f`` stays clean.  A corrupt or stale
    index sidecar is *reported and ignored* — the read falls back to a
    full decode, never to wrong bytes.
    """
    from .core.metrics import human_bytes
    from .deflate.seekindex import SeekIndex, read_range
    from .errors import SeekIndexError

    payload = args.input.read_bytes()
    index_path = args.index or args.input.with_name(
        args.input.name + ".rsix")
    note = lambda msg: print(msg, file=sys.stderr)  # noqa: E731

    index = None
    if not args.no_index and index_path.exists():
        try:
            index = SeekIndex.load(index_path)
            if index.compressed_size != len(payload) or \
                    index.fmt != args.fmt:
                raise SeekIndexError("index does not match this payload")
        except SeekIndexError as exc:
            note(f"ignoring index {index_path}: {exc}")
            index = None

    if args.range is not None:
        offset, length = _parse_range(args.range)
        if index is not None:
            result = read_range(payload, offset, length, index=index)
            data = result.data
            note(f"range {offset}:{length} via index: decoded "
                 f"{human_bytes(result.decoded_bytes)}, skipped "
                 f"{human_bytes(result.skipped_bytes)} of prefix")
        else:
            data = _cat_full_decode(args, payload, index_path, note)
            data = data[offset:offset + length]
            note(f"range {offset}:{length} via full decode "
                 "(no usable index)")
    else:
        data = _cat_full_decode(args, payload, index_path, note)

    if args.output is not None:
        args.output.write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def _cat_full_decode(args: argparse.Namespace, payload: bytes,
                     index_path: pathlib.Path, note) -> bytes:
    from .core.metrics import human_bytes
    from .deflate.seekindex import decode_indexed

    result = decode_indexed(payload, args.fmt)
    note(f"decoded {human_bytes(len(result.data))} from "
         f"{human_bytes(len(payload))} ({result.index.members} member(s))")
    if not args.no_index and not index_path.exists():
        try:
            result.index.save(index_path)
            note(f"wrote seek index {index_path} "
                 f"({len(result.index.points)} points)")
        except OSError as exc:
            note(f"could not write index {index_path}: {exc}")
    return result.data


def cmd_machines(_args: argparse.Namespace) -> int:
    from .core.metrics import Table
    from .perf.cost import SoftwareCostModel, accelerator_effective_gbps

    table = Table(headers=["machine", "cores", "accel GB/s",
                           "sw zlib-6 MB/s", "area %", "interface"])
    for name in sorted(MACHINES):
        machine = get_machine(name)
        cost = SoftwareCostModel(machine)
        table.add(name, machine.cores.cores,
                  accelerator_effective_gbps(machine),
                  cost.compress_rate_mbps(6),
                  100 * machine.area_fraction,
                  "sync DFLTCC" if machine.synchronous else "async VAS")
    print(table.render("modelled machines"))
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    from .backend.registry import backend_capabilities
    from .core.metrics import Table

    machine = get_machine(args.machine)
    table = Table(headers=["backend", "formats", "kind", "comp GB/s",
                           "decomp GB/s", "overhead us"])
    for name in backend_names():
        try:
            caps = backend_capabilities(name, machine=machine)
        except ReproError:
            # e.g. dfltcc on an asynchronous machine: show its native
            # machine's capabilities instead of omitting the row.
            caps = backend_capabilities(name)
        kind = ("hw sync" if caps.synchronous else "hw async") \
            if caps.hardware else "software"
        table.add(name, "/".join(caps.formats), kind,
                  caps.compress_gbps, caps.decompress_gbps,
                  caps.per_call_overhead_s * 1e6)
    print(table.render(f"registered backends (machine: {args.machine})"))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from .core.metrics import human_bytes
    from .core.offload import OffloadAdvisor

    advisor = OffloadAdvisor(get_machine(args.machine), level=args.level)
    rec = advisor.recommend(args.size)
    print(f"request: {human_bytes(args.size)} on {args.machine} "
          f"(vs zlib -{args.level})")
    print(f"  route: {rec.route.value} via backend {rec.backend!r}  "
          f"(gain {rec.gain:.1f}x)")
    print(f"  hardware latency: {rec.hw_latency_s * 1e6:.1f} us; "
          f"software: {rec.sw_latency_s * 1e6:.1f} us")
    print(f"  break-even size: {human_bytes(rec.break_even_bytes)}")
    return 0


def cmd_ratio(args: argparse.Namespace) -> int:
    from .backend.registry import create_backend
    from .core.metrics import Table

    name, data = _load_source(args.source)
    machine = get_machine(args.machine)
    rows: list[tuple[str, int]] = []
    for level in (1, 6, 9):
        with create_backend("software", machine=machine,
                            level=level) as sw:
            rows.append((f"zlib -{level}",
                         len(sw.compress(data, fmt="raw").output)))
    with create_backend(args.backend or "nx", machine=machine) as hw:
        for label, strategy in (("NX fixed", "fixed"),
                                ("NX canned", "canned"),
                                ("NX dht", "dynamic")):
            rows.append((label, len(hw.compress(data, strategy=strategy,
                                                fmt="raw").output)))
    with create_backend("842") as e842:
        rows.append(("842", len(e842.compress(data).output)))

    table = Table(headers=["codec", "bytes", "ratio"])
    table.add("input", len(data), 1.0)
    for label, size in rows:
        table.add(label, size, len(data) / size if size else 0.0)
    print(table.render(f"codec comparison: {name}"))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .nx.selftest import run_selftest

    report = run_selftest(get_machine(args.machine),
                          raise_on_failure=False)
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.machine}: {status} "
          f"({report.vectors_run} vectors x "
          f"{report.strategies_run} strategies)")
    return 0 if report.passed else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from . import obs
    from .nx.selftest import run_selftest

    if args.url is not None:
        return _stats_scrape(args)
    obs.enable(trace=False, metrics=True)
    machines = [args.machine] if args.machine else sorted(MACHINES)
    for name in machines:
        # Populate the per-engine health gauges the snapshot reports.
        run_selftest(get_machine(name), raise_on_failure=False)
    registry = obs.registry()
    if args.format in ("json", "both"):
        print(registry.to_json())
    if args.format in ("prometheus", "both"):
        print(registry.to_prometheus())
    return 0


def _ops_get(base: str, path: str) -> bytes:
    """One GET against a server's ops plane; ReproError on failure."""
    import urllib.error
    import urllib.request

    url = base.rstrip("/") + path
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise ReproError(f"cannot reach ops endpoint {url}: {exc}") \
            from exc


def _stats_scrape(args: argparse.Namespace) -> int:
    import json as _json

    if args.format in ("json", "both"):
        print(_json.dumps(_json.loads(_ops_get(args.url, "/ops")),
                          indent=2, sort_keys=True))
    if args.format in ("prometheus", "both"):
        print(_ops_get(args.url, "/metrics").decode(errors="replace"),
              end="")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Poll ``/ops`` and render the fleet view; ctrl-C exits."""
    import json as _json
    import time as _time

    while True:
        ops = _json.loads(_ops_get(args.url, "/ops"))
        print(render_top(ops, args.url))
        if args.once:
            return 0
        try:
            _time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            return 0


def render_top(ops: dict, url: str) -> str:
    """The ``repro top`` screen for one ``/ops`` document."""
    from .core.metrics import Table

    lines = [f"repro top — {url}  (uptime "
             f"{ops.get('uptime_s', 0.0):.0f}s)"]
    service = ops.get("service")
    if service:
        lines.append(
            f"  service: {service.get('state', '?')}  "
            f"accepted {service.get('accepted', 0)}  "
            f"completed {service.get('completed', 0)}  "
            f"rejected {service.get('rejected', 0)}  "
            f"expired {service.get('expired', 0)}  "
            f"queued {service.get('queued', 0)}")
        breakers = ops.get("breakers") or {}
        if breakers:
            states = " ".join(f"chip{chip}:{state}"
                              for chip, state in sorted(breakers.items()))
            lines.append(f"  breakers: {states}")
    windows = ops.get("windows") or {}
    if windows:
        table = Table(headers=["window metric", "labels", "count",
                               "rate/s", "mean", "p50", "p99"])
        for name in sorted(windows):
            for labels, stats in sorted(windows[name].items()):
                table.add(name, labels or "-", stats.get("count", 0),
                          f"{stats.get('rate_per_s', 0.0):.2f}",
                          f"{stats.get('mean', 0.0):.4g}",
                          f"{stats.get('p50', 0.0):.4g}",
                          f"{stats.get('p99', 0.0):.4g}")
        lines.append(table.render("rolling windows (last 60s)"))
    else:
        lines.append("  no rolling-window samples yet")
    return "\n".join(lines)


def cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience.chaos import render, run_campaign

    try:
        results = run_campaign(
            "tcp" if args.network else
            "service" if args.under_load else "pool", args.scenario,
            seed=args.seed, jobs=args.jobs, chips=args.chips,
            machine=args.machine, max_size=args.max_size,
            clients=args.clients, exec_workers=args.exec_workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(results))
    return 0 if all(result.survived for result in results) else 1


def cmd_dict(args: argparse.Namespace) -> int:
    if args.dict_command == "train":
        return _cmd_dict_train(args)
    return _cmd_dict_list(args)


def _train_registry(corpus: str, scale: float, seed: int,
                    sample_bytes: int, max_clusters: int):
    """Observe every corpus family as a tenant and train each one."""
    from .dictsvc import DictionaryRegistry
    from .workloads.corpus import build_corpus

    registry = DictionaryRegistry(seed=seed, sample_bytes=sample_bytes,
                                  max_clusters=max_clusters)
    families = build_corpus(corpus, scale=scale, seed=1234)
    for family, data in families.items():
        for offset in range(0, len(data), sample_bytes):
            registry.observe(family, data[offset:offset + sample_bytes])
    for family in families:
        registry.train(family)
    return registry


def _dict_table(dicts) -> Table:
    from .core.metrics import Table

    table = Table(headers=["name", "epoch", "samples", "centroid[0:4]"])
    for d in dicts:
        table.add(d.name, d.epoch, d.samples,
                  "/".join(f"{x:.2f}" for x in d.centroid[:4]))
    return table


def _cmd_dict_train(args: argparse.Namespace) -> int:
    registry = _train_registry(args.corpus, args.scale, args.seed,
                               args.sample_bytes, args.max_clusters)
    registry.save_bundle(str(args.out))
    dicts = registry.trained()
    print(_dict_table(dicts).render(
        f"trained dictionaries ({args.corpus}, seed {args.seed})"))
    print(f"bundle: {args.out} ({len(dicts)} dictionaries)")
    return 0


def _cmd_dict_list(args: argparse.Namespace) -> int:
    from .dictsvc import DictionaryRegistry

    dicts = DictionaryRegistry().load_bundle(str(args.bundle))
    print(_dict_table(dicts).render(f"bundle {args.bundle}"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal as _signal
    import time as _time

    # SIGTERM must drain like ctrl-C does: the default disposition
    # kills the dispatcher without running cleanup, abandoning every
    # request in flight.
    def _graceful(_signum, _frame):
        raise KeyboardInterrupt

    _signal.signal(_signal.SIGTERM, _graceful)

    exec_workers = args.exec_workers
    cpus = os.cpu_count() or 1
    if exec_workers is not None and exec_workers > cpus:
        # More workers than cores only adds contention (4 lose to 2 on a
        # 2-CPU host); library users of ProcessWorkerPool choose freely.
        print(f"exec-workers: {exec_workers} clamped to the host's "
              f"{cpus} CPU(s)", flush=True)
        exec_workers = cpus
    if exec_workers is not None:
        # A worker is the slowest part of the tree to come up (a new
        # interpreter, then its own imports): start them first, so they
        # boot while this process imports the service stack.
        from .exec.pool import get_default_pool

        get_default_pool(exec_workers).warm()
    from .service import CompressionService, serve

    ops = None
    if args.http_port is not None:
        # The ops plane is only as good as its telemetry: turn the
        # collectors on before the service starts taking jobs.
        from . import obs
        from .obs.http import OpsServer

        obs.enable(trace=True, metrics=True)
    registry = None
    if args.dicts is not None:
        # Read before the service starts, so a bad bundle starts nothing.
        from .dictsvc import DictionaryRegistry

        registry = DictionaryRegistry()
        registry.load_bundle(str(args.dicts))
    service = CompressionService(machine=args.machine, chips=args.chips,
                                 policy=args.policy,
                                 backend=args.backend,
                                 verify=args.verify,
                                 exec_workers=exec_workers,
                                 cache_mb=args.cache_mb)
    if registry is not None:
        pushed = registry.push(service)
        print(f"dictionaries: pushed {len(pushed)} trained canned "
              f"tables from {args.dicts}", flush=True)
    server = serve(service, host=args.host, port=args.port)
    print(f"serving on {args.host}:{server.port} "
          f"(machine {args.machine}, {args.chips} chip(s), "
          f"policy {args.policy})", flush=True)
    if args.http_port is not None:
        ops = OpsServer(service=service, host=args.host,
                        port=args.http_port)
        ops.start()
        print(f"ops on http://{args.host}:{ops.port} "
              f"(/metrics /healthz /traces/recent /flight /ops)",
              flush=True)
    try:
        if args.duration_s is not None:
            _time.sleep(args.duration_s)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        if ops is not None:
            ops.stop()
        server.shutdown()
        service.close()
        stats = service.stats()
        print(f"drained: {stats.completed} served, "
              f"{stats.rejected} shed, {stats.failed} failed")
        if stats.cache is not None:
            print(f"cache: {stats.cache['hits']} hits / "
                  f"{stats.cache['requests']} requests "
                  f"({stats.cache['executions']} executions, "
                  f"{stats.cache['evictions']} evictions)")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .core.metrics import human_bytes
    from .service import ServiceClient

    data = args.input.read_bytes()
    deadline_s = (args.deadline_ms * 1e-3
                  if args.deadline_ms is not None else None)
    # Reconnect is on: a dropped connection retries the same
    # request_id, so the server dedups rather than re-executes.
    with ServiceClient(args.host, args.port, reconnect=True) as client:
        result = client.request(args.op, data, qos=args.qos,
                                tenant=args.tenant, fmt=args.fmt,
                                deadline_s=deadline_s,
                                retries=args.retries)
    suffix = SUFFIXES[args.fmt]
    default = (args.input.with_name(args.input.name + suffix)
               if args.op == "compress"
               else args.input.with_suffix(".out"))
    output = args.output or default
    output.write_bytes(result.output)
    print(f"{args.input} -> {output}")
    print(f"  {human_bytes(len(data))} -> "
          f"{human_bytes(len(result.output))} "
          f"(qos {result.qos}, batch {result.batch_size}, "
          f"queue wait {result.queue_wait_s * 1e3:.2f} ms, "
          f"attempts {result.attempts})")
    return 0


_COMMANDS = {
    "compress": cmd_compress,
    "decompress": cmd_decompress,
    "cat": cmd_cat,
    "machines": cmd_machines,
    "backends": cmd_backends,
    "advise": cmd_advise,
    "ratio": cmd_ratio,
    "selftest": cmd_selftest,
    "stats": cmd_stats,
    "chaos": cmd_chaos,
    "dict": cmd_dict,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "top": cmd_top,
}


def _finish_telemetry(args: argparse.Namespace) -> None:
    """Export whatever `--trace`/`--metrics` asked for, even on errors."""
    from . import obs

    if args.trace:
        out = args.trace_out or pathlib.Path("repro-trace.json")
        obs.export_chrome_trace(out)
        jsonl = out.with_suffix(".spans.jsonl")
        obs.export_spans_jsonl(jsonl)
        print(f"trace: {out} (Perfetto / chrome://tracing); "
              f"spans: {jsonl}")
    if args.metrics and args.command != "stats":
        print(obs.registry().to_prometheus())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace or args.metrics:
        from . import obs

        obs.enable(trace=args.trace, metrics=True)
    try:
        code = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc} [{wire_name(exc)}]", file=sys.stderr)
        code = 1
    if args.trace or args.metrics:
        _finish_telemetry(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
