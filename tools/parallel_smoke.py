"""CI smoke test for the process-based execution layer.

Five checks, all host-independent (they hold even on a 1-CPU runner):

* a 2-worker pool-backed ``parallel_deflate`` produces **byte-identical**
  output to the serial path (the pigz-style chunking is deterministic,
  so worker count must never change the stream);
* a 2-worker pool-backed ``parallel_inflate`` on a multi-member gzip
  archive is byte-identical to the serial decode for the same input
  and splices at least one worker-decoded member run;
* a ``read_range`` through the seek index recorded during that decode
  returns golden bytes while *skipping* the uncompressed prefix;
* a warm pool beats a cold one on the same call (the whole point of
  persistent workers is not paying spawn per call — this is true on any
  host, unlike multi-core scaling);
* no worker process outlives its pool: after shutdown every child of
  this process has been reaped (a leak here is a stray process per
  restart in prod).

Usage::

    PYTHONPATH=src python tools/parallel_smoke.py
"""

from __future__ import annotations

import os
import time


def main() -> int:
    from repro.deflate.inflate import inflate
    from repro.deflate.parallel import parallel_deflate
    from repro.exec import get_default_pool, shutdown_default_pool
    from repro.workloads.generators import generate

    corpus = generate("markov_text", 262144, seed=33)
    chunk = 16384  # enough chunks that 2 workers genuinely interleave

    serial = parallel_deflate(corpus, level=6, workers=1,
                              chunk_size=chunk).data
    pooled = parallel_deflate(corpus, level=6, workers=2,
                              chunk_size=chunk).data
    if pooled != serial:
        print("parallel smoke FAILED: 2-worker output differs from "
              f"serial ({len(pooled)} vs {len(serial)} bytes)")
        return 1
    if inflate(pooled) != corpus:
        print("parallel smoke FAILED: round-trip mismatch")
        return 1

    # Pooled member-run inflate: byte parity on a multi-member gzip
    # archive, then one indexed random read that skips the prefix.
    from repro.deflate.containers import gzip_compress
    from repro.deflate.parallel_inflate import parallel_inflate, read_range

    second = generate("json_records", 131072, seed=34)
    plain = corpus + second
    archive = gzip_compress(corpus, level=6) + gzip_compress(second,
                                                             level=6)
    serial_inf = parallel_inflate(archive, "gzip", workers=1,
                                  chunk_size=chunk)
    pooled_inf = parallel_inflate(archive, "gzip", workers=2,
                                  chunk_size=chunk, build_index=True,
                                  index_spacing=65536)
    if pooled_inf.data != plain or serial_inf.data != plain:
        print("parallel smoke FAILED: parallel inflate output differs "
              f"from golden ({len(pooled_inf.data)} vs {len(plain)})")
        return 1
    if pooled_inf.chunks_used < 1:
        print("parallel smoke FAILED: no member run was spliced "
              f"({pooled_inf.chunks_speculated} planned, "
              f"{pooled_inf.chunks_failed} failed)")
        return 1
    off, length = len(corpus) + 1000, 2048
    rr = read_range(archive, off, length, index=pooled_inf.index)
    if rr.data != plain[off:off + length]:
        print("parallel smoke FAILED: indexed --range read returned "
              "wrong bytes")
        return 1
    if rr.skipped_bytes <= 0:
        print("parallel smoke FAILED: indexed range read decoded the "
              f"whole prefix (skipped {rr.skipped_bytes} bytes)")
        return 1

    # Warm-vs-cold: same call, with and without a pre-started pool.
    shutdown_default_pool()
    t0 = time.perf_counter()
    parallel_deflate(corpus, level=6, workers=2, chunk_size=chunk)
    cold_s = time.perf_counter() - t0
    warm_s = min(
        _timed(lambda: parallel_deflate(corpus, level=6, workers=2,
                                        chunk_size=chunk))
        for _ in range(3))
    if warm_s >= cold_s:
        print(f"parallel smoke FAILED: warm pool ({warm_s:.3f}s) not "
              f"faster than cold ({cold_s:.3f}s); persistent workers "
              "are not being reused")
        return 1

    pool = get_default_pool()
    restarts = pool.worker_restarts
    shutdown_default_pool()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None  # no children at all
    if pid is not None:
        what = f"pid {pid} never reaped" if pid else "one still running"
        print(f"parallel smoke FAILED: a worker outlived its pool ({what})")
        return 1
    print(f"parallel smoke passed: {len(corpus)} bytes, "
          f"2-worker output byte-identical to serial "
          f"({len(serial)} bytes); inflate parity on "
          f"{len(archive)}-byte 2-member archive "
          f"({pooled_inf.chunks_used} chunks used); range read skipped "
          f"{rr.skipped_bytes} prefix bytes; cold {cold_s * 1e3:.1f} ms, "
          f"warm {warm_s * 1e3:.1f} ms "
          f"({cold_s / warm_s:.1f}x); {restarts} worker restarts; "
          "every worker reaped")
    return 0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


if __name__ == "__main__":
    raise SystemExit(main())
