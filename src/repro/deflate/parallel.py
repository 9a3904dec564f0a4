"""pigz-style chunked-parallel DEFLATE compression.

The paper's software baseline for multi-core machines is pigz: split the
input into fixed-size chunks, compress every chunk independently on its
own core, and concatenate the results into one valid DEFLATE stream.
Two details make the output a *single* stream rather than a framed
container:

* every non-final chunk is emitted as a **continuation unit**
  (``deflate(..., final=False)``): non-final blocks closed by an empty
  stored block, zlib's Z_FULL_FLUSH, so units land byte-aligned and
  concatenate seamlessly;
* each chunk's matcher window is **primed with the last 32 KB of the
  previous chunk** (the preset-dictionary path), so back-references
  reach across the seam exactly as a serial compressor's would.

Chunk boundaries depend only on ``chunk_size``, so the output is
byte-identical for every worker count — parallelism changes wall-clock,
never bytes.  Chunks run on the execution layer's persistent
:class:`~repro.exec.pool.ProcessWorkerPool` (the kernels are CPU-bound
pure Python, so threads would serialise on the GIL): each job carries
its chunk and its one-window history inline, and its compressed unit
comes back the same way — per-call cost is a pipe write per chunk, not
a pool spin-up.  A caller-owned ``concurrent.futures`` executor is
still honoured, a crashed worker's chunk is resubmitted (chunk
compression is a pure function of its arguments), and a broken pool
degrades to the inline path — bytes out are identical in every case.
"""

from __future__ import annotations

import os

from ..errors import DeflateError, ExecError
from ..obs.trace import TRACE as _TRACE
from .compress import CompressResult, deflate
from .constants import WINDOW_SIZE
from .matcher import MatchStats

#: pigz's default chunk size (128 KiB): big enough that the one-window
#: history overlap is amortised, small enough to keep every core busy.
DEFAULT_CHUNK_SIZE = 1 << 17


def compress_chunk(*, chunk: bytes, history: bytes, level: int,
                   final: bool) -> CompressResult:
    """One chunk: the job a pool worker runs."""
    return deflate(chunk, level=level, history=history, final=final)


def parallel_deflate(data: bytes, level: int = 6, *,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     workers: int | None = None,
                     history: bytes = b"",
                     final: bool = True) -> CompressResult:
    """Compress ``data`` as one raw DEFLATE stream using chunk parallelism.

    ``workers`` caps how many pool workers the call uses (default:
    ``os.cpu_count()``, never more than the number of chunks; 1
    compresses inline with no pool at all).  ``history``
    and ``final`` mean what they mean for :func:`deflate`: a preset
    dictionary priming the first chunk, and whether the stream is
    terminated or left continuable.  Returns the same
    :class:`CompressResult` as :func:`deflate`, with stats summed and
    per-block types concatenated across chunks.
    """
    if chunk_size < 1:
        raise DeflateError(f"chunk_size must be positive, got {chunk_size}")
    spans = [(start, min(start + chunk_size, len(data)))
             for start in range(0, len(data), chunk_size)] or [(0, 0)]
    last = len(spans) - 1
    jobs = [{"chunk": data[start:end],
             "history": (history[-WINDOW_SIZE:] if start == 0
                         else data[max(0, start - WINDOW_SIZE):start]),
             "level": level, "final": final and idx == last}
            for idx, (start, end) in enumerate(spans)]

    with _TRACE.span("deflate.parallel", nbytes=len(data), level=level,
                     chunks=len(spans)) as obs_span:
        from ..exec.worker import in_worker
        nworkers = min(workers or os.cpu_count() or 1, len(spans))
        results = None
        if nworkers > 1 and not in_worker():
            # Workers never get here: a chunk job must not recurse
            # into the pool that is running it.
            obs_span.set(workers=nworkers)
            results = _pool_compress(jobs, nworkers, obs_span)
            if results is None:
                obs_span.event("exec.pool_fallback")
        else:
            obs_span.set(workers=1)
        if results is None:
            # Inline (one worker, inside a worker, or the pool is
            # broken: same bytes); each chunk's deflate.kernel span
            # nests here.
            results = [compress_chunk(**job) for job in jobs]

    out = bytearray()
    stats = MatchStats()
    blocks: list[int] = []
    for result in results:
        out += result.data
        stats.literals += result.stats.literals
        stats.matches += result.stats.matches
        stats.match_bytes += result.stats.match_bytes
        stats.chain_probes += result.stats.chain_probes
        blocks.extend(result.blocks)
    return CompressResult(data=bytes(out), stats=stats, blocks=blocks)


def _pool_compress(jobs: list[dict], nworkers: int,
                   obs_span) -> list[CompressResult] | None:
    """Run the chunk jobs on the warm execution pool.  Returns ``None``
    when the pool cannot take work (the caller then compresses inline —
    output bytes do not depend on the path)."""
    from ..exec.pool import get_default_pool

    try:
        pool = get_default_pool(min_workers=nworkers)
        return pool.run_batch([("deflate_chunk", job) for job in jobs],
                              span_parent=obs_span)
    except ExecError:
        return None
