"""From-scratch DEFLATE/zlib/gzip codec — the software baseline substrate.

This package is the pure-software analogue of the zlib library the paper
measures against: an LZ77 hash-chain matcher with zlib's per-level tuning,
canonical Huffman coding with optimal length-limited code construction,
all three RFC 1951 block types, and the RFC 1950/1952 containers.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .checksums import adler32, crc32
    from .compress import CompressResult, deflate
    from .containers import (gzip_compress, gzip_decompress, zlib_compress,
                             zlib_decompress)
    from .inflate import InflateStats, inflate, inflate_with_stats
    from .inflate_stream import InflateStream
    from .matcher import LEVEL_CONFIGS, MatcherConfig, MatchStats, tokenize
    from .seekindex import (DEFAULT_SPACING, IndexedDecode, RangeReadResult,
                            SeekIndex, SeekPoint, decode_indexed, read_range)
    from .stream import CompressStream, DecompressStream

__all__ = lazy_exports(__name__, {
    "checksums": "adler32 crc32",
    "compress": "CompressResult deflate",
    "containers": "gzip_compress gzip_decompress zlib_compress "
                  "zlib_decompress",
    "inflate": "InflateStats inflate inflate_with_stats",
    "inflate_stream": "InflateStream",
    "matcher": "LEVEL_CONFIGS MatcherConfig MatchStats tokenize",
    "seekindex": "DEFAULT_SPACING IndexedDecode RangeReadResult SeekIndex "
                 "SeekPoint decode_indexed read_range",
    "stream": "CompressStream DecompressStream",
})
