"""Synthetic workloads: corpora, file sets, diurnal traces, and the Spark
model."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .corpus import build_corpus, corpus_bytes, corpus_names
    from .filesets import FileSetSpec, make_fileset, total_bytes
    from .generators import (GENERATORS, generate,
                             shannon_entropy_bits_per_byte)
    from .replay import DiurnalSpec, ReplayResult, diurnal_trace, replay
    from .spark import (ClusterSpec, SparkDagSim, SparkJobModel,
                        SparkJobResult, Stage, tpcds_like_profile)

__all__ = lazy_exports(__name__, {
    "corpus": "build_corpus corpus_bytes corpus_names",
    "filesets": "FileSetSpec make_fileset total_bytes",
    "generators": "GENERATORS generate shannon_entropy_bits_per_byte",
    "replay": "DiurnalSpec ReplayResult diurnal_trace replay",
    "spark": "ClusterSpec SparkDagSim SparkJobModel SparkJobResult Stage "
             "tpcds_like_profile",
})
