"""Synthetic workloads: corpora, request traces, and the Spark model."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .corpus import build_corpus, corpus_bytes, corpus_names
    from .filesets import (FileSetSpec, by_extension, make_fileset,
                           total_bytes)
    from .generators import (GENERATORS, generate,
                             shannon_entropy_bits_per_byte)
    from .replay import DiurnalSpec, ReplayResult, diurnal_trace, replay
    from .spark import (SparkJobModel, SparkJobResult, Stage,
                        tpcds_like_profile)
    from .spark_sim import ClusterSpec, SparkDagSim
    from .traces import (TraceSpec, bimodal_size, fixed_size,
                         lognormal_size, standard_traces)

__all__ = lazy_exports(__name__, {
    "corpus": "build_corpus corpus_bytes corpus_names",
    "filesets": "FileSetSpec by_extension make_fileset total_bytes",
    "generators": "GENERATORS generate shannon_entropy_bits_per_byte",
    "replay": "DiurnalSpec ReplayResult diurnal_trace replay",
    "spark": "SparkJobModel SparkJobResult Stage tpcds_like_profile",
    "spark_sim": "ClusterSpec SparkDagSim",
    "traces": "TraceSpec bimodal_size fixed_size lognormal_size "
              "standard_traces",
})
