"""The dictionary service: tenant-trained canned DHTs + result cache.

The paper's accelerator ships canned (precomputed) Huffman tables
because two-pass DHT generation dominates the latency of small-buffer
requests — exactly the regime where a cloud service lives.  This
package productizes that engine feature across tenants:

* :class:`DictionaryRegistry` samples per-tenant traffic, clusters it
  by byte-histogram/match-density signature, and trains one canned DHT
  per cluster, versioned; a push swaps a service's immutable
  :class:`~repro.nx.dht.CannedLibrary`, which each job carries.
* :class:`ResultCache` is a content-addressed compressed-result cache
  (keyed on the payload, codec parameters and the job's library key),
  bounded by entries and bytes with per-tenant quotas, with
  singleflight so N concurrent misses on one key run exactly one
  compression.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cache import ResultCache, result_key
    from .registry import DictionaryRegistry, TrainedDictionary

__all__ = lazy_exports(__name__, {
    "cache": "ResultCache result_key",
    "registry": "DictionaryRegistry TrainedDictionary",
})
