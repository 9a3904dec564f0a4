"""842-style codec + engine model (the NX unit's memory-compression side)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .codec import (E842Error, E842Result, E842Stats, compress,
                        decompress, template_cost_bits)
    from .engine import E842JobResult, Engine842

__all__ = lazy_exports(__name__, {
    "codec": "E842Error E842Result E842Stats compress "
             "decompress template_cost_bits",
    "engine": "E842JobResult Engine842",
})
