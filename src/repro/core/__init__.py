"""Public API: accelerator sessions, offload policy, reporting."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .analyze import Analysis, StrategyEstimate, analyze
    from .api import CompressedBuffer, NxGzip, SessionStats
    from .metrics import Table, human_bytes
    from .offload import OffloadAdvisor, Recommendation, Route
    from .plot import bar_chart, line_chart

__all__ = lazy_exports(__name__, {
    "analyze": "Analysis StrategyEstimate analyze",
    "api": "CompressedBuffer NxGzip SessionStats",
    "metrics": "Table human_bytes",
    "offload": "OffloadAdvisor Recommendation Route",
    "plot": "bar_chart line_chart",
})
