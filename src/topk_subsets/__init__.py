"""Streaming enumeration of the k smallest-sum non-empty subsets.

Quick use::

    from topk_subsets import load_input, topk, Variant

    r = load_input("3 7 12 14")
    stream, metrics = topk(r, 3, Variant.ONDEMAND_COMPACT)
    for item in stream:
        print(item.rank, item.total)
"""

from .core import (
    Delta,
    InputError,
    InputSet,
    NegativeValueError,
    OverflowRiskError,
    RankedSubset,
    SubsetPositions,
    expand_deltas,
    load_input,
)
from .enumerators import RunMetrics, Variant, topk
from .oracle import all_subsets_sorted, topk_oracle

__version__ = "0.1.0"

__all__ = [
    "Delta",
    "InputError",
    "InputSet",
    "NegativeValueError",
    "OverflowRiskError",
    "RankedSubset",
    "RunMetrics",
    "SubsetPositions",
    "Variant",
    "all_subsets_sorted",
    "expand_deltas",
    "load_input",
    "topk",
    "topk_oracle",
    "__version__",
]
