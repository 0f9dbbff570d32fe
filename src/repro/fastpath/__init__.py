"""Packed-forest inference for the library's tree ensembles.

:class:`PackedForest` flattens all fitted trees of an ensemble into
contiguous node arrays and evaluates all trees × all rows in one
level-synchronous pass, bit-identical to the per-tree path (see
``DESIGN.md`` → "fastpath"). ``ensemble_predict_proba`` uses it whenever
the ensemble is packable, and ``packed="never"`` selects the chunked
per-tree reference for a single call.
"""

from .packed import (
    ESTIMATOR_BLOCK,
    PackedForest,
    cached_packed_ensemble,
    trees_of,
    warm_serving_pack,
)

__all__ = [
    "ESTIMATOR_BLOCK",
    "PackedForest",
    "cached_packed_ensemble",
    "trees_of",
    "warm_serving_pack",
]
