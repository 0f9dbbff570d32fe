"""Hot-path acceleration for the library's tree ensembles.

Two independent pieces (see ``DESIGN.md`` → "fastpath"):

* **Training** — :class:`SharedBinContext` bins an ensemble's training
  matrix once and lets every member tree fit on cached integer codes
  (opt-in via ``shared_binning=True`` on SPE / RandomForest / Bagging /
  UnderBagging / EasyEnsemble; changes bin edges, so statistically
  equivalent rather than bit-identical).
* **Inference** — :class:`PackedForest` flattens all fitted trees into
  contiguous node arrays and evaluates all trees × all rows in one
  level-synchronous pass; :class:`CodeTable` compiles a shared-binned
  forest into one probability per code cell. Both are bit-identical to the
  per-tree path; ``ensemble_predict_proba`` uses them whenever the
  ensemble is packable, and ``packed="never"`` selects the chunked
  per-tree reference for a single call.
"""

from .bincontext import (
    BinnedSubset,
    SharedBinContext,
    check_shared_binning_backend,
    shared_bin_context_for,
)
from .codetable import CodeTable, cached_packed_ensemble, warm_serving_pack
from .packed import ESTIMATOR_BLOCK, PackedForest, trees_of

__all__ = [
    "BinnedSubset",
    "SharedBinContext",
    "check_shared_binning_backend",
    "shared_bin_context_for",
    "CodeTable",
    "cached_packed_ensemble",
    "warm_serving_pack",
    "ESTIMATOR_BLOCK",
    "PackedForest",
    "trees_of",
]
