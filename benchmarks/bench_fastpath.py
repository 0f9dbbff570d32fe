"""Fastpath speedups: SPE fit, majority scoring, and ensemble predict_proba.

Times the two hot paths the fastpath subsystem targets on the checkerboard
benchmark at the paper's "highly imbalanced" shape (IR = 100):

* **SPE end-to-end fit** — the default fit (``shared_binning=False``:
  per-member binning, majority scored by the packed kernel) vs
  ``shared_binning=True`` (bin once, majority scored through per-member
  code tables).
* **Ensemble ``predict_proba``** — the chunked per-tree path
  (``packed="never"``) vs the packed path, in bulk (one big batch) and
  serving style (512-row batches), for both a default-config model (packed
  traversal kernel) and a shared-binning model (compiled code-table).

Every timed pair is also checked for the fastpath equivalence contract:
the packed path must be *bit-identical* to the per-tree path on the same
model, and the fit loop's majority score of every member of both fitted
models must be bit-identical to the chunked per-tree path. Speedup floors
are asserted (``REPRO_FASTPATH_MIN_SPEEDUP``, default 1.2 — conservative
so shared CI runners don't flake; the committed full-scale run shows the
real margins).

Writes ``BENCH_fastpath.json`` at the repo root. ``REPRO_SCALE`` scales the
dataset; runs standalone or under pytest like every other bench.
"""

import json
import os
import pathlib
import time

import numpy as np

from conftest import bench_scale, save_result

from repro.core import SelfPacedEnsembleClassifier
from repro.core.self_paced import InMemoryMajorityAccess
from repro.datasets import make_checkerboard
from repro.parallel import ensemble_predict_proba
from repro.tree import DecisionTreeClassifier
from repro.utils.kernel_pool import available_cpus

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_fastpath.json"
MIN_SPEEDUP = float(os.environ.get("REPRO_FASTPATH_MIN_SPEEDUP", "1.2"))
SERVE_BATCH = 512
N_ESTIMATORS = 10


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _serve(estimators, X, classes, packed):
    out = []
    for lo in range(0, X.shape[0], SERVE_BATCH):
        out.append(
            ensemble_predict_proba(
                estimators, X[lo : lo + SERVE_BATCH], classes, packed=packed
            )
        )
    return np.vstack(out)


def _assert_scoring_matches_chunked(model, X, y):
    """The fit loop's majority score of every member equals the chunked
    per-tree path bit for bit, so it cannot change the fitted ensemble."""
    maj_idx = np.flatnonzero(y == model.majority_class_)
    context = getattr(model.estimators_[0], "_shared_bin_context", None)
    majority = InMemoryMajorityAccess(X, maj_idx, model._proba_pos, bin_context=context)
    for member in model.estimators_:
        reference = ensemble_predict_proba(
            [member], X[maj_idx], np.array([0, 1]), packed="never"
        )[:, 1]
        assert np.array_equal(majority.score(member), reference), "majority scoring diverged"


def run_fastpath_bench(scale: float) -> dict:
    n_min = max(60, int(500 * scale))
    n_maj = max(600, int(50000 * scale))
    repeats = 3
    X, y = make_checkerboard(n_min, n_maj, random_state=0)
    X_test, _ = make_checkerboard(n_min, n_maj, random_state=1000)
    base = DecisionTreeClassifier(max_depth=8, random_state=0)
    classes = np.array([0, 1])

    def build(shared):
        return SelfPacedEnsembleClassifier(
            estimator=base,
            n_estimators=N_ESTIMATORS,
            shared_binning=shared,
            random_state=0,
        )

    results = {}

    # --- SPE end-to-end fit -------------------------------------------- #
    model_default, t_fit_default = _best_of(lambda: build(shared=False).fit(X, y), repeats)
    model_fast, t_fit_fast = _best_of(lambda: build(shared=True).fit(X, y), repeats)
    results["fit"] = {
        "default_seconds": round(t_fit_default, 4),
        "shared_binning_seconds": round(t_fit_fast, 4),
        "speedup": round(t_fit_default / t_fit_fast, 2),
    }

    # Scoring-path equivalence: every member's majority score equals the
    # chunked path (same hardness → same draws → same trees).
    _assert_scoring_matches_chunked(model_default, X, y)
    _assert_scoring_matches_chunked(model_fast, X, y)
    check = model_fast.predict_proba(X_test)
    check_chunked = ensemble_predict_proba(
        model_fast.estimators_, X_test, classes, packed="never"
    )
    assert np.array_equal(check, check_chunked), "packed predict diverged"

    # --- predict_proba: packed traversal (default-config model) --------- #
    trees = model_default.estimators_
    proba_fast, t_bulk_fast = _best_of(
        lambda: ensemble_predict_proba(trees, X_test, classes), repeats
    )
    proba_chunked, t_bulk_chunked = _best_of(
        lambda: ensemble_predict_proba(trees, X_test, classes, packed="never"),
        repeats,
    )
    assert np.array_equal(proba_fast, proba_chunked), "packed traversal diverged"
    _, t_serve_fast = _best_of(lambda: _serve(trees, X_test, classes, "auto"), repeats)
    _, t_serve_chunked = _best_of(
        lambda: _serve(trees, X_test, classes, "never"), repeats
    )
    results["predict_packed"] = {
        "bulk_chunked_seconds": round(t_bulk_chunked, 4),
        "bulk_packed_seconds": round(t_bulk_fast, 4),
        "bulk_speedup": round(t_bulk_chunked / t_bulk_fast, 2),
        "serve_batch": SERVE_BATCH,
        "serve_speedup": round(t_serve_chunked / t_serve_fast, 2),
    }

    # --- predict_proba: compiled code table (shared-binning model) ------ #
    strees = model_fast.estimators_
    lut_fast, t_lut_fast = _best_of(
        lambda: ensemble_predict_proba(strees, X_test, classes), repeats
    )
    lut_chunked, t_lut_chunked = _best_of(
        lambda: ensemble_predict_proba(strees, X_test, classes, packed="never"),
        repeats,
    )
    assert np.array_equal(lut_fast, lut_chunked), "code-table predict diverged"
    _, t_slut_fast = _best_of(lambda: _serve(strees, X_test, classes, "auto"), repeats)
    _, t_slut_chunked = _best_of(
        lambda: _serve(strees, X_test, classes, "never"), repeats
    )
    results["predict_codetable"] = {
        "bulk_chunked_seconds": round(t_lut_chunked, 4),
        "bulk_codetable_seconds": round(t_lut_fast, 4),
        "bulk_speedup": round(t_lut_chunked / t_lut_fast, 2),
        "serve_batch": SERVE_BATCH,
        "serve_speedup": round(t_slut_chunked / t_slut_fast, 2),
    }

    headline_predict = results["predict_codetable"]["bulk_speedup"]
    report = {
        "benchmark": "fastpath",
        "dataset": {
            "name": "checkerboard",
            "n_minority": n_min,
            "n_majority": n_maj,
            "n_features": int(X.shape[1]),
            "imbalance_ratio": round(n_maj / n_min, 1),
        },
        "config": {
            "n_estimators": N_ESTIMATORS,
            "max_depth": 8,
            "min_speedup_asserted": MIN_SPEEDUP,
        },
        "cpu_count": os.cpu_count(),
        "kernel_workers": available_cpus(),
        "results": results,
        "headline": {
            "spe_fit_speedup": results["fit"]["speedup"],
            "predict_proba_speedup": headline_predict,
            "bit_identical": True,
        },
    }

    assert results["fit"]["speedup"] >= MIN_SPEEDUP, (
        f"SPE fit speedup {results['fit']['speedup']} < floor {MIN_SPEEDUP}"
    )
    assert headline_predict >= MIN_SPEEDUP, (
        f"predict_proba speedup {headline_predict} < floor {MIN_SPEEDUP}"
    )
    return report


def _render(report: dict) -> str:
    ds = report["dataset"]
    r = report["results"]
    lines = [
        "Fastpath speedups (checkerboard "
        f"|P|={ds['n_minority']}, |N|={ds['n_majority']}, IR={ds['imbalance_ratio']}, "
        f"{report['config']['n_estimators']} trees, depth 8) — all paths bit-identical",
        f"{'path':<40} {'ref_s':>10} {'fast_s':>10} {'speedup':>8}",
        f"{'SPE fit, default vs shared_binning':<40} {r['fit']['default_seconds']:>10.4f} "
        f"{r['fit']['shared_binning_seconds']:>10.4f} {r['fit']['speedup']:>7.2f}x",
        f"{'predict bulk, chunked vs packed':<40} "
        f"{r['predict_packed']['bulk_chunked_seconds']:>10.4f} "
        f"{r['predict_packed']['bulk_packed_seconds']:>10.4f} "
        f"{r['predict_packed']['bulk_speedup']:>7.2f}x",
        f"{'predict bulk, chunked vs code table':<40} "
        f"{r['predict_codetable']['bulk_chunked_seconds']:>10.4f} "
        f"{r['predict_codetable']['bulk_codetable_seconds']:>10.4f} "
        f"{r['predict_codetable']['bulk_speedup']:>7.2f}x",
        f"{'serve x512, chunked vs packed':<40} {'':>10} {'':>10} "
        f"{r['predict_packed']['serve_speedup']:>7.2f}x",
        f"{'serve x512, chunked vs code table':<40} {'':>10} {'':>10} "
        f"{r['predict_codetable']['serve_speedup']:>7.2f}x",
    ]
    return "\n".join(lines)


def run_and_save() -> dict:
    report = run_fastpath_bench(bench_scale())
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    save_result("fastpath", _render(report))
    print(f"wrote {ARTIFACT}")
    return report


def test_fastpath_bench(run_once):
    run_once(run_and_save)


if __name__ == "__main__":
    run_and_save()
