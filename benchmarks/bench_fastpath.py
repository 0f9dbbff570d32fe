"""Fastpath speedup: the packed-forest kernel vs the chunked per-tree path.

Fits a default SPE on the checkerboard benchmark at the paper's "highly
imbalanced" shape (IR = 100), then times its ``predict_proba`` on the
chunked per-tree path (``packed="never"``) against the packed kernel, in
bulk (one big batch) and serving style (512-row batches). The default fit
time is reported for reference.

Every timed pair is also checked for the fastpath equivalence contract:
the packed path must be *bit-identical* to the per-tree path on the same
model, and the fit loop's majority score of every member must be
bit-identical to the chunked per-tree path. Each predict comparison times
the two paths in alternating order over :data:`PREDICT_ROUNDS` rounds and
compares their medians, so a burst of load from a neighbour on a shared
host hits both sides instead of one. The bulk predict speedup has a floor
(``REPRO_FASTPATH_MIN_SPEEDUP``, default 1.2 — conservative so shared CI
runners don't flake; the committed full-scale run shows the real margin).

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
PREDICT_ROUNDS = 9


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _paired_medians(ref_fn, fast_fn, rounds=PREDICT_ROUNDS):
    """``(ref result, fast result, ref median s, fast median s)`` over
    ``rounds`` rounds, alternating which path runs first."""
    times = {ref_fn: [], fast_fn: []}
    results = {}
    for i in range(rounds):
        for fn in (ref_fn, fast_fn) if i % 2 == 0 else (fast_fn, ref_fn):
            start = time.perf_counter()
            results[fn] = fn()
            times[fn].append(time.perf_counter() - start)
    return (results[ref_fn], results[fast_fn],
            float(np.median(times[ref_fn])), float(np.median(times[fast_fn])))


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
    majority = InMemoryMajorityAccess(X, maj_idx, model._proba_pos)
    for member in model.estimators_:
        reference = ensemble_predict_proba(
            [member], X[maj_idx], np.array([0, 1]), packed="never"
        )[:, 1]
        assert np.array_equal(majority.score(member), reference), "majority scoring diverged"


def run_fastpath_bench(scale: float) -> dict:
    n_min = max(60, int(500 * scale))
    n_maj = max(600, int(50000 * scale))
    X, y = make_checkerboard(n_min, n_maj, random_state=0)
    X_test, _ = make_checkerboard(n_min, n_maj, random_state=1000)
    base = DecisionTreeClassifier(max_depth=8, random_state=0)
    classes = np.array([0, 1])

    results = {}

    # --- SPE end-to-end fit (reference) -------------------------------- #
    model, t_fit = _best_of(
        lambda: SelfPacedEnsembleClassifier(
            estimator=base, n_estimators=N_ESTIMATORS, random_state=0
        ).fit(X, y),
        3,
    )
    results["fit"] = {"default_seconds": round(t_fit, 4)}

    # Scoring-path equivalence: every member's majority score equals the
    # chunked path (same hardness → same draws → same trees).
    _assert_scoring_matches_chunked(model, X, y)
    check = model.predict_proba(X_test)
    check_chunked = ensemble_predict_proba(
        model.estimators_, X_test, classes, packed="never"
    )
    assert np.array_equal(check, check_chunked), "packed predict diverged"

    # --- predict_proba: packed traversal vs chunked per-tree ----------- #
    trees = model.estimators_
    proba_chunked, proba_fast, t_bulk_chunked, t_bulk_fast = _paired_medians(
        lambda: ensemble_predict_proba(trees, X_test, classes, packed="never"),
        lambda: ensemble_predict_proba(trees, X_test, classes),
    )
    assert np.array_equal(proba_fast, proba_chunked), "packed traversal diverged"
    serve_chunked, serve_fast, t_serve_chunked, t_serve_fast = _paired_medians(
        lambda: _serve(trees, X_test, classes, "never"),
        lambda: _serve(trees, X_test, classes, "auto"),
    )
    assert np.array_equal(serve_fast, serve_chunked), "packed serving diverged"
    results["predict_packed"] = {
        "bulk_chunked_seconds": round(t_bulk_chunked, 4),
        "bulk_packed_seconds": round(t_bulk_fast, 4),
        "bulk_speedup": round(t_bulk_chunked / t_bulk_fast, 2),
        "serve_batch": SERVE_BATCH,
        "serve_speedup": round(t_serve_chunked / t_serve_fast, 2),
    }

    headline_predict = results["predict_packed"]["bulk_speedup"]
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
            "predict_rounds": PREDICT_ROUNDS,
            "min_speedup_asserted": MIN_SPEEDUP,
        },
        "cpu_count": os.cpu_count(),
        "kernel_workers": available_cpus(),
        "results": results,
        "headline": {
            "predict_proba_speedup": headline_predict,
            "bit_identical": True,
        },
    }

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
        f"{'SPE fit, default':<40} {'':>10} {r['fit']['default_seconds']:>10.4f}",
        f"{'predict bulk, chunked vs packed':<40} "
        f"{r['predict_packed']['bulk_chunked_seconds']:>10.4f} "
        f"{r['predict_packed']['bulk_packed_seconds']:>10.4f} "
        f"{r['predict_packed']['bulk_speedup']:>7.2f}x",
        f"{'serve x512, chunked vs packed':<40} {'':>10} {'':>10} "
        f"{r['predict_packed']['serve_speedup']:>7.2f}x",
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
