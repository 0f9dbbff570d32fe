"""Benchmark entry point: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit-credit --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no benchmark wrappers
installed and the program's telemetry at its default. ``--trace 1`` is a
separate run that wraps each layer's public callables (see
``workloads.TARGETS``), reports the per-layer metrics, and writes the
recorded spans under ``.perfbench_work/``.

The human-readable report (provenance, per-phase request counts,
reconciliation lines, every metric with its unit) precedes the last
line, which is one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero if
any operation failed or returned a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
NOT_MEASURED = {"fastpath.fit_speedup_vs_simple": 1.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORKDIR)
    run.run()

    if args.trace:
        values = run.finish_layers()
        table = {name: unit for name, (unit, _, _) in workloads.PER_LAYER.items()}
        spans_path = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.json")
        run.rec.dump(spans_path)
        run.say(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        values = run.metrics
        table = {name: unit for name, (unit, _) in workloads.END_TO_END.items()}
    measured = {name for name in table if name in values and math.isfinite(values[name])}
    if args.trace:
        # Every per-layer metric is printed. One that does not apply here
        # (no pool hop in-process, no artifact in a fit workload) or whose
        # callable is gone from the program reads as zero work; the
        # fastpath ratio reads 1, as with no fast path there is one path.
        values = {name: values[name] if name in measured else NOT_MEASURED.get(name, 0.0) for name in table}
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
        if name in values and math.isfinite(values[name])
    }

    print(
        "provenance: "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "shape": run.shape,
            }
        )
    )
    for line in run.lines:
        print(line)
    for name, unit in table.items():
        value = f"{metrics[name]['value']:.6g} {unit}" if name in metrics else "not finite"
        if not args.trace:
            print(f"{name} = {value}")
        elif name in measured:
            print(f"{name} = {value}  (moves {workloads.PER_LAYER[name][2]})")
        else:
            print(f"{name} = {value}  (absent on this workload: not measured)")
    if args.trace and run.absent:
        print(f"absent layers (callable no longer in the program): {', '.join(run.absent)}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
