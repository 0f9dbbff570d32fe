"""Contract tests for the benchmark's tracer, run against a stub module.

Run with ``python3 -m pytest perfbench/test_perfbench_tracer.py -q``.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from tracer import Recorder, Target  # noqa: E402

STUB = "perfbench_stub_layer"


@pytest.fixture
def stub():
    mod = types.ModuleType(STUB)

    def work(n):
        return list(range(n))

    class Kernel:
        def score(self, n):
            return [0.0] * n

        @classmethod
        def build(cls, n):
            return cls()

        @staticmethod
        def helper():
            return "h"

    class Derived(Kernel):
        pass

    mod.work, mod.Kernel, mod.Derived = work, Kernel, Derived
    sys.modules[STUB] = mod
    yield mod
    del sys.modules[STUB]


def test_removed_targets_are_absent_not_errors(stub):
    targets = [
        Target("gone.module", STUB + "_deleted", "work"),
        Target("gone.function", STUB, "no_such_function"),
        Target("gone.method", STUB, "Kernel.no_such_method"),
        Target("gone.class", STUB, "NoSuchClass.score"),
        Target("kept", STUB, "work"),
    ]
    rec = Recorder()
    with tracer.installed(rec, targets) as absent:
        assert stub.work(2) == [0, 1]
    assert absent == ["gone.module", "gone.function", "gone.method", "gone.class"]
    assert [s.name for s in rec.spans] == ["kept"]
    assert tracer.resolve(STUB, "no_such_function") is None
    assert tracer.resolve(STUB + "_deleted", "work") is None
    assert tracer.resolve(STUB, "Kernel.helper")() == "h"


def test_a_layer_with_one_surviving_target_is_not_absent(stub):
    targets = [Target("layer", STUB, "work"), Target("layer", STUB, "deleted")]
    with tracer.installed(Recorder(), targets) as absent:
        assert absent == []


def test_wrappers_record_nest_and_restore(stub):
    originals = {name: vars(stub.Kernel)[name] for name in ("score", "build", "helper")}
    work = stub.work
    targets = [
        Target("fn", STUB, "work", rows=len),
        Target("method", STUB, "Kernel.score", rows=len),
        Target("classmethod", STUB, "Kernel.build"),
        Target("staticmethod", STUB, "Kernel.helper"),
        Target("inherited", STUB, "Derived.score"),
    ]
    rec = Recorder()
    with tracer.installed(rec, targets):
        with rec.span("root"):
            assert stub.work(3) == [0, 1, 2]
            assert isinstance(stub.Kernel.build(1), stub.Kernel)
            assert stub.Kernel.helper() == "h"
            assert stub.Derived().score(4) == [0.0] * 4
    names = {s.name: s for s in rec.spans}
    root = names["root"]
    assert names["fn"].tags["rows"] == 3
    assert names["fn"].parent_id == root.span_id
    assert names["method"].parent_id == names["inherited"].span_id
    assert names["method"].tags["rows"] == 4
    assert {s.trace_id for s in rec.spans} == {root.trace_id}
    assert stub.work is work
    assert {n: vars(stub.Kernel)[n] for n in originals} == originals
    assert "score" not in vars(stub.Derived)


def test_self_times_add_up_to_the_root():
    rec = Recorder()
    with rec.span("fit") as fit:
        with rec.span("a"):
            with rec.span("a.inner"):
                pass
        with rec.span("b"):
            pass
    index = tracer.children_index(rec.spans)
    inner = tracer.descendants(fit, index)
    assert sorted(s.name for s in inner) == ["a", "a.inner", "b"]
    total = tracer.self_time(fit, index) + sum(tracer.self_time(s, index) for s in inner)
    assert total == pytest.approx(fit.duration, abs=1e-9)


def test_benchmark_json_matches_the_metric_tables():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in workloads.PER_LAYER.items()
    }
