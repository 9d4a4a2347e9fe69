"""Tests of the benchmark's own machinery: spans, restoring, seeded inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()
    root = tr.record("root", 0.0, 10.0)
    a = tr.record("a", 1.0, 4.0, root)
    tr.record("leaf", 2.0, 3.0, a)
    tr.record("b", 5.0, 9.0, root)
    tr.record("b", 9.0, 9.5, root)
    got = tr.self_ms()
    assert got == pytest.approx({"root": 2500.0, "a": 2000.0, "leaf": 1000.0, "b": 4500.0})
    assert tr.calls() == {"root": 1, "a": 1, "leaf": 1, "b": 2}


def test_wrapped_calls_nest_and_are_restored():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    inner, outer = ns.inner, ns.outer
    tr = Tracer()
    tr.wrap(ns, "inner", "inner", lambda t, args, kwargs, result: t.counts.update(seen=result))
    tr.wrap(ns, "outer", "outer")
    assert ns.outer(1) == 4
    assert tr.calls() == {"inner": 1, "outer": 1}
    assert [tr.names[i] for i in tr.span_name] == ["outer", "inner"]
    assert list(tr.span_parent) == [-1, 0]
    assert tr.counts["seen"] == 2
    tr.restore()
    assert ns.inner is inner and ns.outer is outer


def test_every_traced_function_is_restored_after_a_traced_run():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in workloads.TRACE_POINTS]
    state = workloads.setup_plan(1)
    tr = Tracer()
    workloads.install(tr)
    try:
        workloads._sched(state, workloads.track_set(1, 0, 0, 11, state.scenario), 1.0)
    finally:
        tr.restore()
    calls = tr.calls()
    for name in ("scheduler.schedule_frame", "scheduler.solve", "tracker.forecast_all",
                 "predictors.predict_batch", "core.distribution"):
        assert calls[name] == 1, name
    assert tr.counts["tracker.forecast_all.tracks"] == 11
    assert tr.counts["predictors.predict_batch.rows"] == 17 * 6
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    spans = len(tr.span_start)
    workloads._sched(state, workloads.track_set(1, 0, 1, 11, state.scenario), 1.0)
    assert len(tr.span_start) == spans


def test_same_seed_same_inputs():
    scenario = workloads.setup_plan(0).scenario
    for seed in (0, 1, 12345):
        a = workloads.track_set(seed, 2, 7, 50, scenario)
        b = workloads.track_set(seed, 2, 7, 50, scenario)
        assert [t.cls for t in a] == [t.cls for t in b]
        assert np.array_equal(np.stack([t.mean for t in a]), np.stack([t.mean for t in b]))
        assert workloads.training_seeds(seed) == workloads.training_seeds(seed)
        assert [workloads.loop_seed(seed, k, 7) for k in range(4)] == [
            workloads.loop_seed(seed, k, 7) for k in range(4)
        ]
    other = workloads.track_set(1, 2, 8, 50, scenario)
    assert not np.array_equal(np.stack([t.mean for t in a]), np.stack([t.mean for t in other]))
    assert workloads.training_seeds(1) != workloads.training_seeds(2)


def test_default_seed_reproduces_bundled_inputs():
    assert workloads.training_seeds(workloads.DEFAULT_SEED) == [101, 202]
    assert workloads.loop_seed(workloads.DEFAULT_SEED, 0, 7) == 7


def test_track_sets_stay_in_range_with_the_quickstart_classes():
    scenario = workloads.setup_plan(0).scenario
    tracks = workloads.track_set(3, 0, 0, 200, scenario)
    ranges = np.hypot([t.mean[0] for t in tracks], [t.mean[1] for t in tracks])
    assert ranges.min() >= 5.0 and ranges.max() <= 45.0
    assert {t.cls for t in tracks} <= set(scenario.class_mix)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        workloads.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in workloads.PER_LAYER.items()
    }
