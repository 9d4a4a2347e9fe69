"""Command-line interface tests.

The expensive path (training) is exercised once via the session-scoped
fixtures; commands that need trained models load them from a file written by
those fixtures instead of retraining.
"""

import hashlib
import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsched.branches import NUM_BRANCHES, enumerate_branches

from viewsched.cli import (
    ConfigError,
    build_training_set,
    cmd_adapt,
    cmd_compare,
    cmd_simulate,
    collect_training_episodes,
    load_manifest,
    main,
)
from viewsched.core import NUM_CATEGORIES
from viewsched.predictors import FEATURE_WIDTH
from viewsched.simulator import SystemConfig


@pytest.fixture(scope="session")
def quickstart_model_file(tmp_path_factory, quickstart_trained):
    models, info = quickstart_trained
    path = tmp_path_factory.mktemp("models") / "quickstart_models.json"
    models.save(str(path), training_info=info)
    return str(path)


@pytest.fixture()
def manifest_file(tmp_path, quickstart_model_file):
    data = {
        "version": 1,
        "name": "cli-test",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        "model": quickstart_model_file,
        "target_ms": 33.0,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return str(path)


# -- manifest loading -----------------------------------------------------------


def test_load_builtin_manifest():
    man = load_manifest("builtin:manifest_quickstart")
    assert man.name == "quickstart"
    assert man.target_ms == 33.0
    assert man.scenario.seed == 7
    assert man.model_path is None
    assert len(man.fingerprint) == 64


def test_manifest_overrides_change_fingerprint():
    base = load_manifest("builtin:manifest_quickstart")
    reseeded = load_manifest("builtin:manifest_quickstart", seed_override=99)
    retargeted = load_manifest("builtin:manifest_quickstart", target_override=40.0)
    assert reseeded.scenario.seed == 99
    assert retargeted.target_ms == 40.0
    assert len({base.fingerprint, reseeded.fingerprint, retargeted.fingerprint}) == 3
    # overrides are deterministic: same override, same hash
    again = load_manifest("builtin:manifest_quickstart", seed_override=99)
    assert again.fingerprint == reseeded.fingerprint


def test_manifest_missing_keys_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "scenario": "builtin:scenario_quickstart"}))
    with pytest.raises(ConfigError):
        load_manifest(str(p))
    with pytest.raises(ConfigError):
        load_manifest("builtin:no_such_manifest")
    p.write_text("{broken")
    with pytest.raises(ConfigError):
        load_manifest(str(p))


@pytest.mark.parametrize(
    "override",
    [
        {"training": {"seeds": 5}},
        {"training": {"seeds": []}},
        {"training": {"rounds": 0}},
        {"training": {"round": 10}},
        {"alpha": 0},
        {"alhpa": 0.5},
        {"latency_noise_sigma": -1},
        {"sched_margin_ms": 40},
        {"memory_limit_mb": "abc"},
        {"target_ms": float("nan")},
        {"target_ms": float("inf")},
        {"memory_limit_mb": 100},
        {"scenario": 5},
        {"model": ["m.json"]},
    ],
    ids=["seeds-not-a-list", "seeds-empty", "rounds-zero", "unknown-training-key", "alpha-zero",
         "unknown-top-level-key", "sigma-negative", "margin-not-below-target",
         "memory-limit-string", "target-nan", "target-infinite",
         "memory-limit-below-fixed-modules", "scenario-not-a-string", "model-not-a-string"],
)
def test_main_rejects_bad_training_block_and_alpha(tmp_path, capsys, override):
    data = {
        "name": "bad",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        **override,
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        load_manifest(str(p))
    assert main(["train", "--manifest", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration")
    assert "Traceback" not in err


_MANIFEST_NUMBERS = ["target_ms", "alpha", "latency_noise_sigma", "sched_margin_ms",
                     "memory_limit_mb"]


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_MANIFEST_NUMBERS),
        st.one_of(
            st.floats(max_value=0.0),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.integers(max_value=0),
            st.text(max_size=4),
            st.booleans(),
            st.floats(0.0, 100.0),
            st.integers(1, 100),
            # alpha's upper end and a margin at or just below the 33 ms default target
            st.sampled_from([1.0, 33.0, math.nextafter(33.0, 0.0)]),
        ),
    )
)
def test_manifest_number_fuzz_fails_only_as_a_config_error(tmp_path_factory, numbers):
    # negatives, zero, NaN, +-inf, strings, booleans and valid values in
    # every numeric key
    base = tmp_path_factory.getbasetemp()
    path, out = base / "fuzz.json", base / "fuzz-adapt.json"
    path.write_text(json.dumps({
        "name": "fuzz",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        **numbers,
    }))
    try:
        man = load_manifest(str(path))
    except ConfigError:
        want = 2
    else:
        want = 0
        SystemConfig(
            branches=enumerate_branches(),
            device=man.device,
            capability=man.capability,
            models=None,
            target_ms=man.target_ms,
            alpha=man.alpha,
            latency_noise_sigma=man.latency_noise_sigma,
            sched_margin_ms=man.sched_margin_ms,
        )
    assert main(["adapt", "--manifest", str(path), "--out", str(out)]) == want


def test_manifest_memory_limit_override(tmp_path):
    data = {
        "name": "tight",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        "memory_limit_mb": 300.0,  # above the 250 MB of fixed modules, below the default
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    man = load_manifest(str(p))
    assert man.device.memory_limit_mb == 300.0


def test_manifest_relative_references(tmp_path, quickstart_model_file):
    # a scenario file sitting next to the manifest is found via relative path
    from viewsched.simulator import ScenarioConfig

    scenario = json.loads(
        json.dumps(load_manifest("builtin:manifest_quickstart").scenario.to_dict())
    )
    (tmp_path / "scn.json").write_text(json.dumps(scenario))
    data = {
        "name": "rel",
        "scenario": "scn.json",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
    }
    (tmp_path / "m.json").write_text(json.dumps(data))
    man = load_manifest(str(tmp_path / "m.json"))
    assert man.scenario == ScenarioConfig.from_dict(scenario)


# -- commands ---------------------------------------------------------------------


# SHA-256 of the quickstart predictors as `viewsched train --out` writes them.
# Any change to the model bytes must be deliberate: update it only together
# with a note on why the model changed.
QUICKSTART_MODEL_SHA256 = "ee005382fc929f834ac8633f994710bba6d210a1df659d8d954ccb519ed4d83d"


def test_quickstart_model_file_is_byte_identical(quickstart_model_file):
    with open(quickstart_model_file, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == QUICKSTART_MODEL_SHA256


def test_cmd_adapt_reports_deployable_branches(tmp_path):
    man = load_manifest("builtin:manifest_quickstart")
    out = tmp_path / "adapt.json"
    report = cmd_adapt(man, str(out))
    assert not report["degenerate"]
    indices = [b["index"] for b in report["deployable"]]
    assert indices[0] == 0 and len(indices) > 1
    on_disk = json.loads(out.read_text())
    assert on_disk == report
    assert on_disk["manifest"]["hash"] == man.fingerprint
    assert on_disk["op"] == "adapt"


def test_cmd_adapt_degenerate_flag(tmp_path):
    man = load_manifest("builtin:manifest_quickstart", target_override=1.0)
    report = cmd_adapt(man, None)
    assert report["degenerate"]
    assert [b["index"] for b in report["deployable"]] == [0]


def test_cmd_simulate_modelless_policy(tmp_path):
    man = load_manifest("builtin:manifest_quickstart")
    report = cmd_simulate(man, str(tmp_path / "sim.json"), policy="round_robin")
    assert report["policy"] == "round_robin"
    assert report["summary"]["latency"]["frames"] == man.scenario.frame_count
    assert len(report["decisions"]) == man.scenario.frame_count - 1
    hist = report["assignment_histogram"]
    assert sum(hist.values()) == 6 * (man.scenario.frame_count - 1)


def test_cmd_simulate_adaptive_uses_saved_model(manifest_file, tmp_path):
    man = load_manifest(manifest_file)
    report = cmd_simulate(man, str(tmp_path / "sim.json"), policy="adaptive")
    assert report["policy"] == "adaptive"
    for d in report["decisions"]:
        assert d["predicted_latency_ms"] <= d["t_max_ms"] + 1e-9
    assert report["summary"]["latency"]["compliance"] == 1.0


def test_cmd_simulate_missing_model_file_is_config_error(tmp_path):
    data = {
        "name": "gone",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        "model": str(tmp_path / "nope.json"),
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    man = load_manifest(str(p))
    with pytest.raises((ConfigError, OSError)):
        cmd_simulate(man, None, policy="adaptive")


def _break_first_split(model: dict) -> None:
    root = next(t for t in model["accuracy"]["trees"] if "feature_index" in t)
    root["feature_index"] = 500


@pytest.mark.parametrize(
    "corrupt",
    [_break_first_split, lambda model: model["accuracy"].update(n_features=97)],
    ids=["feature-index-500", "n-features-97"],
)
def test_main_rejects_a_malformed_model_file(tmp_path, capsys, quickstart_model_file, corrupt):
    with open(quickstart_model_file, encoding="utf-8") as fh:
        model = json.load(fh)
    corrupt(model)
    bad_model = tmp_path / "bad_models.json"
    bad_model.write_text(json.dumps(model))
    data = {
        "name": "bad-model",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        "model": str(bad_model),
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    assert main(["simulate", "--manifest", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model file") and "invalid" in err
    assert "Traceback" not in err


def test_cmd_compare_reports_dominance(manifest_file, tmp_path):
    man = load_manifest(manifest_file)
    report = cmd_compare(man, str(tmp_path / "cmp.json"),
                         policies=("adaptive", "per_frame"))
    assert set(report["policies"]) == {"adaptive", "per_frame"}
    dom = report["predicted_dominance"]
    assert dom["frames_checked"] > 0
    assert dom["violations"] == 0
    assert report["best_policy_by_ds"] in report["policies"]
    for block in report["policies"].values():
        assert {"mAP", "mATE", "mAVE", "DS"} <= set(block)


# -- training data plumbing ---------------------------------------------------------


def test_training_set_shapes(quickstart_manifest):
    man = quickstart_manifest
    episodes = collect_training_episodes(man)
    assert len(episodes) == len(man.training["seeds"])
    feats, targets, counts = build_training_set(episodes, man.capability)
    assert feats.ndim == 2 and feats.shape[0] == len(targets)
    assert feats.shape[0] > 0
    # one sample per (frame, view, branch); one track count per frame
    frames_total = sum(len(ep.frames) for ep in episodes)
    assert len(counts) == frames_total
    assert feats.shape[0] == frames_total * 6 * 17
    assert (targets >= 0.0).all() and (targets <= 1.0).all()
    assert (counts >= 0).all()



@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), frames=st.integers(1, 6))
def test_training_set_of_an_empty_scene(quickstart_manifest, seed, frames):
    # no object ever exists: every cell scores exactly 0.0, silently, and the
    # feature rows still carry the logged distributions, branch and confidence
    man = quickstart_manifest
    scenario = replace(man.scenario, initial_count=0, spawn_rate_per_s=0.0,
                       duration_s=frames / man.scenario.fps)
    man = replace(man, scenario=scenario, training={**man.training, "seeds": [seed]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        episodes = collect_training_episodes(man)
        feats, targets, counts = build_training_set(episodes, man.capability)
    logs = episodes[0].frames
    assert all(not log.gt_boxes for log in logs)
    assert targets.tolist() == [0.0] * len(targets)
    catalog = enumerate_branches()
    views = 6
    cells = feats.reshape(len(logs), views, len(catalog), FEATURE_WIDTH)
    for log, frame_cells in zip(logs, cells):
        conf = np.zeros(views)
        for v in range(views):
            here = [b.confidence for b, w in zip(log.forecast_boxes, log.forecast_views) if w == v]
            if here:
                conf[v] = np.mean(here)
        for b, branch in enumerate(catalog):
            cell = frame_cells[:, b]
            assert (cell[:, :NUM_CATEGORIES] == np.asarray(log.distributions)).all()
            one_hot = cell[:, NUM_CATEGORIES : NUM_CATEGORIES + NUM_BRANCHES]
            assert (one_hot == np.eye(NUM_BRANCHES)[branch.index]).all()
            assert (cell[:, -1] == (conf if branch.is_tracker else 0.0)).all()

# -- entry point ----------------------------------------------------------------------


def test_main_simulate_round_robin(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["simulate", "--manifest", "builtin:manifest_quickstart",
                 "--policy", "round_robin", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["op"] == "simulate"
    assert report["tool"]["name"] == "viewsched"


def test_main_writes_report_to_stdout(capsys):
    code = main(["adapt", "--manifest", "builtin:manifest_quickstart"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["op"] == "adapt"


def test_main_config_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["simulate", "--manifest", missing]) == 2


def test_main_runtime_error_exit_code(tmp_path, capsys):
    # valid manifest, but the simulate policy string is rejected at runtime
    code = main(["simulate", "--manifest", "builtin:manifest_quickstart",
                 "--policy", "bogus"])
    assert code == 3


def test_main_seed_and_target_overrides(tmp_path):
    out = tmp_path / "r.json"
    code = main(["simulate", "--manifest", "builtin:manifest_quickstart",
                 "--policy", "all_tracker", "--seed", "12", "--target-ms", "41",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 12
    assert report["target_ms"] == 41.0
