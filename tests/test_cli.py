"""Command-line interface tests.

The expensive path (training) is exercised once via the session-scoped
fixtures; commands that need trained models load them from a file written by
those fixtures instead of retraining.
"""

import argparse
import copy
import hashlib
import json
import math
import multiprocessing
import os
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsched.branches import (
    NUM_BRANCHES,
    DeviceProfile,
    ProfileError,
    default_device_profile,
    enumerate_branches,
)

from viewsched import cli, simulator
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
from viewsched.scheduler import InfeasibleError
from viewsched.simulator import POLICIES, SystemConfig, default_capability


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
        {"latency_noise_sigma": 1000},
        {"sched_margin_ms": 40},
        {"memory_limit_mb": "abc"},
        {"target_ms": float("nan")},
        {"target_ms": float("inf")},
        {"memory_limit_mb": 100},
        {"scenario": 5},
        {"model": ["m.json"]},
        {"training": {"rounds": 7.5}},
        {"training": {"learning_rate": "0.1"}},
        {"training": {"seeds": [101, -1]}},
    ],
    ids=["seeds-not-a-list", "seeds-empty", "rounds-zero", "unknown-training-key", "alpha-zero",
         "unknown-top-level-key", "sigma-negative", "sigma-above-bound",
         "margin-not-below-target", "memory-limit-string", "target-nan", "target-infinite",
         "memory-limit-below-fixed-modules", "scenario-not-a-string", "model-not-a-string",
         "rounds-fractional", "learning-rate-string", "seed-negative"],
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


def _manifest_referencing(tmp_path, key, document):
    """A quickstart manifest whose `key` reference is a file holding `document`."""
    (tmp_path / f"{key}.json").write_text(json.dumps(document))
    data = {
        "name": "broken-" + key,
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        key: f"{key}.json",
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_device_listing_a_module_twice_is_a_config_error(tmp_path, capsys):
    data = copy.deepcopy(default_device_profile().canonical)
    data["modules"].append(dict(data["modules"][0]))
    with pytest.raises(ProfileError, match="duplicate module"):
        DeviceProfile.from_dict(data)
    assert main(["adapt", "--manifest", _manifest_referencing(tmp_path, "device", data)]) == 2
    assert "duplicate module" in capsys.readouterr().err


def _drop_nearest_distance_level(cap):
    # the far-recall anchor still holds one level nearer, so only the length is wrong
    for key in ("r34", "r50", "r101", "r152"):
        del cap["recall_by_backbone"][key][0]
    del cap["position_sigma"]["base_by_distance"][0]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda cap: cap["false_positives"]["rate_by_backbone"].pop("r152"),
        lambda cap: cap["position_sigma"]["backbone_factor"].pop("r152"),
        lambda cap: cap["size_sigma"]["backbone_factor"].pop("r152"),
        _drop_nearest_distance_level,
        lambda cap: cap["velocity_sigma"]["distance_factor"].pop(),
        lambda cap: cap["velocity_sigma"]["base_by_vlevel"].pop(),
        lambda cap: cap["size_sigma"]["base_by_slevel"].pop(),
    ],
    ids=["fp-rate-missing-backbone", "position-factor-missing-backbone",
         "size-factor-missing-backbone", "distance-levels-short",
         "velocity-distance-factor-short", "velocity-levels-short", "size-levels-short"],
)
def test_main_rejects_a_capability_that_cannot_price_every_box(tmp_path, capsys, corrupt):
    cap = copy.deepcopy(default_capability().canonical)
    corrupt(cap)
    manifest = _manifest_referencing(tmp_path, "capability", cap)
    code = main(["simulate", "--manifest", manifest, "--policy", "fixed:16", "--target-ms", "400"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration")
    assert "Traceback" not in err


def _set(path, value):
    """A corruption that sets the entry at `path` (keys and list indices) to `value`."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return corrupt


def _module(name, **changes):
    def corrupt(device):
        next(m for m in device["modules"] if m["name"] == name).update(changes)
    return corrupt


def _nan_latency_without_anchors(device):
    device["modules"][0]["latency_ms"] = math.nan
    del device["anchors"]


def _index_2_listed_again_with_branch_16s_modules(device):
    device["branches"].append({"index": 2, "modules": list(device["branches"][16]["modules"])})


def _rename(old, new):
    def corrupt(doc):
        doc[new] = doc.pop(old)
    return corrupt


# each referenced file kind's bundled document, as a fresh copy
_BUNDLED = {
    "capability": lambda: copy.deepcopy(default_capability().canonical),
    "device": lambda: copy.deepcopy(default_device_profile().canonical),
    "scenario": lambda: load_manifest("builtin:manifest_quickstart").scenario.to_dict(),
    "manifest": lambda: {"name": "versioned", "scenario": "builtin:scenario_quickstart",
                         "device": "builtin:device_orin",
                         "capability": "builtin:capability_default"},
}

_NEWLY_REJECTED = [
    ("capability", _set(["position_sigma", "backbone_factor", "r34"], -1.0),
     "negative-r34-position-factor"),
    ("capability", _set(["position_sigma", "dense_factor"], -0.5), "negative-dense-factor"),
    ("capability", _set(["confidence", "tp_sd"], -0.1), "negative-tp-sd"),
    ("capability", _set(["position_sigma", "base_by_distance", 0], math.nan), "nan-base-sigma"),
    ("capability", _set(["velocity_modifiers", "sparse_fused"], "0.55"), "number-as-string"),
    ("capability", _rename("ratio_anchors", "ratio_anchor"), "typo-ratio-anchor"),
    ("capability", _set(["velocity_modifiers", "dense_fused"], 0.0), "anchor-over-zero-modifier"),
    ("device", _index_2_listed_again_with_branch_16s_modules, "index-listed-twice"),
    ("device", _module("bev_head", fixed="false"), "fixed-as-string"),
    ("device", _nan_latency_without_anchors, "nan-latency-without-anchors"),
    ("device", _set(["comment"], "orin-like"), "unknown-device-key"),
    ("device", _module("backbone_r34", memory_mb=10**400), "int-beyond-float-range"),
    ("scenario", _set(["duration_s"], math.inf), "infinite-duration"),
    ("scenario", _set(["fps"], math.nan), "nan-fps"),
    ("scenario", _set(["seed"], -1), "negative-seed"),
    ("scenario", _set(["ego", "speed_mps"], math.inf), "infinite-ego-speed"),
    ("scenario", _set(["world_radius_m"], math.nan), "nan-world-radius"),
    ("scenario", _set(["fps"], True), "boolean-fps"),
    ("scenario", _set(["seed"], 7.5), "fractional-seed"),
    ("scenario", _rename("initial_count", "initial_cout"), "typo-initial-count"),
    ("scenario", lambda scenario: scenario["class_mix"].update(truck=-0.38, car=0.9),
     "negative-class-weight"),
    ("scenario", _set(["speed_ranges"], {"car": [0, 1]}), "partial-speed-ranges"),
    ("scenario", _set(["duration_s"], 0.04), "no-frames"),
    ("scenario", _set(["duration_s"], 1e9), "ten-billion-frames"),
    ("scenario", lambda scenario: _rename("radius_m", "radus_m")(scenario["ego"]),
     "typo-ego-radius"),
]


@pytest.mark.parametrize(
    "key,corrupt", [case[:2] for case in _NEWLY_REJECTED], ids=[case[2] for case in _NEWLY_REJECTED]
)
def test_main_rejects_a_malformed_profile_or_scenario_at_load(tmp_path, capsys, key, corrupt):
    document = _BUNDLED[key]()
    corrupt(document)
    manifest = _manifest_referencing(tmp_path, key, document)
    assert main(["simulate", "--manifest", manifest, "--policy", "all_tracker"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration")
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("initial_count", 1_000_000), ("spawn_rate_per_s", 1e6)])
def test_main_rejects_an_oversized_scene_before_generating_it(tmp_path, capsys, monkeypatch,
                                                              key, value):
    def no_scene(config):
        raise AssertionError("an oversized scene must not be generated")

    monkeypatch.setattr(simulator, "generate_scenario", no_scene)
    document = _BUNDLED["scenario"]()
    document[key] = value
    manifest = _manifest_referencing(tmp_path, "scenario", document)
    assert main(["simulate", "--manifest", manifest, "--policy", "all_tracker"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and "at most" in err


def _deep_model_text(depth):
    """A model file whose one tree is `depth` splits deep, as JSON text."""
    tree = ('{"feature_index": 0, "threshold": 0.5, "left": ' * depth + '{"leaf_value": 0.5}'
            + ', "right": {"leaf_value": 0.5}}' * depth)
    document = {"version": 1, "accuracy": dict(_NO_TREES, trees=["TREE"]),
                "update_latency": {"slope_ms_per_track": 0.1, "intercept_ms": 1.0}}
    return json.dumps(document).replace('"TREE"', tree)


# a file nested deeper than the JSON decoder recurses is a configuration error
@pytest.mark.parametrize("key", ["manifest", "scenario", "device", "capability", "model"])
def test_main_rejects_a_deeply_nested_file(tmp_path, capsys, key):
    if key == "model":
        manifest = _manifest_referencing(tmp_path, "model", {})
        (tmp_path / "model.json").write_text(_deep_model_text(3_000))
        command = ["simulate", "--manifest", manifest]
    else:
        manifest = _manifest_referencing(tmp_path, key, {})
        deep = tmp_path / ("m.json" if key == "manifest" else f"{key}.json")
        deep.write_text("[" * 100_000 + "]" * 100_000)
        command = ["adapt", "--manifest", manifest]
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "recursion" in err and "Traceback" not in err


# one bad version per file kind: any value but 1 is rejected at load, absent means 1
@pytest.mark.parametrize(
    "key,version",
    [("scenario", 99), ("capability", "banana"), ("device", [1]), ("manifest", 2)],
    ids=["scenario", "capability", "device", "manifest"],
)
def test_main_rejects_a_file_version_other_than_1(tmp_path, capsys, key, version):
    document = _BUNDLED[key]()
    document.pop("version", None)
    if key == "manifest":
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        manifest = str(path)
    else:
        manifest = _manifest_referencing(tmp_path, key, document)
    assert main(["adapt", "--manifest", manifest]) == 0  # absent: version 1
    document["version"] = version
    if key == "manifest":
        path.write_text(json.dumps(document))
    else:
        manifest = _manifest_referencing(tmp_path, key, document)
    capsys.readouterr()
    assert main(["adapt", "--manifest", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration")
    assert f"version must be 1, got {version!r}" in err


# SHA-256 fingerprints of the bundled manifests' resolved configuration. They
# cover every profile and scenario number as read, so a reader that changes
# any value, default or canonical form moves them.
BUNDLED_MANIFEST_FINGERPRINTS = {
    "quickstart": "2e8b118284af5ce0daa068d0db70cefe1eefe42472c8c73c0c0bba16b7841761",
    "compare": "115c58f0791bf503525dc8442bedc9f91ff2f5bc46072907021805f8e08511a4",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_MANIFEST_FINGERPRINTS))
def test_bundled_manifest_fingerprints_are_pinned(name):
    man = load_manifest(f"builtin:manifest_{name}")
    assert man.fingerprint == BUNDLED_MANIFEST_FINGERPRINTS[name]


# -- commands ---------------------------------------------------------------------


# SHA-256 of the quickstart predictors as `viewsched train --out` writes them.
# Any change to the model bytes must be deliberate: update it only together
# with a note on why the model changed.
QUICKSTART_MODEL_SHA256 = "689fda581f1a533da3f112ac4f01e32ae373bb22647b4b89daab1ee4e4e3411c"


def test_quickstart_model_file_is_byte_identical(quickstart_model_file):
    with open(quickstart_model_file, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == QUICKSTART_MODEL_SHA256


@pytest.fixture(scope="module")
def quickstart_training_set(quickstart_manifest):
    """(episodes, (features, targets, track counts)) of the quickstart's
    phase-one collection."""
    episodes = collect_training_episodes(quickstart_manifest)
    parts = [build_training_set(ep, quickstart_manifest.capability) for ep in episodes]
    return episodes, tuple(map(np.concatenate, zip(*parts)))


# SHA-256 of the raw bytes of the quickstart's phase-one training set, the
# first input of the model above. Like the model, it changes only on purpose.
QUICKSTART_TRAINING_SET_SHA256 = {
    "features": "dfc64044bd25d313059f7a35c46dc6282d1a06ab8ecbc1202da10039cd72ed39",
    "targets": "1f077abf404dd32fcc07f094a5ba2bc4714312e4340a0f360fa1627ec20aba6a",
    "counts": "552cedc2ad5365c2a11db687f7c6d20aa00865c8753f58538eb7acbaa2bcbec5",
}


def test_quickstart_training_set_is_byte_identical(quickstart_training_set):
    _, arrays = quickstart_training_set
    got = {
        name: hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()
        for name, a in zip(("features", "targets", "counts"), arrays)
    }
    assert got == QUICKSTART_TRAINING_SET_SHA256


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


# SHA-256 of the report `cmd_simulate` writes for each bundled manifest and
# policy. Adaptive runs read the session's trained models back from the file
# `train --out` writes. A change to any of them must be deliberate.
BUNDLED_REPORT_SHA256 = {
    ("compare", "adaptive"): "6a679fef537843f6a9210f0d19d982d319124fb4e3b7ef7a2da11f085a3ea032",
    ("compare", "all_tracker"): "62306a2ad22a54b975aa2846a484f4a0061456ce65026ace98da92f1058cc94f",
    ("compare", "fixed:2"): "519041ac91605fcf3ba1f2045ad695a7d85b91f4b8dc766951db7ffa086c3174",
    ("compare", "round_robin"): "48aa96ab376989a4039ba32c36b113814a4cf55ed03322df403373368533fbeb",
    ("quickstart", "adaptive"): "01ada8616aa9cd5eaa360dfab60617cb60d48e4dbe386e1f80f5211a067cec06",
    ("quickstart", "all_tracker"): "ff9f7daabdfe263b567422d116c14b611e22feca5a2d48cd17db37ba6b4db956",
    ("quickstart", "fixed:2"): "292b269d4db81219746a2c1cb3b0f30facb8f5170832b005f9721aaa202e50de",
    ("quickstart", "round_robin"): "fe82f8a9a0a76fb0ed298ce8a29c9cde0c723ac7b7796ac5976790758aa1715c",
}


@pytest.mark.parametrize("name,policy", sorted(BUNDLED_REPORT_SHA256))
def test_bundled_simulate_reports_are_pinned(request, tmp_path, name, policy):
    man = load_manifest(f"builtin:manifest_{name}")
    if policy == "adaptive":
        models, info = request.getfixturevalue(f"{name}_trained")
        path = str(tmp_path / "models.json")
        models.save(path, training_info=info)
        man = replace(man, model_path=path)
    out = tmp_path / "report.json"
    cmd_simulate(man, str(out), policy=policy)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUNDLED_REPORT_SHA256[name, policy]


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


def _first_split(model: dict) -> dict:
    return next(t for t in model["accuracy"]["trees"] if "feature_index" in t)


def _first_leaf(model: dict) -> dict:
    node = _first_split(model)
    while "leaf_value" not in node:
        node = node["left"]
    return node


# each edit breaks one rule of the model file; a number must be a finite JSON
# number, and an index or count a JSON int; a tree node holds exactly a
# leaf's or a split's keys; a version is the JSON int 1; the learning rate
# lies in (0, 2]
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda model: _first_split(model).update(feature_index=500),
        lambda model: model["accuracy"].update(n_features=97),
        lambda model: _first_split(model).update(threshold="NaN"),
        lambda model: _first_split(model).update(threshold=float("nan")),
        lambda model: model["accuracy"].update(base_score=True),
        lambda model: model["accuracy"].update(n_features="98"),
        lambda model: model["accuracy"].update(learning_rate="1e308"),
        lambda model: _first_split(model).update(feature_index=3.7),
        lambda model: model["update_latency"].update(slope_ms_per_track="inf"),
        lambda model: _first_leaf(model).update(leaf_value="nan"),
        lambda model: _first_leaf(model).update(leaf_value=10**400),
        lambda model: _first_split(model).update(treshold=0.5),
        lambda model: _first_split(model).update(leaf_value=0.5),
        lambda model: _first_split(model).update(treshold=_first_split(model).pop("threshold")),
        lambda model: model.update(version=True),
        lambda model: model["accuracy"].update(version=1.0),
        lambda model: model["accuracy"].update(learning_rate=-5.0),
        lambda model: model["accuracy"].update(learning_rate=1e308),
    ],
    ids=["feature-index-500", "n-features-97", "threshold-string-nan", "threshold-nan",
         "base-score-true", "n-features-string", "learning-rate-string", "feature-index-3.7",
         "slope-string-inf", "leaf-value-string-nan", "leaf-value-beyond-float",
         "split-extra-key", "split-with-leaf-value", "split-key-misspelled", "version-true",
         "accuracy-version-1.0",
         "learning-rate-negative", "learning-rate-1e308"],
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


_NO_TREES = {"version": 1, "kind": "gbrt", "n_features": FEATURE_WIDTH, "base_score": 0.5,
             "learning_rate": 0.1, "trees": []}


@pytest.mark.parametrize(
    "document",
    [[], {"version": 1, "accuracy": "x"},
     {"version": 1, "accuracy": _NO_TREES, "update_latency": []}],
    ids=["list", "accuracy-string", "update-latency-list"],
)
def test_main_rejects_a_model_file_that_is_not_json_objects(tmp_path, capsys, document):
    manifest = _manifest_referencing(tmp_path, "model", document)
    assert main(["simulate", "--manifest", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model file") and "Traceback" not in err


def test_cmd_compare_reports_dominance(manifest_file, tmp_path):
    man = load_manifest(manifest_file)
    report = cmd_compare(man, str(tmp_path / "cmp.json"))
    assert list(report["policies"]) == ["adaptive", "per_frame", "all_tracker"]
    dom = report["predicted_dominance"]
    assert dom["frames_checked"] > 0
    assert dom["violations"] == 0
    assert report["best_policy_by_ds"] in report["policies"]
    for block in report["policies"].values():
        assert {"mAP", "mATE", "mAVE", "DS"} <= set(block)
    with pytest.raises(TypeError):  # the three policies are fixed
        cmd_compare(man, None, policies=("adaptive",))


# -- training data plumbing ---------------------------------------------------------


def test_training_set_shapes(quickstart_manifest, quickstart_training_set):
    man = quickstart_manifest
    episodes, (feats, targets, counts) = quickstart_training_set
    assert len(episodes) == len(man.training["seeds"])
    assert feats.ndim == 2 and feats.shape[0] == len(targets)
    assert feats.shape[0] > 0
    # one sample per (frame, view, branch); one track count per frame
    frames_total = sum(len(ep.frames) for ep in episodes)
    assert len(counts) == frames_total
    assert feats.shape[0] == frames_total * 6 * 17
    assert (targets >= 0.0).all() and (targets <= 1.0).all()
    assert (counts >= 0).all()



def test_training_set_is_built_one_episode_at_a_time(quickstart_manifest, quickstart_training_set):
    episodes, _ = quickstart_training_set
    feats, targets, counts = build_training_set(episodes[0], quickstart_manifest.capability)
    frames = len(episodes[0].frames)
    assert feats.shape == (frames * 6 * 17, FEATURE_WIDTH) and targets.shape == (frames * 6 * 17,)
    assert counts.shape == (frames,)

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
        feats, targets, counts = build_training_set(episodes[0], man.capability)
    logs = episodes[0].frames
    assert all(not any(log.gt_by_view) for log in logs)
    assert targets.tolist() == [0.0] * len(targets)
    catalog = enumerate_branches()
    views = 6
    cells = feats.reshape(len(logs), views, len(catalog), FEATURE_WIDTH)
    for log, frame_cells in zip(logs, cells):
        conf = np.zeros(views)
        for v in range(views):
            here = [c for c, w in zip(log.forecast.confidences, log.forecast_views) if w == v]
            if here:
                conf[v] = np.mean(here)
        for b, branch in enumerate(catalog):
            cell = frame_cells[:, b]
            assert (cell[:, :NUM_CATEGORIES] == log.distributions).all()
            one_hot = cell[:, NUM_CATEGORIES : NUM_CATEGORIES + NUM_BRANCHES]
            assert (one_hot == np.eye(NUM_BRANCHES)[branch.index]).all()
            assert (cell[:, -1] == (conf if branch.is_tracker else 0.0)).all()


def _train_spied(monkeypatch, man, cpus):
    """`train_models` at `cpus` usable CPUs, with copies of each fit's inputs:
    one (features, targets, track counts) per fit, provisional fit first."""
    gbrt_inputs, update_inputs = [], []
    train_gbrt_, fit_update_latency_ = cli.train_gbrt, cli.fit_update_latency

    def spy_gbrt(x, y, params):
        gbrt_inputs.append((np.array(x), np.array(y)))
        return train_gbrt_(x, y, params)

    def spy_update(counts, latencies):
        update_inputs.append(np.array(counts))
        return fit_update_latency_(counts, latencies)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "train_gbrt", spy_gbrt)
    monkeypatch.setattr(cli, "fit_update_latency", spy_update)
    models, _ = cli.train_models(man)
    return [(*xy, c) for xy, c in zip(gbrt_inputs, update_inputs, strict=True)], models


def test_a_worker_pool_builds_the_same_training_rows(
    monkeypatch, quickstart_manifest, quickstart_training_set
):
    # both phases of train_models, in this process and in a 2-worker pool;
    # phase one also equals collecting then building at once
    serial_fits, serial_models = _train_spied(monkeypatch, quickstart_manifest, 1)
    pooled_fits, pooled_models = _train_spied(monkeypatch, quickstart_manifest, 2)
    assert len(serial_fits) == len(pooled_fits) == 2
    for serial, pooled in zip(serial_fits, pooled_fits):
        for got, want in zip(pooled, serial):
            assert np.array_equal(got, want)
    provisional, final = serial_fits
    for got, at_once in zip(provisional, quickstart_training_set[1]):
        assert np.array_equal(got, at_once)
    # phase one's rows lead the final fit's, in the same order
    for first, union in zip(provisional, final):
        assert np.array_equal(union[: len(first)], first) and len(union) == 2 * len(first)
    assert pooled_models.to_dict() == serial_models.to_dict()


def test_training_pool_has_one_worker_per_seed_up_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._training_pool(4) is None  # one CPU: the seeds run in this process
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    assert cli._training_pool(1) is None
    pool = cli._training_pool(3)
    try:
        assert pool._max_workers == 3
    finally:
        pool.shutdown()
    assert multiprocessing.active_children() == []


def _infeasible(episode, capability):
    raise InfeasibleError("no assignment fits the budget")


def _worker_dies(episode, capability):
    os._exit(1)


def _out_of_memory(episode, capability):
    return np.empty(1 << 58)  # 2 EiB, more than any address space holds


@pytest.mark.parametrize(
    "cpus, build",
    [(1, _infeasible), (2, _infeasible), (2, _worker_dies), (1, _out_of_memory),
     (2, _out_of_memory)],
    ids=["in-process-raises", "worker-raises", "worker-dies", "in-process-out-of-memory",
         "worker-out-of-memory"],
)
def test_main_train_exits_3_when_a_training_seed_fails(monkeypatch, capsys, cpus, build):
    # a forked worker inherits the patch; a dead worker breaks the pool
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "build_training_set", build)
    assert main(["train", "--manifest", "builtin:manifest_quickstart"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_training_on_one_frame_scenarios_is_a_config_error(tmp_path, capsys, monkeypatch):
    # frame 0 is the warm-up: a one-frame episode logs one track count, 0,
    # so the latency fit could never run. No episode may run before that is known
    scenario = _BUNDLED["scenario"]()
    scenario["duration_s"] = 1.0 / scenario["fps"]
    manifest = _manifest_referencing(tmp_path, "scenario", scenario)
    monkeypatch.setattr(cli, "run_episode", _infeasible)
    for argv in (["train"], ["simulate", "--policy", "adaptive"], ["compare"]):
        assert main([*argv, "--manifest", manifest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training needs") and "Traceback" not in err
    monkeypatch.undo()
    out = tmp_path / "report.json"
    assert main(["simulate", "--policy", "all_tracker", "--manifest", manifest,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["decisions"] == []  # its one frame is the warm-up


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


def test_main_bad_policy_exit_code(monkeypatch, capsys):
    # a policy it cannot run is a configuration error, found before any work
    def no_training(man):
        raise AssertionError("a bad policy must not reach training")

    monkeypatch.setattr(cli, "train_models", no_training)
    for policy in ("bogus", "fixed:x", "fixed:", "fixed:16"):  # 16 is not deployed at 33 ms
        code = main(["simulate", "--manifest", "builtin:manifest_quickstart",
                     "--policy", policy])
        assert code == 2, policy
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration"), err
        assert "Traceback" not in err


def test_main_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["adapt", "--manifest", "builtin:manifest_quickstart", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_policy_help_and_readme_name_exactly_the_policy_table():
    names = [n + "<index>" if n.endswith(":") else n for n in POLICIES]
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in subparsers.choices["simulate"]._actions if a.dest == "policy")
    assert option.help.split(" | ") == names
    readme = " ".join((Path(__file__).parent.parent / "README.md").read_text("utf-8").split())
    assert f"`{' | '.join(names)}`" in readme


def test_main_seed_and_target_overrides(tmp_path):
    out = tmp_path / "r.json"
    code = main(["simulate", "--manifest", "builtin:manifest_quickstart",
                 "--policy", "all_tracker", "--seed", "12", "--target-ms", "41",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 12
    assert report["target_ms"] == 41.0
