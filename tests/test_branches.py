"""Branch catalog, device profile, and deployment-adaptation tests."""

import json
import math

import pytest

from viewsched.branches import (
    NUM_BRANCHES,
    TRACKER_BRANCH_INDEX,
    BackboneKind,
    BranchConfig,
    DepthNetKind,
    DeviceProfile,
    FrameAnchor,
    ModuleProfile,
    ProfileError,
    adapt,
    branch_by_label,
    branch_latency,
    default_device_profile,
    enumerate_branches,
    fixed_latency,
    group_cost,
)


# -- catalog ------------------------------------------------------------------


def test_catalog_shape_and_order():
    catalog = enumerate_branches()
    assert len(catalog) == NUM_BRANCHES == 17
    assert catalog[0].is_tracker
    assert catalog[0].index == TRACKER_BRANCH_INDEX == 0
    assert [b.index for b in catalog] == list(range(17))
    # 16 detection branches = 4 backbones x 2 depth heads x 2 fusion flags
    dets = [b for b in catalog if not b.is_tracker]
    combos = {(b.backbone, b.depthnet, b.temporal_fusion) for b in dets}
    assert len(combos) == 16


def test_catalog_order_backbone_then_depth_then_fusion():
    labels = [b.label for b in enumerate_branches()]
    assert labels[:5] == ["tracker", "r34-sparse", "r34-sparse+tf", "r34-dense", "r34-dense+tf"]
    assert labels[5] == "r50-sparse"
    assert labels[-1] == "r152-dense+tf"


def test_branch_by_label_round_trip():
    for b in enumerate_branches():
        assert branch_by_label(b.label) == b
    with pytest.raises(KeyError):
        branch_by_label("r9000-sparse")


def test_backbone_input_resolutions_grow_with_depth():
    sizes = [BackboneKind.R34.input_hw, BackboneKind.R50.input_hw,
             BackboneKind.R101.input_hw, BackboneKind.R152.input_hw]
    areas = [h * w for h, w in sizes]
    assert areas == sorted(areas)
    assert len(set(areas)) == 4


# -- latency arithmetic -------------------------------------------------------


def test_group_cost_alpha_one_is_linear():
    assert group_cost(10.0, 1) == pytest.approx(10.0)
    assert group_cost(10.0, 3) == pytest.approx(30.0)
    assert group_cost(10.0, 0) == 0.0


def test_group_cost_batching_discount():
    # first view pays full price, each extra view pays alpha of it
    assert group_cost(10.0, 3, alpha=0.5) == pytest.approx(20.0)
    assert group_cost(8.0, 2, alpha=0.25) == pytest.approx(10.0)
    # alpha=1 reduces to the linear rule
    assert group_cost(8.0, 5, alpha=1.0) == pytest.approx(40.0)


def test_default_device_latencies_are_ordered():
    device = default_device_profile()
    assert fixed_latency(device) > 0.0
    tracker = enumerate_branches()[0]
    assert branch_latency(tracker, device) == 0.0
    # heavier backbones cost more, all else equal
    for depth in ("sparse", "dense"):
        for suffix in ("", "+tf"):
            lats = [branch_latency(branch_by_label(f"{bb}-{depth}{suffix}"), device)
                    for bb in ("r34", "r50", "r101", "r152")]
            assert lats == sorted(lats)
            assert len(set(lats)) == 4
    # dense depth head costs more than sparse; fusion adds on top
    for bb in ("r34", "r50", "r101", "r152"):
        sparse = branch_latency(branch_by_label(f"{bb}-sparse"), device)
        dense = branch_latency(branch_by_label(f"{bb}-dense"), device)
        fused = branch_latency(branch_by_label(f"{bb}-sparse+tf"), device)
        assert dense > sparse
        assert fused > sparse


def test_device_round_trip_and_anchor_validation():
    device = default_device_profile()
    data = device.to_dict()
    clone = DeviceProfile.from_dict(data)
    for b in enumerate_branches():
        assert branch_latency(b, clone) == pytest.approx(branch_latency(b, device))
    # through JSON text, as manifests reference device files
    loaded = DeviceProfile.from_dict(json.loads(json.dumps(data)))
    assert loaded.to_dict() == data
    # a corrupted anchor must be rejected
    bad = dict(data)
    bad["anchors"] = [dict(a) for a in data.get("anchors", [])]
    if bad["anchors"]:
        bad["anchors"][0] = dict(bad["anchors"][0])
        bad["anchors"][0]["frame_ms"] = bad["anchors"][0]["frame_ms"] + 5.0
        with pytest.raises(ProfileError):
            DeviceProfile.from_dict(bad)


def test_device_validation_rejects_broken_tables():
    device = default_device_profile()
    data = device.to_dict()
    missing = dict(data)
    missing["branches"] = [b for b in data["branches"] if b["index"] != 16]
    with pytest.raises(ProfileError):
        DeviceProfile.from_dict(missing)
    negative = dict(data)
    negative["update_latency"] = dict(data["update_latency"])
    negative["update_latency"]["slope_ms_per_track"] = -0.1
    with pytest.raises(ProfileError):
        DeviceProfile.from_dict(negative)


# -- deployment adaptation ----------------------------------------------------


def test_adapt_keeps_everything_under_a_loose_target():
    device = default_device_profile()
    branches = adapt(device, 1000.0)
    assert [b.index for b in branches] == list(range(17))


def test_adapt_prunes_by_latency():
    device = default_device_profile()
    branches = adapt(device, 33.0)
    indices = [b.index for b in branches]
    assert indices[0] == 0
    fixed = fixed_latency(device)
    # every survivor fits a single view within the target, every pruned
    # detection branch does not
    surviving = set(indices)
    for b in enumerate_branches():
        if b.is_tracker:
            continue
        fits = branch_latency(b, device) + fixed <= 33.0
        assert (b.index in surviving) == fits
    # a larger budget only adds branches
    wider = {b.index for b in adapt(device, 50.0)}
    assert surviving <= wider


def test_adapt_degenerate_target_leaves_only_tracker():
    device = default_device_profile()
    branches = adapt(device, 0.5)
    assert [b.index for b in branches] == [0]
    with pytest.raises(ProfileError):
        adapt(device, 0.0)


def test_adapt_memory_pass_evicts_heavy_modules():
    device = default_device_profile()
    data = device.to_dict()
    # find the memory footprint of the full deployment, then force a cut
    full_mb = sum(m["memory_mb"] for m in data["modules"])
    data = dict(data)
    data["memory_limit_mb"] = full_mb * 0.5
    tight = DeviceProfile.from_dict(data)
    branches = adapt(tight, 1000.0)
    assert branches[0].is_tracker
    assert len(branches) < 17
    # the surviving detection branches' modules plus fixed modules fit
    needed = set()
    for b in branches:
        needed.update(tight.branch_modules[b.index])
    needed.update(n for n, m in tight.modules.items() if m.fixed)
    assert sum(tight.modules[n].memory_mb for n in needed) <= tight.memory_limit_mb


def test_adapt_memory_eviction_is_deterministic():
    device = default_device_profile()
    data = dict(device.to_dict())
    data["memory_limit_mb"] = sum(m["memory_mb"] for m in data["modules"]) * 0.5
    a = [b.index for b in adapt(DeviceProfile.from_dict(data), 100.0)]
    b = [b.index for b in adapt(DeviceProfile.from_dict(data), 100.0)]
    assert a == b


def test_profile_rejects_a_limit_below_the_fixed_modules():
    data = dict(default_device_profile().to_dict())
    fixed_mb = sum(m["memory_mb"] for m in data["modules"] if m.get("fixed"))
    DeviceProfile.from_dict({**data, "memory_limit_mb": fixed_mb})
    with pytest.raises(ProfileError, match="fixed modules alone need"):
        DeviceProfile.from_dict({**data, "memory_limit_mb": fixed_mb * 0.99})


def test_profile_rejects_tracker_with_modules():
    device = default_device_profile()
    data = dict(device.to_dict())
    some_module = data["modules"][0]["name"]
    data["branches"] = [
        {"index": b["index"], "modules": [some_module] if b["index"] == 0 else b["modules"]}
        for b in data["branches"]
    ]
    with pytest.raises(ProfileError):
        DeviceProfile.from_dict(data)
