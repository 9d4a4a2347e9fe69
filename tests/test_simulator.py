"""Scenario generation, synthetic detection, and closed-loop tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from viewsched import core, scheduler, simulator, tracker
from viewsched.branches import (
    adapt,
    branch_by_label,
    branch_latency,
    default_device_profile,
    enumerate_branches,
    fixed_latency,
)
from viewsched.core import Box3D, CameraRig, CategoryLevel, ObjectClass, categorize
from viewsched.predictors import FEATURE_WIDTH, GBRTModel, LinearLatencyModel, PerformanceModels
from viewsched.scheduler import assignment_latency
from viewsched.simulator import (
    CapabilityError,
    CapabilityProfile,
    ConfidenceParams,
    EgoPath,
    ScenarioConfig,
    SystemConfig,
    default_capability,
    generate_scenario,
    perfect_capability,
    realized_latency,
    rng_stream,
    run_episode,
    synth_detect,
)


# -- seeded streams -------------------------------------------------------------


def test_rng_streams_are_deterministic_and_independent():
    a1 = rng_stream(7, "detect/view0").random(5)
    a2 = rng_stream(7, "detect/view0").random(5)
    b = rng_stream(7, "detect/view1").random(5)
    c = rng_stream(8, "detect/view0").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_rng_stream_nesting_matters():
    x = rng_stream(7, "a", "b").random(3)
    y = rng_stream(7, "a/b").random(3)
    z = rng_stream(7, "a", "b").random(3)
    assert np.array_equal(x, z)
    assert not np.array_equal(x, y)


# -- ego paths --------------------------------------------------------------------


def test_straight_path_moves_linearly():
    path = EgoPath(kind="straight", speed_mps=5.0, heading_rad=0.0)
    p0 = path.pose_at(0.0)
    p2 = path.pose_at(2.0)
    assert p2.x - p0.x == pytest.approx(10.0)
    assert p2.y == pytest.approx(p0.y)
    assert p2.yaw == pytest.approx(p0.yaw)


def test_circular_path_stays_on_radius():
    path = EgoPath(kind="circular", radius_m=20.0, speed_mps=5.0)
    poses = [path.pose_at(t) for t in np.linspace(0.0, 25.0, 60)]
    center = (poses[0].x, poses[0].y - 20.0) if abs(poses[0].y) < 1e9 else None
    # distances between consecutive poses match arc length speed * dt
    for a, b in zip(poses, poses[1:]):
        chord = math.hypot(b.x - a.x, b.y - a.y)
        dt = b.t - a.t
        assert chord <= 5.0 * dt + 1e-9
    # heading is tangent: turning at constant rate
    rates = [(b.yaw - a.yaw) for a, b in zip(poses, poses[1:])]
    rate = 5.0 / 20.0 * (25.0 / 59.0)
    for r in rates:
        wrapped = math.remainder(r, 2 * math.pi)
        assert wrapped == pytest.approx(rate, abs=1e-6) or abs(wrapped) <= math.pi


def test_ego_path_round_trip():
    for path in (EgoPath(kind="straight", speed_mps=3.0, heading_rad=0.4),
                 EgoPath(kind="circular", radius_m=25.0, speed_mps=4.0)):
        clone = EgoPath.from_dict(path.to_dict())
        for t in (0.0, 1.7, 9.2):
            a, b = path.pose_at(t), clone.pose_at(t)
            assert (a.x, a.y, a.yaw, a.t) == (b.x, b.y, b.yaw, b.t)


# -- scenario generation ------------------------------------------------------------


def small_scenario(**overrides):
    base = dict(seed=5, duration_s=3.0, fps=10.0, world_radius_m=50.0,
                despawn_radius_m=55.0, spawn_rate_per_s=2.0, initial_count=8)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        small_scenario(duration_s=0.0)
    with pytest.raises(ValueError):
        small_scenario(despawn_radius_m=10.0)  # must cover the spawn radius
    with pytest.raises(ValueError):
        small_scenario(fps=0.0)
    cfg = small_scenario()
    assert cfg.frame_count == 30  # round(duration * fps)
    assert cfg.dt == pytest.approx(0.1)


def test_scenario_round_trip():
    cfg = small_scenario()
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    # through JSON text, as manifests reference scenario files
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_generate_scenario_is_deterministic():
    cfg = small_scenario()
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert len(a) == len(b) == cfg.frame_count
    for fa, fb in zip(a, b):
        assert fa.ids == fb.ids
        assert fa.boxes == fb.boxes
        assert (fa.ego.x, fa.ego.y, fa.ego.yaw) == (fb.ego.x, fb.ego.y, fb.ego.yaw)


def test_generate_scenario_seed_changes_world():
    a = generate_scenario(small_scenario(seed=5))
    b = generate_scenario(small_scenario(seed=6))
    assert a[0].boxes != b[0].boxes


def test_scenario_frames_are_well_formed():
    cfg = small_scenario(initial_count=10)
    frames = generate_scenario(cfg)
    seen = {}
    for k, frame in enumerate(frames):
        assert frame.index == k
        assert frame.timestamp == pytest.approx(k * cfg.dt)
        assert len(frame.ids) == len(frame.boxes)
        assert len(set(frame.ids)) == len(frame.ids)
        for oid, b in zip(frame.ids, frame.boxes):
            # ego-frame boxes stay within the despawn radius of the ego
            assert b.planar_distance <= cfg.despawn_radius_m + 1e-6
            assert isinstance(b.cls, ObjectClass)
            if oid in seen:
                assert seen[oid] is b.cls or seen[oid] == b.cls
            seen[oid] = b.cls
    assert len(frames[0].ids) == 10


def test_scenario_objects_move_between_frames():
    frames = generate_scenario(small_scenario())
    f0, f1 = frames[0], frames[1]
    shared = set(f0.ids) & set(f1.ids)
    assert shared
    moved = 0
    for oid in shared:
        b0 = f0.boxes[f0.ids.index(oid)]
        b1 = f1.boxes[f1.ids.index(oid)]
        if b0.planar_speed > 0.5:
            delta = math.hypot(b1.center[0] - b0.center[0],
                               b1.center[1] - b0.center[1])
            if delta > 1e-3:
                moved += 1
    assert moved > 0


# -- capability profiles --------------------------------------------------------------


def test_default_capability_passes_validation():
    cap = default_capability()
    cap.validate()  # must not raise
    assert cap.ratio_anchors is not None


def test_capability_ordering_violations_are_rejected():
    cap = default_capability()
    data = cap.to_dict()

    worse_with_distance = dict(data)
    recall = {k: list(v) for k, v in data["recall_by_backbone"].items()
              if k != "synthetic"}
    recall["r50"][2] = recall["r50"][1] + 0.2  # recall improves with distance
    worse_with_distance["recall_by_backbone"] = {**recall, "synthetic": True}
    with pytest.raises(CapabilityError):
        CapabilityProfile.from_dict(worse_with_distance)

    small_beats_big = dict(data)
    recall = {k: list(v) for k, v in data["recall_by_backbone"].items()
              if k != "synthetic"}
    recall["r34"][0] = 0.99  # r34 now beats r50 up close
    small_beats_big["recall_by_backbone"] = {**recall, "synthetic": True}
    with pytest.raises(CapabilityError):
        CapabilityProfile.from_dict(small_beats_big)

    dense_worse = dict(data)
    pos = dict(data["position_sigma"])
    pos["dense_factor"] = 1.5  # dense depth head must not increase noise
    dense_worse["position_sigma"] = pos
    with pytest.raises(CapabilityError):
        CapabilityProfile.from_dict(dense_worse)


def test_capability_anchor_violations_are_rejected():
    cap = default_capability()
    data = cap.to_dict()
    bad = dict(data)
    anchors = dict(data["ratio_anchors"])
    anchors["recall_far_ratio"] = 5.0  # tables are built for 2.7
    bad["ratio_anchors"] = anchors
    with pytest.raises(CapabilityError):
        CapabilityProfile.from_dict(bad)
    # dropping the anchors entirely relaxes the numeric pin but keeps orderings
    del data["ratio_anchors"]
    CapabilityProfile.from_dict(data).validate()


def test_capability_round_trip():
    cap = default_capability()
    clone = CapabilityProfile.from_dict(cap.to_dict())
    branch = branch_by_label("r101-dense+tf")
    level = CategoryLevel(3, 2, 1)
    assert clone.recall(branch, level) == cap.recall(branch, level)
    assert clone.sigma_pos(branch, level) == cap.sigma_pos(branch, level)
    assert clone.sigma_vel(branch, level) == cap.sigma_vel(branch, level)
    assert clone.sigma_size(branch, level) == cap.sigma_size(branch, level)
    assert clone.fp_rate(branch) == cap.fp_rate(branch)
    assert clone.to_dict() == cap.to_dict()


def test_capability_lookups_follow_the_declared_orderings():
    cap = default_capability()
    sparse = branch_by_label("r50-sparse")
    dense = branch_by_label("r50-dense")
    fused_dense = branch_by_label("r50-dense+tf")
    for d in range(5):
        level = CategoryLevel(d, 1, 1)
        assert cap.sigma_pos(dense, level) < cap.sigma_pos(sparse, level)
        if d:
            prev = CategoryLevel(d - 1, 1, 1)
            assert cap.recall(sparse, level) <= cap.recall(sparse, prev)
    for d in range(5):
        level = CategoryLevel(d, 3, 1)
        assert cap.sigma_vel(fused_dense, level) < cap.sigma_vel(sparse, level)


def test_capability_rejects_tracker_branch():
    cap = default_capability()
    tracker = enumerate_branches()[0]
    with pytest.raises(ValueError):
        cap.recall(tracker, CategoryLevel(0, 0, 0))


# -- synthetic detection ---------------------------------------------------------------


def gt_box(d, speed=0.0, cls=ObjectClass.CAR):
    return Box3D(center=(d, 0.0, 0.8), size=(1.9, 1.6, 4.5),
                 velocity=(0.0, speed, 0.0), yaw=0.0, cls=cls, confidence=1.0)


def test_synth_detect_recall_matches_profile():
    # bundled-profile anchor: an r34 detector sees a far (D3) object with
    # probability 0.20; the empirical rate over 10k draws must land within
    # +/- 2 points
    cap = default_capability()
    branch = branch_by_label("r34-sparse")
    gt = gt_box(35.0)
    assert categorize(gt).distance_level == 3
    rng = rng_stream(0, "recall-test")
    sector = CameraRig.default().sectors[0]
    hits = sum(
        1 for _ in range(10_000)
        if any(d.cls is ObjectClass.CAR for d in synth_detect(branch, [gt], cap, rng, sector))
    )
    # FP cars inside the sector are rare enough not to break the tolerance,
    # but exclude them anyway by counting detections near the object
    assert cap.recall(branch, categorize(gt)) == pytest.approx(0.20)
    assert hits / 10_000 == pytest.approx(0.20, abs=0.02)


def test_synth_detect_perfect_capability_is_exact():
    cap = perfect_capability()
    branch = branch_by_label("r152-dense+tf")
    gts = [gt_box(10.0), gt_box(30.0, speed=3.0)]
    rng = rng_stream(1, "perfect")
    out = synth_detect(branch, gts, cap, rng, CameraRig.default().sectors[0])
    assert len(out) == 2
    for got, want in zip(out, gts):
        assert got.center == want.center
        assert got.velocity == want.velocity
        assert got.size == want.size
        assert got.cls is want.cls


def test_synth_detect_noise_scales_with_profile():
    cap = default_capability()
    branch = branch_by_label("r34-sparse")
    gt = gt_box(45.0)  # farthest distance level: largest sigma
    level = categorize(gt)
    rng = rng_stream(2, "noise")
    sector = CameraRig.default().sectors[0]
    errs = []
    for _ in range(4000):
        for d in synth_detect(branch, [gt], cap, rng, sector):
            if d.cls is ObjectClass.CAR and math.hypot(d.center[0] - 45.0, d.center[1]) < 3.0:
                errs.append((d.center[0] - 45.0, d.center[1] - 0.0))
    errs = np.asarray(errs)
    assert len(errs) > 150
    sigma = cap.sigma_pos(branch, level)
    assert errs[:, 0].std() == pytest.approx(sigma, rel=0.15)
    assert errs[:, 1].std() == pytest.approx(sigma, rel=0.15)


def test_synth_detect_false_positive_rate():
    cap = default_capability()
    branch = branch_by_label("r34-sparse")
    rng = rng_stream(3, "fp")
    sector = CameraRig.default().sectors[0]
    n = 20_000
    total_fp = sum(len(synth_detect(branch, [], cap, rng, sector)) for _ in range(n))
    assert total_fp / n == pytest.approx(cap.fp_rate(branch), abs=0.01)


def test_synth_detect_false_positives_stay_in_sector():
    cap = default_capability()
    branch = branch_by_label("r34-sparse")
    rng = rng_stream(4, "fp-sector")
    rig = CameraRig.default()
    lo, hi = rig.sectors[2]
    for _ in range(2000):
        for d in synth_detect(branch, [], cap, rng, (lo, hi), max_range_m=60.0):
            assert rig.view_of_angle(math.atan2(d.center[1], d.center[0])) == 2
            assert d.planar_distance <= 60.0 + 1e-9


def test_synth_detect_rejects_tracker():
    with pytest.raises(ValueError):
        synth_detect(enumerate_branches()[0], [], default_capability(),
                     rng_stream(0, "x"), (-0.5, 0.5))


# -- realized latency -------------------------------------------------------------------


def test_realized_latency_deterministic_sum():
    device = default_device_profile()
    branches = enumerate_branches()
    from viewsched.branches import branch_latency, fixed_latency
    # two views on branch 3, one on branch 7, three on the tracker
    rows = [3, 3, 7, 0, 0, 0]
    got = realized_latency(rows, branches, device, update_ms=1.4, alpha=1.0,
                           sigma=0.0, rng=None)
    want = fixed_latency(device) + 2 * branch_latency(branches[3], device) \
        + branch_latency(branches[7], device) + 1.4
    assert got == pytest.approx(want, abs=1e-12)


def test_realized_latency_noise_is_multiplicative_and_seeded():
    device = default_device_profile()
    branches = enumerate_branches()
    rows = [1, 1, 1, 1, 1, 1]
    base = realized_latency(rows, branches, device, 1.0, 1.0, 0.0, None)
    a = realized_latency(rows, branches, device, 1.0, 1.0, 0.05, rng_stream(9, "latnoise"))
    b = realized_latency(rows, branches, device, 1.0, 1.0, 0.05, rng_stream(9, "latnoise"))
    assert a == b  # same stream, same value
    assert a != base
    assert a == pytest.approx(base, rel=0.5)  # lognormal sigma=0.05 stays near 1


def test_realized_latency_sigma_zero_consumes_no_randomness():
    device = default_device_profile()
    branches = enumerate_branches()
    rng = rng_stream(9, "latnoise")
    realized_latency([1, 0, 0, 0, 0, 0], branches, device, 1.0, 1.0, 0.0, rng)
    untouched = rng_stream(9, "latnoise")
    assert rng.random() == untouched.random()


# -- closed loop ----------------------------------------------------------------------


def tiny_system(policy_needs=None, **overrides):
    device = default_device_profile()
    defaults = dict(
        branches=enumerate_branches()[:6],
        device=device,
        capability=default_capability(),
        models=None,
        target_ms=50.0,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def test_run_episode_fixed_policy_structure():
    cfg = small_scenario(duration_s=2.0)
    system = tiny_system()
    ep = run_episode(cfg, system, policy="fixed:3")
    assert len(ep.frames) == cfg.frame_count
    assert ep.frames[0].warmup and not any(f.warmup for f in ep.frames[1:])
    n_views = system.rig.view_count
    for f in ep.frames[1:]:
        assert f.assignment == (3,) * n_views
        assert f.actual_ms > 0.0
    assert ep.policy == "fixed:3"
    assert set(ep.summary) >= {"mAP", "mATE", "mAVE", "DS", "latency"}
    lat = ep.summary["latency"]
    assert lat["frames"] == cfg.frame_count
    assert lat["scheduled_frames"] == cfg.frame_count - 1
    assert 0.0 <= lat["compliance"] <= 1.0


def test_run_episode_is_deterministic():
    cfg = small_scenario(duration_s=2.0)
    a = run_episode(cfg, tiny_system(), policy="round_robin")
    b = run_episode(cfg, tiny_system(), policy="round_robin")
    for fa, fb in zip(a.frames, b.frames):
        assert fa.assignment == fb.assignment
        assert fa.actual_ms == fb.actual_ms
        assert fa.outputs == fb.outputs
        assert fa.track_ids == fb.track_ids


def test_run_episode_all_tracker_never_detects():
    cfg = small_scenario(duration_s=1.5)
    ep = run_episode(cfg, tiny_system(), policy="all_tracker")
    for f in ep.frames[1:]:
        assert all(idx == 0 for idx in f.assignment)
        assert all(len(v) == 0 for v in f.detections)
    # warmup frame detected, so tracks exist and keep being forecast
    assert any(len(f.outputs) > 0 for f in ep.frames[1:])
    # no view is observed after the warmup: no miss is charged, no track dies
    assert all(f.track_ids == ep.frames[1].track_ids for f in ep.frames[1:])


def test_run_episode_round_robin_rests_views_on_tracker():
    cfg = small_scenario(duration_s=3.0)
    ep = run_episode(cfg, tiny_system(), policy="round_robin")
    rows = np.array([f.assignment for f in ep.frames[1:]])
    assert (rows == 0).any(), "round robin must produce tracker-served views"
    assert (rows != 0).any(), "round robin must produce detector-served views"
    # every deployed detection branch appears somewhere
    seen = set(rows.flatten().tolist())
    assert {1, 2, 3, 4, 5} <= seen


def test_run_episode_validates_policy_and_models():
    cfg = small_scenario(duration_s=1.0)
    with pytest.raises(ValueError):
        run_episode(cfg, tiny_system(), policy="nonsense")
    with pytest.raises(ValueError):
        run_episode(cfg, tiny_system(), policy="adaptive")  # no models
    with pytest.raises(ValueError):
        run_episode(cfg, tiny_system(), policy="fixed:16")  # not deployed


def test_run_episode_deterministic_latency_is_compliant():
    # with zero noise the fixed-branch latency profile is exact, so a roomy
    # target must be met on every scheduled frame
    cfg = small_scenario(duration_s=2.0)
    ep = run_episode(cfg, tiny_system(target_ms=200.0), policy="fixed:5")
    assert ep.compliance == 1.0


def test_run_episode_warmup_uses_heaviest_deployed_branch():
    cfg = small_scenario(duration_s=1.0)
    system = tiny_system()
    ep = run_episode(cfg, system, policy="all_tracker")
    # heaviest of the deployed set (tracker + indices 1..5) is branch 5
    assert ep.frames[0].assignment == (5,) * system.rig.view_count


@pytest.mark.parametrize("policy", ["adaptive", "per_frame"])
def test_run_episode_logs_the_plan_it_ran(quickstart_manifest, quickstart_trained, policy):
    man = quickstart_manifest
    system = SystemConfig(branches=adapt(man.device, man.target_ms), device=man.device,
                          capability=man.capability, models=quickstart_trained[0],
                          target_ms=man.target_ms)
    ep = run_episode(man.scenario, system, policy=policy)
    lats = np.array([branch_latency(b, man.device) for b in system.branches])
    row_of = {b.index: r for r, b in enumerate(system.branches)}
    for f in ep.scheduled_frames:
        rows = [row_of[i] for i in f.assignment]
        assert f.predicted_marginal_ms == assignment_latency(rows, lats, system.alpha)
        assert f.predicted_frame_ms == (
            f.predicted_marginal_ms + fixed_latency(man.device) + f.update_pred_ms
        )
        if policy == "per_frame":
            assert len(set(f.assignment)) == 1
            assert f.predicted_objective == f.uniform_objective


@pytest.mark.parametrize("policy", ["adaptive", "round_robin"])
def test_run_episode_forecasts_once_per_frame(monkeypatch, policy):
    original = tracker.forecast_all
    forecast_sizes = []

    def counting(tracks, dt, model):
        forecast_sizes.append(len(tracks))
        return original(tracks, dt, model)

    for module in (tracker, scheduler, simulator):
        monkeypatch.setattr(module, "forecast_all", counting)
    constant = PerformanceModels(
        accuracy=GBRTModel.from_dict({"version": 1, "kind": "gbrt", "n_features": FEATURE_WIDTH,
                                      "base_score": 0.5, "learning_rate": 0.1, "trees": []}),
        update_latency=LinearLatencyModel(0.05, 1.0),
    )
    ep = run_episode(small_scenario(duration_s=1.5), tiny_system(models=constant), policy=policy)
    assert len(forecast_sizes) == len(ep.frames)
    # the warmup frame forecasts no tracks; later frames forecast live ones
    assert forecast_sizes[0] == 0 and all(forecast_sizes[1:])


def test_run_episode_places_views_once_per_frame(monkeypatch):
    original = core.views_of
    calls = []

    def counting(rows, rig):
        calls.append(len(rows))
        return original(rows, rig)

    for module in (scheduler, simulator, tracker):
        if hasattr(module, "views_of"):
            monkeypatch.setattr(module, "views_of", counting)
    ep = run_episode(small_scenario(duration_s=1.5), tiny_system(), policy="round_robin")
    assert len(calls) == len(ep.frames)


def test_system_config_validation():
    device = default_device_profile()
    with pytest.raises(ValueError):
        SystemConfig(branches=enumerate_branches()[1:], device=device,
                     capability=default_capability(), models=None, target_ms=33.0)
    with pytest.raises(ValueError):
        tiny_system(target_ms=0.0)
    with pytest.raises(ValueError):
        tiny_system(sched_margin_ms=50.0)  # must stay below the target
