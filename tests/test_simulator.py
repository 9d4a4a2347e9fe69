"""Scenario generation, synthetic detection, and closed-loop tests."""

import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsched import core, scheduler, simulator, tracker
from viewsched.branches import (
    DeviceProfile,
    adapt,
    branch_by_label,
    branch_latency,
    default_device_profile,
    enumerate_branches,
    fixed_latency,
)
import box_oracles
from box_oracles import Box3D, categorize, to_boxes, to_rows, view_of
from capability_helpers import perfect_capability
from viewsched.core import CameraRig, ObjectClass
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


def test_waypoint_path_walks_every_segment_then_stops():
    # the last point repeats the second: the path must not stop at (10, 0)
    # the first time it passes there
    path = EgoPath(kind="waypoints", speed_mps=1.0,
                   points=((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (10.0, 0.0)))
    for t, want in [(0.0, (0.0, 0.0)), (5.0, (5.0, 0.0)), (10.0, (10.0, 0.0)),
                    (15.0, (10.0, 5.0)), (20.0, (10.0, 10.0)), (25.0, (10.0, 5.0)),
                    (30.0, (10.0, 0.0)), (45.0, (10.0, 0.0))]:
        pose = path.pose_at(t)
        assert (pose.x, pose.y) == want, t
    assert path.pose_at(25.0).yaw == pytest.approx(-math.pi / 2)
    assert path.pose_at(45.0).yaw == pytest.approx(-math.pi / 2)  # heading of the last segment
    clone = EgoPath.from_dict(json.loads(json.dumps(path.to_dict())))
    assert clone == path


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
    with pytest.raises(ValueError):
        small_scenario(duration_s=math.inf)  # no frame count
    with pytest.raises(ValueError):
        small_scenario(duration_s=0.04)  # round(0.4) frames: none
    with pytest.raises(ValueError):  # sums to 1, but a weight is negative
        small_scenario(class_mix={ObjectClass.CAR: 1.38, ObjectClass.TRUCK: -0.38})
    with pytest.raises(ValueError):
        small_scenario(duration_s=1e9)  # 10^10 frames
    with pytest.raises(ValueError):
        small_scenario(duration_s=1e200, fps=1e200)  # a product beyond the float range
    assert small_scenario(duration_s=0.06).frame_count == 1
    longest = small_scenario(duration_s=simulator.MAX_FRAME_COUNT / 10.0)
    assert longest.frame_count == simulator.MAX_FRAME_COUNT
    cfg = small_scenario()
    assert cfg.frame_count == 30  # round(duration * fps)
    assert cfg.dt == pytest.approx(0.1)


def test_scene_size_is_bounded():
    # only the configuration is built here: a scene this size takes hours to generate
    with pytest.raises(ValueError, match="initial count may be at most 1000"):
        small_scenario(initial_count=simulator.MAX_INITIAL_COUNT + 1)
    with pytest.raises(ValueError, match="spawn rate at most 100 per s"):
        small_scenario(spawn_rate_per_s=simulator.MAX_SPAWN_RATE_PER_S * 1.001)
    with pytest.raises(ValueError):
        small_scenario(initial_count=1_000_000)
    largest = small_scenario(initial_count=simulator.MAX_INITIAL_COUNT,
                             spawn_rate_per_s=simulator.MAX_SPAWN_RATE_PER_S)
    assert ScenarioConfig.from_dict(largest.to_dict()) == largest


def test_a_class_that_can_be_drawn_needs_a_speed_range():
    with pytest.raises(ValueError, match="truck has a class_mix weight but no speed range"):
        small_scenario(speed_ranges={ObjectClass.CAR: (0.0, 1.0)})
    # a class with no weight is never drawn, so it needs none
    only_cars = {c: 0.0 for c in ObjectClass} | {ObjectClass.CAR: 1.0}
    small_scenario(class_mix=only_cars, speed_ranges={ObjectClass.CAR: (0.0, 1.0)})


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
        assert to_boxes(fa.gt) == to_boxes(fb.gt)
        assert (fa.ego.x, fa.ego.y, fa.ego.yaw) == (fb.ego.x, fb.ego.y, fb.ego.yaw)


def test_generate_scenario_seed_changes_world():
    a = generate_scenario(small_scenario(seed=5))
    b = generate_scenario(small_scenario(seed=6))
    assert to_boxes(a[0].gt) != to_boxes(b[0].gt)


def test_scenario_frames_are_well_formed():
    cfg = small_scenario(initial_count=10)
    frames = generate_scenario(cfg)
    for k, frame in enumerate(frames):
        assert frame.index == k
        assert frame.ego.t == pytest.approx(k * cfg.dt)
        for b in to_boxes(frame.gt):
            # ego-frame boxes stay within the despawn radius of the ego
            assert b.planar_distance <= cfg.despawn_radius_m + 1e-6
            assert isinstance(b.cls, ObjectClass)
    assert len(frames[0].gt) == 10


def test_scenario_objects_move_between_frames():
    # nothing spawns and nothing leaves the despawn radius in one frame, so
    # row i of both frames is the same object
    frames = generate_scenario(small_scenario(spawn_rate_per_s=0.0))
    f0, f1 = (to_boxes(f.gt) for f in frames[:2])
    assert len(f0) == len(f1) > 0
    moved = 0
    for b0, b1 in zip(f0, f1):
        assert b0.cls is b1.cls
        if b0.planar_speed > 0.5:
            delta = math.hypot(b1.center[0] - b0.center[0],
                               b1.center[1] - b0.center[1])
            if delta > 1e-3:
                moved += 1
    assert moved > 0


# -- capability profiles --------------------------------------------------------------


def test_default_capability_passes_validation():
    cap = default_capability()  # reading checks every constraint; must not raise
    assert cap.canonical["ratio_anchors"] is not None


def test_capability_ordering_violations_are_rejected():
    cap = default_capability()
    data = cap.canonical

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
    data = copy.deepcopy(cap.canonical)
    bad = dict(data)
    anchors = dict(data["ratio_anchors"])
    anchors["recall_far_ratio"] = 5.0  # tables are built for 2.7
    bad["ratio_anchors"] = anchors
    with pytest.raises(CapabilityError):
        CapabilityProfile.from_dict(bad)
    # dropping the anchors entirely relaxes the numeric pin but keeps orderings
    del data["ratio_anchors"]
    CapabilityProfile.from_dict(data)


def test_capability_round_trip():
    cap = default_capability()
    clone = CapabilityProfile.from_dict(cap.canonical)
    branch = branch_by_label("r101-dense+tf")
    d, v, s = 3, 2, 1
    assert clone.row(branch).recall[d] == cap.row(branch).recall[d]
    assert clone.row(branch).sigma_pos[d] == cap.row(branch).sigma_pos[d]
    assert clone.row(branch).sigma_vel[v][d] == cap.row(branch).sigma_vel[v][d]
    assert clone.row(branch).sigma_size[s] == cap.row(branch).sigma_size[s]
    assert clone.row(branch).fp_rate == cap.row(branch).fp_rate
    assert clone.canonical == cap.canonical


def test_capability_lookups_follow_the_declared_orderings():
    cap = default_capability()
    sparse = cap.row(branch_by_label("r50-sparse"))
    dense = cap.row(branch_by_label("r50-dense"))
    fused_dense = cap.row(branch_by_label("r50-dense+tf"))
    for d in range(5):
        assert dense.sigma_pos[d] < sparse.sigma_pos[d]
        if d:
            assert sparse.recall[d] <= sparse.recall[d - 1]
    for d in range(5):
        assert fused_dense.sigma_vel[3][d] < sparse.sigma_vel[3][d]


def test_capability_rejects_tracker_branch():
    cap = default_capability()
    tracker = enumerate_branches()[0]
    with pytest.raises(ValueError):
        cap.row(tracker)
    with pytest.raises(ValueError):
        detect(tracker, [], cap, rng_stream(0, "tracker"), CameraRig.default().sectors[0])


# -- synthetic detection ---------------------------------------------------------------


def detect(branch, gts, cap, rng, sector, **kwargs):
    """`synth_detect` on boxes, passed and returned as box rows."""
    return to_boxes(synth_detect(branch, to_rows(gts), cap, rng, sector, **kwargs))


def gt_box(d, speed=0.0, cls=ObjectClass.CAR):
    return Box3D(center=(d, 0.0, 0.8), size=(1.9, 1.6, 4.5),
                 velocity=(0.0, speed, 0.0), cls=cls, confidence=1.0)


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
        if any(d.cls is ObjectClass.CAR for d in detect(branch, [gt], cap, rng, sector))
    )
    # FP cars inside the sector are rare enough not to break the tolerance,
    # but exclude them anyway by counting detections near the object
    assert cap.row(branch).recall[categorize(gt).distance_level] == pytest.approx(0.20)
    assert hits / 10_000 == pytest.approx(0.20, abs=0.02)


def test_synth_detect_perfect_capability_is_exact():
    cap = perfect_capability()
    branch = branch_by_label("r152-dense+tf")
    gts = [gt_box(10.0), gt_box(30.0, speed=3.0)]
    rng = rng_stream(1, "perfect")
    out = detect(branch, gts, cap, rng, CameraRig.default().sectors[0])
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
        for d in detect(branch, [gt], cap, rng, sector):
            if d.cls is ObjectClass.CAR and math.hypot(d.center[0] - 45.0, d.center[1]) < 3.0:
                errs.append((d.center[0] - 45.0, d.center[1] - 0.0))
    errs = np.asarray(errs)
    assert len(errs) > 150
    sigma = cap.row(branch).sigma_pos[level.distance_level]
    assert errs[:, 0].std() == pytest.approx(sigma, rel=0.15)
    assert errs[:, 1].std() == pytest.approx(sigma, rel=0.15)


def test_synth_detect_false_positive_rate():
    cap = default_capability()
    branch = branch_by_label("r34-sparse")
    rng = rng_stream(3, "fp")
    sector = CameraRig.default().sectors[0]
    n = 20_000
    total_fp = sum(len(detect(branch, [], cap, rng, sector)) for _ in range(n))
    assert total_fp / n == pytest.approx(cap.row(branch).fp_rate, abs=0.01)


def test_synth_detect_false_positives_stay_in_sector():
    cap = default_capability()
    branch = branch_by_label("r34-sparse")
    rng = rng_stream(4, "fp-sector")
    rig = CameraRig.default()
    lo, hi = rig.sectors[2]
    for _ in range(2000):
        for d in detect(branch, [], cap, rng, (lo, hi), max_range_m=60.0):
            assert view_of(d.center, rig) == 2
            assert d.planar_distance <= 60.0 + 1e-9


def test_synth_detect_rejects_tracker():
    with pytest.raises(ValueError):
        detect(enumerate_branches()[0], [], default_capability(),
                     rng_stream(0, "x"), (-0.5, 0.5))


_CLIP = ConfidenceParams(clip_lo=0.05, clip_hi=0.999)


@settings(max_examples=200, deadline=None)
@given(
    mean=st.sampled_from([0.05, 0.999, 0.0499, 0.9991, 0.5, -1.0, 2.0, math.nan, -math.inf,
                          math.inf]),
    sd=st.sampled_from([0.0, 1e-9, 0.12, 5.0]),
    seed=st.integers(0, 2**16),
)
def test_confidence_draws_and_clips_as_np_clip(mean, sd, seed):
    # the same draw from the same stream, clipped to the same value, NaN included
    got_rng, want_rng = rng_stream(seed, "conf"), rng_stream(seed, "conf")
    got = simulator._confidence(got_rng, mean, sd, _CLIP)
    want = float(np.clip(want_rng.normal(mean, sd) if sd > 0 else mean,
                         _CLIP.clip_lo, _CLIP.clip_hi))
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert got_rng.random() == want_rng.random()


# -- realized latency -------------------------------------------------------------------


def _catalog_latencies(device):
    return np.array([branch_latency(b, device) for b in enumerate_branches()])


def test_realized_latency_deterministic_sum():
    device = default_device_profile()
    lats = _catalog_latencies(device)
    # two views on branch 3, one on branch 7, three on the tracker
    marginal = assignment_latency([3, 3, 7, 0, 0, 0], lats, 1.0)
    got = realized_latency(marginal, fixed_latency(device), update_ms=1.4, sigma=0.0, rng=None)
    want = fixed_latency(device) + 2 * lats[3] + lats[7] + 1.4
    assert got == pytest.approx(want, abs=1e-12)


def test_realized_latency_noise_is_multiplicative_and_seeded():
    device = default_device_profile()
    marginal = assignment_latency([1] * 6, _catalog_latencies(device), 1.0)
    fixed_ms = fixed_latency(device)
    base = realized_latency(marginal, fixed_ms, 1.0, 0.0, None)
    a = realized_latency(marginal, fixed_ms, 1.0, 0.05, rng_stream(9, "latnoise"))
    b = realized_latency(marginal, fixed_ms, 1.0, 0.05, rng_stream(9, "latnoise"))
    assert a == b  # same stream, same value
    assert a != base
    assert a == pytest.approx(base, rel=0.5)  # lognormal sigma=0.05 stays near 1


def test_realized_latency_sigma_zero_consumes_no_randomness():
    device = default_device_profile()
    marginal = assignment_latency([1, 0, 0, 0, 0, 0], _catalog_latencies(device), 1.0)
    rng = rng_stream(9, "latnoise")
    realized_latency(marginal, fixed_latency(device), 1.0, 0.0, rng)
    untouched = rng_stream(9, "latnoise")
    assert rng.random() == untouched.random()


@st.composite
def _priced_assignments(draw):
    lats = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=17))
    rows = draw(st.lists(st.integers(0, len(lats) - 1), min_size=0, max_size=8))
    return rows, np.array(lats)


@settings(max_examples=200, deadline=None)
@given(
    _priced_assignments(),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
)
def test_realized_latency_without_noise_is_the_planner_price(priced, alpha, fixed_ms, update_ms):
    rows, lats = priced
    marginal = assignment_latency(rows, lats, alpha)
    got = realized_latency(marginal, fixed_ms, update_ms, 0.0, rng_stream(0, "latnoise"))
    assert got == marginal + fixed_ms + update_ms


# -- closed loop ----------------------------------------------------------------------


def tiny_system(**overrides):
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


def constant_models():
    """Predictors that rate every cell 0.5, for policies that need models."""
    return PerformanceModels(
        accuracy=GBRTModel.from_dict({"version": 1, "kind": "gbrt", "n_features": FEATURE_WIDTH,
                                      "base_score": 0.5, "learning_rate": 0.1, "trees": []}),
        update_latency=LinearLatencyModel(0.05, 1.0),
    )


TINY_DEPLOYED = tuple(b.index for b in enumerate_branches()[:6])  # tiny_system's branches


def every_policy(deployed):
    """Each entry of the policy table; a prefix entry once per deployed index."""
    for name in simulator.POLICIES:
        yield from ([f"{name}{i}" for i in deployed] if name.endswith(":") else [name])


@pytest.mark.parametrize(
    "scene", [dict(initial_count=0, spawn_rate_per_s=0.0), {}], ids=["empty", "populated"]
)
@pytest.mark.parametrize("policy", list(every_policy(TINY_DEPLOYED)))
def test_every_policy_runs_deployed_branches_at_the_planner_price(policy, scene):
    system = tiny_system(models=constant_models())
    ep = run_episode(small_scenario(duration_s=1.0, **scene), system, policy=policy)
    lats = np.array([branch_latency(b, system.device) for b in system.branches])
    heaviest = system.branches[scheduler.most_powerful_row(lats)].index
    assert ep.frames[0].assignment == (heaviest,) * CameraRig.default().view_count
    true_update = simulator.true_update_model(system.device)
    for f in ep.frames:
        assert set(f.assignment) <= set(TINY_DEPLOYED)
        assert f.actual_ms == (
            f.predicted_marginal_ms + fixed_latency(system.device)
            + true_update.predict(len(f.forecast.boxes))
        )
    if not scene:
        assert any(len(f.forecast.boxes) for f in ep.frames[1:])


def test_run_episode_fixed_policy_structure():
    cfg = small_scenario(duration_s=2.0)
    system = tiny_system()
    ep = run_episode(cfg, system, policy="fixed:3")
    assert len(ep.frames) == cfg.frame_count
    assert len(ep.scheduled_frames) == len(ep.frames) - 1
    assert all(s is f for s, f in zip(ep.scheduled_frames, ep.frames[1:]))
    n_views = CameraRig.default().view_count
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
        assert to_boxes(fa.outputs) == to_boxes(fb.outputs)
        assert to_boxes(fa.forecast.boxes) == to_boxes(fb.forecast.boxes)


def test_run_episode_all_tracker_never_detects():
    cfg = small_scenario(duration_s=1.5)
    ep = run_episode(cfg, tiny_system(), policy="all_tracker")
    for f in ep.frames[1:]:
        assert all(idx == 0 for idx in f.assignment)
        assert to_boxes(f.outputs) == to_boxes(f.forecast.boxes)  # no detection joins them
    # warmup frame detected, so tracks exist and keep being forecast
    assert any(len(f.outputs) > 0 for f in ep.frames[1:])
    # no view is observed after the warmup: no miss is charged, no track dies
    first = ep.frames[1].forecast.boxes.confidences
    assert all(np.array_equal(f.forecast.boxes.confidences, first) for f in ep.frames[1:])


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
    for bad in ("fixed:16", "fixed:x", "fixed:", "fixed", "adaptive:1"):  # 16 is not deployed
        with pytest.raises(ValueError):
            run_episode(cfg, tiny_system(), policy=bad)


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
    assert ep.frames[0].assignment == (5,) * CameraRig.default().view_count


def test_run_episode_warmup_breaks_a_latency_tie_like_the_score_reference():
    # a free fusion module ties r34-sparse (index 1) with r34-sparse+tf (2);
    # the warmup takes the row `scheduler.most_powerful_row` normalizes
    # scores against, where ties go to the higher row
    data = copy.deepcopy(default_device_profile().canonical)
    next(m for m in data["modules"] if m["name"] == "temporal_fusion")["latency_ms"] = 0.0
    device = DeviceProfile.from_dict(data)
    branches = enumerate_branches()[:3]
    lats = np.array([branch_latency(b, device) for b in branches])
    assert lats[1] == lats[2] == lats.max()
    assert scheduler.most_powerful_row(lats) == 2
    system = tiny_system(branches=branches, device=device)
    ep = run_episode(small_scenario(duration_s=0.5), system, policy="all_tracker")
    assert ep.frames[0].assignment == (2,) * CameraRig.default().view_count


@pytest.mark.parametrize("policy,empty", [("round_robin", False), ("all_tracker", False),
                                          ("round_robin", True)])
def test_episode_summary_equals_the_per_frame_oracle(quickstart_manifest, policy, empty):
    # the episode is scored once, at its end; its summary must be the one the
    # per-frame oracle gives, frame by frame, on the scene's ground truth
    man = quickstart_manifest
    scenario = dataclasses.replace(man.scenario, duration_s=2.0)
    if empty:  # the scene starts with no object; spawns fill it
        scenario = dataclasses.replace(scenario, initial_count=0)
    system = SystemConfig(branches=adapt(man.device, man.target_ms), device=man.device,
                          capability=man.capability, models=None, target_ms=man.target_ms)
    ep = run_episode(scenario, system, policy=policy)
    frames = generate_scenario(scenario)
    assert (len(frames[0].gt) == 0) == empty and len(frames[-1].gt) > 0
    oracle = [box_oracles.evaluate_frame(log.outputs, frame.gt)
              for log, frame in zip(ep.frames, frames)]
    want = box_oracles.summarize(oracle)
    want["latency"] = ep.summary["latency"]
    assert json.dumps(ep.summary).encode() == json.dumps(want).encode()


def quickstart_system(man, models, **overrides):
    return SystemConfig(branches=adapt(man.device, man.target_ms), device=man.device,
                        capability=man.capability, models=models, target_ms=man.target_ms,
                        **overrides)


def planning_bytes(forecast):
    """All the planner reads of a forecast, byte for byte."""
    return (forecast.distributions.tobytes(), forecast.views.tobytes(),
            forecast.boxes.confidences.tobytes())


def spy_on_planner(monkeypatch):
    """The forecasts `run_episode` hands `schedule_frame`, in order."""
    planned = []
    schedule_frame = simulator.schedule_frame

    def spy(forecast, *args):
        planned.append(forecast)
        return schedule_frame(forecast, *args)

    monkeypatch.setattr(simulator, "schedule_frame", spy)
    return planned


@pytest.mark.parametrize("policy", ["adaptive", "per_frame"])
def test_run_episode_logs_the_plan_it_ran(monkeypatch, quickstart_manifest, quickstart_trained,
                                          policy):
    man = quickstart_manifest
    system = quickstart_system(man, quickstart_trained[0])
    planned = spy_on_planner(monkeypatch)
    ep = run_episode(man.scenario, system, policy=policy)
    # the planner runs exactly on the scheduled frames whose planning inputs
    # differ from the previous scheduled frame's, and the frame log keeps the
    # very forecast each of them planned on
    inputs = [planning_bytes(f.forecast) for f in ep.scheduled_frames]
    replans = [now != before for now, before in zip(inputs, [None, *inputs])]
    replanned = list(itertools.compress(ep.scheduled_frames, replans))
    assert len(planned) == len(replanned) < len(ep.scheduled_frames)
    assert all(f.forecast is p for f, p in zip(replanned, planned))
    # every other frame reuses the last plan: its forecast's planning inputs
    # equal the planned forecast's byte for byte, and it runs the same plan
    for f, replan in zip(ep.scheduled_frames, replans):
        if replan:
            last = f
            continue
        assert planning_bytes(f.forecast) == planning_bytes(last.forecast)
        assert (f.assignment, f.predicted_objective, f.uniform_objective, f.t_max_ms) == (
            last.assignment, last.predicted_objective, last.uniform_objective, last.t_max_ms)
    lats = np.array([branch_latency(b, man.device) for b in system.branches])
    row_of = {b.index: r for r, b in enumerate(system.branches)}
    true_update = LinearLatencyModel(man.device.update_slope_ms_per_track,
                                     man.device.update_intercept_ms)
    for f in ep.scheduled_frames:
        rows = [row_of[i] for i in f.assignment]
        assert f.predicted_marginal_ms == assignment_latency(rows, lats, system.alpha)
        assert f.predicted_frame_ms == (
            f.predicted_marginal_ms + fixed_latency(man.device)
            + system.models.update_latency.predict(len(f.forecast.boxes))
        )
        assert f.actual_ms == (
            f.predicted_marginal_ms + fixed_latency(man.device)
            + true_update.predict(len(f.forecast.boxes))
        )
        if policy == "per_frame":
            assert len(set(f.assignment)) == 1
            assert f.predicted_objective == f.uniform_objective


def test_a_plan_depends_on_its_planning_inputs_alone(quickstart_manifest, quickstart_trained):
    # the contract plan reuse rests on: the planner reads a forecast's
    # distributions, views and confidences, and nothing else of it
    man = quickstart_manifest
    system = quickstart_system(man, quickstart_trained[0])
    ep = run_episode(man.scenario, system, policy="adaptive")
    fc = max((f.forecast for f in ep.scheduled_frames), key=lambda fc: len(fc.boxes))
    boxes = fc.boxes
    scrambled = scheduler.FrameForecast(
        core.BoxRows(np.full_like(boxes.rows, np.nan), (boxes.classes + 1) % len(core.CLASSES),
                     boxes.confidences),
        fc.views, fc.distributions)

    def plan(forecast):
        return scheduler.schedule_frame(forecast, system.branches, system.device, system.models,
                                        system.target_ms, system.alpha)

    assert plan(scrambled) == plan(fc)
    # and the loop's key tells apart forecasts that differ in any of the three
    key = simulator.planning_inputs(fc)
    assert simulator.planning_inputs(scrambled) == key
    changed = [
        dataclasses.replace(fc, distributions=fc.distributions[::-1].copy()),
        dataclasses.replace(fc, views=(fc.views + 1) % CameraRig.default().view_count),
        dataclasses.replace(
            fc, boxes=dataclasses.replace(boxes, confidences=boxes.confidences / 2)),
    ]
    assert all(simulator.planning_inputs(other) != key for other in changed)


@pytest.mark.parametrize("policy", ["adaptive", "per_frame"])
@pytest.mark.parametrize("timing", [{}, dict(latency_noise_sigma=0.2, sched_margin_ms=4.0)],
                         ids=["quickstart", "noisy_margin"])
def test_every_scheduled_frame_logs_what_a_fresh_plan_gives(quickstart_manifest,
                                                            quickstart_trained, policy, timing):
    # re-planning every scheduled frame from its logged forecast gives what
    # the frame logged, bit for bit, whether the loop planned it or reused a plan
    man = quickstart_manifest
    system = quickstart_system(man, quickstart_trained[0], **timing)
    ep = run_episode(man.scenario, system, policy=policy)
    lats = np.array([branch_latency(b, man.device) for b in system.branches])
    for f in ep.scheduled_frames:
        plan = scheduler.schedule_frame(f.forecast, system.branches, system.device,
                                        system.models, system.target_ms - system.sched_margin_ms,
                                        system.alpha)
        decision = plan.uniform_decision if policy == "per_frame" else plan.decision
        rows = list(decision.assignment) if decision else [0] * len(f.forecast.distributions)
        marginal = assignment_latency(rows, lats, system.alpha)
        assert f.assignment == tuple(system.branches[r].index for r in rows)
        assert f.predicted_objective == (decision.predicted_objective if decision else None)
        assert f.uniform_objective == (
            plan.uniform_decision.predicted_objective if plan.uniform_decision else None)
        assert f.t_max_ms == plan.t_max_ms
        assert f.predicted_frame_ms == marginal + fixed_latency(man.device) + plan.update_pred_ms


def test_an_empty_scene_plans_once_and_rotates_every_frame(monkeypatch):
    # no object ever exists and the detector makes no false positive, so every
    # scheduled frame's forecast is the same empty one
    scenario = small_scenario(duration_s=2.0, initial_count=0, spawn_rate_per_s=0.0)
    system = tiny_system(models=constant_models(), capability=perfect_capability())
    planned = spy_on_planner(monkeypatch)
    ep = run_episode(scenario, system, policy="adaptive")
    assert all(len(f.forecast.boxes) == 0 for f in ep.frames)
    assert len(planned) == 1 and planned[0] is ep.scheduled_frames[0].forecast
    assert len({f.assignment for f in ep.scheduled_frames}) == 1
    # a planless chooser is asked on every frame: the rotation follows the index
    ep = run_episode(scenario, system, policy="round_robin")
    rotate = simulator.POLICIES["round_robin"].choose
    for f in ep.scheduled_frames:
        rows, _, _ = rotate(system, f.index, f.forecast)
        assert f.assignment == tuple(system.branches[r].index for r in rows)
    assert len({f.assignment for f in ep.scheduled_frames}) > 1
    assert len(planned) == 1


@pytest.mark.parametrize("policy", ["adaptive", "round_robin"])
def test_run_episode_forecasts_once_per_frame(monkeypatch, policy):
    original = tracker.forecast_all
    forecast_sizes = []

    def counting(tracks, dt, model):
        forecast_sizes.append(len(tracks))
        return original(tracks, dt, model)

    for module in (tracker, scheduler, simulator):
        monkeypatch.setattr(module, "forecast_all", counting)
    system = tiny_system(models=constant_models())
    ep = run_episode(small_scenario(duration_s=1.5), system, policy=policy)
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
    scenario = small_scenario(duration_s=1.5)
    ep = run_episode(scenario, tiny_system(), policy="round_robin")
    # each frame places its forecast's rows once, then its ground truth's once
    want = [
        n
        for log, frame in zip(ep.frames, generate_scenario(scenario))
        for n in (len(log.forecast.boxes), len(frame.gt))
    ]
    assert calls == want


def same_boxes(a, b):
    return all(np.array_equal(getattr(a, column), getattr(b, column))
               for column in ("rows", "classes", "confidences"))


@pytest.mark.parametrize("policy", ["adaptive", "round_robin", "all_tracker"])
def test_frame_log_splits_its_ground_truth_by_view(policy):
    scenario = small_scenario(duration_s=1.5)
    rig = CameraRig.default()
    ep = run_episode(scenario, tiny_system(models=constant_models()), policy=policy)
    for log, frame in zip(ep.frames, generate_scenario(scenario)):
        # the log keeps the scene's ground truth, in the scene's order
        assert same_boxes(log.gt, frame.gt)
        want = log.gt.by_view(core.views_of(log.gt.rows, rig), rig.view_count)
        assert len(log.gt_by_view) == len(want)
        assert all(map(same_boxes, log.gt_by_view, want))
        assert log.gt_by_view is log.gt_by_view  # split once


@pytest.mark.parametrize("deployed", [1, 6], ids=["tracker_only", "tiny"])
def test_ground_truth_is_split_only_where_a_detector_runs(monkeypatch, deployed):
    original = simulator.views_of
    calls = []

    def counting(rows, rig):
        calls.append(len(rows))
        return original(rows, rig)

    monkeypatch.setattr(simulator, "views_of", counting)
    scenario = small_scenario(duration_s=1.5)
    system = tiny_system(branches=enumerate_branches()[:deployed])
    ep = run_episode(scenario, system, policy="all_tracker")
    # only the warm-up frame can run a detector: the heaviest deployed branch,
    # which is the tracker when it is the only one
    frames = generate_scenario(scenario)
    assert calls == ([] if deployed == 1 else [len(frames[0].gt)])
    # a frame with no detector emits its forecast as it is
    assert all(log.outputs is log.forecast.boxes for log in ep.frames[deployed > 1:])


def test_system_config_validation():
    device = default_device_profile()
    with pytest.raises(ValueError):
        SystemConfig(branches=enumerate_branches()[1:], device=device,
                     capability=default_capability(), models=None, target_ms=33.0)
    with pytest.raises(ValueError):
        tiny_system(target_ms=0.0)
    with pytest.raises(ValueError):
        tiny_system(sched_margin_ms=50.0)  # must stay below the target
    with pytest.raises(ValueError, match="at most 10"):
        tiny_system(latency_noise_sigma=10.5)  # exp(sigma * z) could overflow
    assert tiny_system(latency_noise_sigma=10.0).latency_noise_sigma == 10.0
