"""Acceptance gate: one test per criterion, reported as one line each.

Run `pytest -v tests/test_acceptance.py` — each criterion shows up as a
single PASSED/FAILED line, and the session summary repeats the verdicts
(see conftest.py).
"""

import dataclasses
import json
import math
import statistics
import time

import numpy as np
import pytest

from track_helpers import fold, track_frame
from viewsched.branches import branch_by_label, default_device_profile, enumerate_branches
from viewsched.cli import main
from viewsched.core import (
    CLASSES,
    BoxRows,
    CameraRig,
    EgoPose,
    ObjectClass,
    category_levels,
    concat_boxes,
)
from viewsched.metrics import (
    EvalConfig,
    average_precision,
    detection_score,
    evaluate_frame,
    evaluate_pairs,
    summarize,
)
from viewsched.predictors import GBRTParams, fit_update_latency, train_gbrt
from viewsched.scheduler import (
    InfeasibleError,
    ScheduleProblem,
    sched,
    solve,
    solve_bruteforce,
)
from viewsched.simulator import (
    SystemConfig,
    default_capability,
    rng_stream,
    run_episode,
    synth_detect,
)
from viewsched.tracker import (
    KalmanModel,
    MultiObjectTracker,
    TrackerConfig,
    TrackState,
    TrackTable,
    forecast_all,
)


def car(x, y, vx=0.0, vy=0.0, conf=1.0, z=0.8):
    """One car, as box rows."""
    return BoxRows.of([[x, y, z, vx, vy, 0.0, 1.9, 1.6, 4.5]], [CLASSES.index(ObjectClass.CAR)],
                      [conf])


# -- criterion 1: solver exactness ----------------------------------------------


def test_criterion_1_solver_exactness():
    """200 seeded assignment instances: the DP solver must equal exhaustive
    enumeration in objective and tie-broken assignment, in under 5 seconds."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    solved = 0
    start = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(2, 7))   # M <= 6
        n = int(rng.integers(1, 5))   # N <= 4
        scores = rng.integers(0, 1025, size=(m, n)) / 1024.0  # dyadic: exact sums
        lats = rng.integers(0, 51, size=m) / 10.0             # on the 0.1 ms grid
        if rng.random() < 0.7:
            lats[0] = 0.0
        budget = float(rng.integers(0, 121)) / 10.0
        problem = ScheduleProblem(scores, lats, budget)
        try:
            got = solve(problem)
        except InfeasibleError:
            try:
                solve_bruteforce(problem)
            except InfeasibleError:
                continue
            mismatches += 1
            continue
        want = solve_bruteforce(problem)
        solved += 1
        if got.assignment != want.assignment or got.predicted_objective != want.predicted_objective:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert solved >= 100  # the generator must actually exercise the solver
    assert elapsed < 5.0


# -- criterion 2: latency-budget compliance ---------------------------------------


def _compliance_episode(man, models, sigma, margin):
    scenario = dataclasses.replace(man.scenario, seed=11, duration_s=100.1)
    assert scenario.frame_count == 1001  # 1000 scheduled frames + warmup
    from viewsched.branches import adapt

    system = SystemConfig(
        branches=adapt(man.device, man.target_ms),
        device=man.device,
        capability=man.capability,
        models=models,
        target_ms=man.target_ms,
        alpha=man.alpha,
        latency_noise_sigma=sigma,
        sched_margin_ms=margin,
    )
    return run_episode(scenario, system, policy="adaptive")


def test_criterion_2_budget_compliance(quickstart_manifest, quickstart_trained):
    """Deterministic profiles: 100% of scheduled frames within target.
    Lognormal noise sigma=0.05: at least 90% over 1,000 frames."""
    models, _ = quickstart_trained
    man = quickstart_manifest

    exact = _compliance_episode(man, models, sigma=0.0, margin=0.0)
    assert len(exact.scheduled_frames) == 1000
    assert exact.compliance == 1.0

    noisy = _compliance_episode(man, models, sigma=0.05, margin=2.0)
    assert len(noisy.scheduled_frames) == 1000
    assert noisy.compliance >= 0.90


# -- criterion 3: adaptive dominates the per-frame policy -------------------------


def test_criterion_3_per_view_dominance(compare_manifest, compare_trained):
    """Predicted objective of the adaptive decision must beat the best
    uniform (same branch everywhere) decision on every frame of the bundled
    comparison scenario, and the measured detection score must win on at
    least 8 of 10 seeded episodes."""
    models, _ = compare_trained
    man = compare_manifest
    from viewsched.branches import adapt

    def system():
        return SystemConfig(
            branches=adapt(man.device, man.target_ms),
            device=man.device,
            capability=man.capability,
            models=models,
            target_ms=man.target_ms,
            alpha=man.alpha,
        )

    # (a) structural dominance on the bundled scenario, zero violations
    ep = run_episode(man.scenario, system(), policy="adaptive")
    checked = 0
    violations = 0
    for f in ep.scheduled_frames:
        if f.predicted_objective is None or f.uniform_objective is None:
            continue
        checked += 1
        if f.predicted_objective < f.uniform_objective:
            violations += 1
    assert checked == len(ep.scheduled_frames) > 0
    assert violations == 0

    # (b) measured episode quality across ten seeds
    wins = 0
    for seed in range(1000, 1010):
        scenario = dataclasses.replace(man.scenario, seed=seed)
        ds_adaptive = run_episode(scenario, system(), policy="adaptive").summary["DS"]
        ds_uniform = run_episode(scenario, system(), policy="per_frame").summary["DS"]
        wins += ds_adaptive >= ds_uniform
    assert wins >= 8


# -- criterion 4: capability-trend reproduction ------------------------------------


def _mc_map(branch, cap, sector, config, n_frames, seed):
    rng = rng_stream(seed, f"mc-map/{branch.label}")
    world = np.random.default_rng(seed + 1)
    pairs = []
    for _ in range(n_frames):
        d = world.uniform(31.0, 39.0)  # distance level 3 objects
        a = world.uniform(sector[0] + 0.05, sector[1] - 0.05)
        gt = car(d * math.cos(a), d * math.sin(a), vx=0.1)
        levels = category_levels(gt.rows)
        assert levels[0, 0] == 3  # distance level
        pairs.append((synth_detect(branch, gt, cap, rng, sector, levels=levels), gt))
    return summarize(evaluate_pairs(pairs, config))["mAP"]


def _mc_mave(branch, cap, sector, n_frames, seed):
    rng = rng_stream(seed, f"mc-ave/{branch.label}")
    world = np.random.default_rng(seed + 1)
    pairs = []
    for _ in range(n_frames):
        d = world.uniform(12.0, 18.0)
        a = world.uniform(sector[0] + 0.05, sector[1] - 0.05)
        speed = world.uniform(6.0, 12.0)  # velocity level 3 objects
        heading = world.uniform(-math.pi, math.pi)
        gt = car(d * math.cos(a), d * math.sin(a),
                 vx=speed * math.cos(heading), vy=speed * math.sin(heading))
        levels = category_levels(gt.rows)
        assert levels[0, 1] == 3  # velocity level
        pairs.append((synth_detect(branch, gt, cap, rng, sector, levels=levels), gt))
    return summarize(evaluate_pairs(pairs))["mAVE"]


def test_criterion_4_capability_trend_ratios():
    """10k-frame Monte-Carlo against the bundled capability profile: the
    far-object mAP ratio of the R152 family to R34 must land at 2.7 +/- 0.4,
    and the fast-object velocity-error ratio of the plain R50 branch to the
    fused dense one at 2.4 +/- 0.4.

    mAP for the ratio is measured without the low-recall clip
    (EvalConfig(min_recall=0)): with the clip, AP ~ (recall - 0.1)/0.9, which
    inflates a 2.7 recall ratio at these operating points to ~5 regardless
    of the noise tables — the clip is a reporting convention, not part of
    the capability trend the criterion pins down.
    """
    cap = default_capability()
    sector = CameraRig.default().sectors[0]
    unclipped = EvalConfig(min_recall=0.0)
    n = 10_000

    map_r34 = _mc_map(branch_by_label("r34-sparse"), cap, sector, unclipped, n, seed=0)
    map_r152 = _mc_map(branch_by_label("r152-sparse"), cap, sector, unclipped, n, seed=0)
    map_ratio = map_r152 / map_r34
    assert 2.3 <= map_ratio <= 3.1, f"mAP ratio {map_ratio:.3f}"

    ave_plain = _mc_mave(branch_by_label("r50-sparse"), cap, sector, n, seed=1)
    ave_fused = _mc_mave(branch_by_label("r50-dense+tf"), cap, sector, n, seed=1)
    ave_ratio = ave_plain / ave_fused
    assert 2.0 <= ave_ratio <= 2.8, f"mAVE ratio {ave_ratio:.3f}"


# -- criterion 5: tracker correctness ----------------------------------------------


def _newborn(model):
    """A car track just born at the origin, as a one-row table."""
    return TrackTable.of([TrackState(track_id=1, mean=car(0.0, 0.0).rows[0],
                                     covariance=model.birth_cov(), cls=ObjectClass.CAR,
                                     confidence=0.9)])


def test_criterion_5_tracker_properties():
    """Zero-noise convergence by frame 10; covariance stays PSD over 1e5
    random updates; confidence after k straight misses is exactly
    initial * 0.5^k."""
    # tracks are one-row tables, updated by the tracker's own batched update
    # (a) convergence under an ideal detector (tight measurement covariance),
    # starting from a deliberately wrong velocity estimate
    model = KalmanModel(measurement_noise=(0.01,) * 9)
    dt = 0.1
    vx, vy = 4.0, -2.0
    track = _newborn(model)
    for k in range(1, 11):
        x, y = vx * dt * k, vy * dt * k
        track = fold(forecast_all(track, dt, model), car(x, y, vx, vy), model)
    mean = track.means[0]
    assert math.hypot(mean[0] - x, mean[1] - y) < 0.05
    assert math.hypot(mean[3] - vx, mean[4] - vy) < 0.1

    # (b) covariance positive semi-definiteness across 100,000 random steps
    model = KalmanModel()
    rng = np.random.default_rng(99)
    track = _newborn(model)
    worst = np.inf
    for step in range(100_000):
        track = forecast_all(track, float(rng.uniform(0.02, 0.5)), model)
        if rng.random() < 0.7:
            d = car(float(track.means[0, 0] + rng.normal(0, 2.0)),
                    float(track.means[0, 1] + rng.normal(0, 2.0)),
                    float(rng.normal(0, 5.0)), float(rng.normal(0, 5.0)))
            track = fold(track, d, model)
        worst = min(worst, float(np.linalg.eigvalsh(track.covariances[0]).min()))
        if step % 9973 == 0:  # keep the state bounded, explore fresh births
            track = _newborn(model)
    assert worst >= -1e-9

    # (c) exact confidence halving per consecutive miss
    initial = 0.9
    tracker = MultiObjectTracker(TrackerConfig(confidence_threshold=1e-9))
    track_frame(tracker, [car(0.0, 0.0, conf=initial)], 0.1)
    for k in range(1, 21):
        track_frame(tracker, [], 0.1)
        assert tracker.tracks.confidences[0] == initial * 0.5**k


# -- criterion 6: metrics oracle ----------------------------------------------------


def test_criterion_6_metrics_oracle():
    """Hand-computed five-prediction AP case must give 22/27 to 1e-9 and the
    composite-score arithmetic example must give 0.56."""
    gts = concat_boxes([car(0.0, 0.0), car(20.0, 0.0)])
    preds = concat_boxes([
        car(0.0, 0.0, conf=0.9),   # TP  -> recall 0.5, precision 1
        car(40.0, 0.0, conf=0.8),  # FP  -> recall 0.5, precision 1/2
        car(20.0, 0.0, conf=0.7),  # TP  -> recall 1.0, precision 2/3
        car(60.0, 0.0, conf=0.6),  # FP  -> recall 1.0, precision 2/4
        car(80.0, 0.0, conf=0.5),  # FP  -> recall 1.0, precision 2/5
    ])
    # interpolated precision: 1 for r <= 0.5, 2/3 beyond; of the 90 recall
    # grid points above the 0.10 floor, forty read 1 and fifty read 2/3:
    # AP = (40 + 50 * 2/3) / 90 = 22/27
    frame = evaluate_frame(preds, gts)
    ap = average_precision(frame, ObjectClass.CAR, 2.0)
    assert ap == pytest.approx(22.0 / 27.0, abs=1e-9)

    assert detection_score(0.5, 0.4, 0.3) == pytest.approx(0.56, abs=1e-12)


# -- criterion 7: predictor quality ---------------------------------------------------


def test_criterion_7_predictor_quality():
    """The boosted-tree model must fit a linear single-feature target with
    train R^2 >= 0.95; the least-squares latency fit must recover a noiseless
    affine law to 1e-9."""
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, size=(500, 8))
    y = 0.1 + 0.75 * x[:, 4]
    model = train_gbrt(x, y, GBRTParams())
    pred = model.predict_batch(x)
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))
    assert r2 >= 0.95

    counts = np.arange(0, 40)
    lats = 0.8 + 0.042 * counts
    fit = fit_update_latency(counts, lats)
    assert fit.intercept_ms == pytest.approx(0.8, abs=1e-9)
    assert fit.slope_ms_per_track == pytest.approx(0.042, abs=1e-9)


# -- criterion 8: determinism ----------------------------------------------------------


def test_criterion_8_byte_identical_runs(tmp_path, quickstart_trained):
    """Two simulate runs from the same manifest must produce byte-identical
    reports."""
    models, info = quickstart_trained
    model_path = tmp_path / "models.json"
    models.save(str(model_path), training_info=info)
    manifest = {
        "name": "determinism",
        "scenario": "builtin:scenario_quickstart",
        "device": "builtin:device_orin",
        "capability": "builtin:capability_default",
        "model": str(model_path),
        "target_ms": 33.0,
    }
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps(manifest))

    out_a = tmp_path / "run_a.json"
    out_b = tmp_path / "run_b.json"
    assert main(["simulate", "--manifest", str(man_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--manifest", str(man_path), "--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    bytes_b = out_b.read_bytes()
    assert bytes_a == bytes_b
    assert len(bytes_a) > 0


# -- criterion 9: scheduling overhead ----------------------------------------------------


def test_criterion_9_scheduling_overhead(quickstart_trained):
    """Full planning call (17 branches x 6 views) must take under 10 ms
    median across 1,000 calls."""
    models, _ = quickstart_trained
    device = default_device_profile()
    rig = CameraRig.default()
    branches = enumerate_branches()  # all 17
    kalman = KalmanModel()
    rng = np.random.default_rng(17)
    tracks = []
    for i in range(11):
        a = rng.uniform(-math.pi, math.pi)
        d = rng.uniform(5.0, 45.0)
        box = car(d * math.cos(a), d * math.sin(a),
                  float(rng.normal(0, 4)), float(rng.normal(0, 4)), conf=0.8)
        tracks.append(TrackState(track_id=i + 1, mean=box.rows[0],
                                 covariance=kalman.birth_cov(), cls=ObjectClass.CAR,
                                 confidence=0.8))
    ego = EgoPose(0.0, 0.0, 0.0, 0.0)

    times = []
    for _ in range(1000):
        t0 = time.perf_counter()
        decision = sched(tracks, 0.1, ego, rig, branches, device, models, 33.0)
        times.append(time.perf_counter() - t0)
        assert len(decision.assignment) == 6
    median_ms = statistics.median(times) * 1000.0
    assert median_ms < 10.0, f"median sched time {median_ms:.2f} ms"
