"""Kalman filter and multi-object tracker unit tests."""

import logging
import math

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

import box_oracles
from box_oracles import Box3D, box_to_ego, to_rows, track_box, track_speed, view_of
from track_helpers import NO_BOXES, fold, join, states, track_frame
from viewsched.core import CLASSES, BoxRows, CameraRig, EgoPose, ObjectClass
from viewsched.scheduler import frame_forecast
from viewsched.tracker import (
    _GATING_COST,
    KalmanModel,
    MultiObjectTracker,
    TrackerConfig,
    TrackState,
    TrackTable,
    associate,
    forecast_all,
    linear_sum_assignment,
)


def det(x, y, vx=0.0, vy=0.0, cls=ObjectClass.CAR, conf=0.9, z=0.8):
    """One detection, as box rows."""
    return BoxRows.of([[x, y, z, vx, vy, 0.0, 1.9, 1.6, 4.5]], [CLASSES.index(cls)], [conf])


def fresh_track(x=0.0, y=0.0, vx=0.0, vy=0.0, conf=0.9, track_id=1):
    """One newborn track, as a one-row table."""
    model = KalmanModel()
    return TrackTable.of([TrackState(
        track_id=track_id,
        mean=det(x, y, vx, vy, conf=conf).rows[0],
        covariance=model.birth_cov(),
        cls=ObjectClass.CAR,
        confidence=conf,
    )])


# -- filter primitives --------------------------------------------------------


def test_forecast_moves_position_by_velocity():
    model = KalmanModel()
    t = fresh_track(x=1.0, y=2.0, vx=3.0, vy=-1.0)
    f = forecast_all(t, 0.5, model)
    assert f.means[0, 0] == pytest.approx(2.5)
    assert f.means[0, 1] == pytest.approx(1.5)
    # velocity and size are unchanged by the constant-velocity model
    assert np.allclose(f.means[0, 3:6], t.means[0, 3:6])
    assert np.allclose(f.means[0, 6:9], t.means[0, 6:9])
    # uncertainty must grow
    assert np.trace(f.covariances[0]) > np.trace(t.covariances[0])


def test_forecast_zero_dt_adds_no_motion():
    model = KalmanModel()
    t = fresh_track(x=1.0, y=2.0, vx=3.0)
    f = forecast_all(t, 0.0, model)
    assert np.allclose(f.means, t.means)
    with pytest.raises(ValueError):
        forecast_all(t, -0.1, model)


def test_update_pulls_state_toward_measurement():
    model = KalmanModel()
    t = fresh_track(x=0.0, y=0.0)
    updated = fold(t, det(1.0, 0.0), model)
    assert 0.0 < updated.means[0, 0] < 1.0
    # covariance shrinks after fusing a measurement
    assert np.trace(updated.covariances[0]) < np.trace(t.covariances[0])


def test_update_reads_the_given_detection_row():
    # row i of the batch folds detection row i into track row i, as the
    # same update of that one pair alone does
    model = KalmanModel()
    pair = forecast_all(TrackTable.of(states(fresh_track()) * 2), 0.1, model)
    dets = [det(-4.0, 3.0), det(1.0, 0.5, conf=0.95)]
    got = fold(pair, join(dets), model)
    for i, d in enumerate(dets):
        want = fold(pair.take([i]), d, model)
        assert np.array_equal(got.means[i], want.means[0])
        assert np.array_equal(got.covariances[i], want.covariances[0])


def test_a_match_keeps_the_larger_confidence_and_the_next_miss_halves_it():
    # a miss leaves no count behind, only a halved confidence: after a match,
    # the next miss halves the refreshed confidence once
    tracker = MultiObjectTracker()
    t = states(fresh_track(conf=0.3))[0]
    tracker.tracks = TrackTable.of([t])
    track_frame(tracker, [det(0.0, 0.0, conf=0.95)], 0.1)
    assert tracker.tracks.confidences.tolist() == [0.95]  # the larger of the two
    track_frame(tracker, [], 0.1)
    assert tracker.tracks.confidences.tolist() == [0.95 * 0.5]
    tracker.tracks = TrackTable.of([replace(t, confidence=0.8)])
    track_frame(tracker, [det(0.0, 0.0, conf=0.3)], 0.1)
    assert tracker.tracks.confidences.tolist() == [0.8]


def test_update_clamps_non_positive_sizes():
    model = KalmanModel()
    shrunk = BoxRows.of([[0.0, 0.0, 0.8, 0.0, 0.0, 0.0, -9.0, 1.6, -0.1]], [0], [0.9])
    got = fold(fresh_track(), shrunk, model)
    assert got.means[0, 6] == 0.05  # the filter would put it below zero
    assert got.means[0, 7] > 0.05 and 0.05 < got.means[0, 8] < 4.5


def test_update_clips_a_covariance_that_lost_semidefiniteness(caplog):
    model = KalmanModel()
    t = states(fresh_track(track_id=7))[0]
    broken = TrackTable.of([replace(t, covariance=model.birth_cov() - np.eye(9) * 0.6)])
    with caplog.at_level(logging.WARNING, logger="viewsched.tracker"):
        got = fold(broken, det(0.5, 0.0), model)
    assert [r.getMessage().split(" covariance")[0] for r in caplog.records] == ["track 7"]
    assert float(np.linalg.eigvalsh(got.covariances[0]).min()) >= -1e-9
    assert np.array_equal(got.covariances[0], got.covariances[0].T)


def test_zero_noise_constant_velocity_convergence():
    # an ideal (noiseless) detector watching a constant-velocity object; the
    # measurement covariance models the instrument, so it is tight here. The
    # track starts with a deliberately wrong velocity estimate and must lock
    # on well before frame 10.
    model = KalmanModel(measurement_noise=(0.01,) * 9)
    dt = 0.1
    vx, vy = 4.0, -2.0
    track = replace(fresh_track(), covariances=model.birth_cov()[None])
    for k in range(1, 15):
        x, y = vx * dt * k, vy * dt * k
        track = fold(forecast_all(track, dt, model), det(x, y, vx, vy), model)
        if k >= 10:
            mean = track.means[0]
            pos_err = math.hypot(mean[0] - x, mean[1] - y)
            vel_err = math.hypot(mean[3] - vx, mean[4] - vy)
            assert pos_err < 0.05
            assert vel_err < 0.1


def test_operational_birth_tracks_constant_velocity_exactly():
    # the pipeline births tracks from detections, which carry velocity; with
    # exact measurements the default filter follows the object at every frame
    model = KalmanModel()
    dt = 0.1
    vx, vy = 4.0, -2.0
    track = fresh_track(vx=vx, vy=vy)
    for k in range(1, 12):
        x, y = vx * dt * k, vy * dt * k
        track = fold(forecast_all(track, dt, model), det(x, y, vx, vy), model)
        mean = track.means[0]
        assert math.hypot(mean[0] - x, mean[1] - y) < 0.05
        assert math.hypot(mean[3] - vx, mean[4] - vy) < 0.1


def test_covariance_stays_symmetric_psd_under_random_updates():
    model = KalmanModel()
    rng = np.random.default_rng(42)
    track = fresh_track()
    for step in range(2000):
        track = forecast_all(track, float(rng.uniform(0.05, 0.3)), model)
        if rng.random() < 0.8:
            d = det(float(track.means[0, 0] + rng.normal(0, 1.0)),
                    float(track.means[0, 1] + rng.normal(0, 1.0)),
                    float(rng.normal(0, 3.0)), float(rng.normal(0, 3.0)))
            track = fold(track, d, model)
        cov = track.covariances[0]
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert float(np.linalg.eigvalsh(cov).min()) >= -1e-9


def test_track_to_box_round_trip():
    table = fresh_track(x=3.0, y=-4.0, vx=1.0, vy=2.0, conf=0.75)
    (t,) = states(table)
    b = track_box(t)
    assert b.center == (3.0, -4.0, 0.8)
    assert b.velocity == (1.0, 2.0, 0.0)
    assert b.confidence == 0.75
    assert track_speed(t) == pytest.approx(math.hypot(1.0, 2.0))
    assert to_rows([b]).rows[0].tolist() == t.mean.tolist()
    again = TrackTable.of(states(table))
    assert all(np.array_equal(a, b) for a, b in zip(again.columns(), table.columns()))


# -- data association ---------------------------------------------------------


def test_tracker_step_starts_tracks_with_unique_ids():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(5.0, 0.0), det(-5.0, 0.0)], 0.1)
    assert len(tracker.tracks) == 2
    ids = set(tracker.tracks.ids.tolist())
    assert len(ids) == 2
    track_frame(tracker, [det(5.0, 0.0), det(-5.0, 0.0), det(0.0, 20.0)], 0.1)
    assert len(tracker.tracks) == 3
    all_ids = set(tracker.tracks.ids.tolist())
    assert ids <= all_ids  # old tracks kept their ids


def test_tracker_never_reuses_ids():
    config = TrackerConfig(confidence_threshold=0.5)
    tracker = MultiObjectTracker(config)
    track_frame(tracker, [det(5.0, 0.0, conf=0.6)], 0.1)
    first_id = tracker.tracks.ids[0]
    # one miss halves 0.6 -> 0.3 < 0.5: the track dies
    track_frame(tracker, [], 0.1)
    assert len(tracker.tracks) == 0
    track_frame(tracker, [det(5.0, 0.0, conf=0.6)], 0.1)
    assert tracker.tracks.ids[0] != first_id


def test_association_matches_nearest_same_class():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0), det(10.0, 0.0)], 0.1)
    id_near = [t.track_id for t in states(tracker.tracks) if abs(t.mean[0]) < 5][0]
    id_far = [t.track_id for t in states(tracker.tracks) if abs(t.mean[0]) > 5][0]
    # detections shifted slightly; each must update its own track
    track_frame(tracker, [det(0.3, 0.0), det(10.3, 0.0)], 0.1)
    assert len(tracker.tracks) == 2
    by_id = {t.track_id: t for t in states(tracker.tracks)}
    assert by_id[id_near].mean[0] < 5
    assert by_id[id_far].mean[0] > 5
    assert tracker.tracks.confidences.tolist() == [0.9, 0.9]  # neither was missed


def test_association_respects_class():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0, cls=ObjectClass.CAR)], 0.1)
    # a pedestrian detection at the same spot must not claim the car track
    track_frame(tracker, [det(0.0, 0.0, cls=ObjectClass.PEDESTRIAN)], 0.1)
    classes = sorted(CLASSES[code].value for code in tracker.tracks.classes.tolist())
    assert classes == ["car", "pedestrian"]


def test_association_gates_far_detections():
    tracker = MultiObjectTracker()  # gate 2 m + speed * dt
    track_frame(tracker, [det(0.0, 0.0)], 0.1)
    tid = tracker.tracks.ids[0]
    # 30 m away: outside any reasonable gate, must spawn a new track
    track_frame(tracker, [det(30.0, 0.0)], 0.1)
    ids = set(tracker.tracks.ids.tolist())
    assert tid in ids and len(ids) == 2


# -- miss handling ------------------------------------------------------------


def test_confidence_halves_exactly_per_miss():
    tracker = MultiObjectTracker(TrackerConfig(confidence_threshold=0.01))
    track_frame(tracker, [det(0.0, 0.0, conf=0.9)], 0.1)
    for k in range(1, 6):
        track_frame(tracker, [], 0.1)
        assert len(tracker.tracks) == 1
        assert tracker.tracks.confidences[0] == 0.9 * 0.5**k


def test_track_removed_below_confidence_threshold():
    tracker = MultiObjectTracker()  # threshold 0.10
    track_frame(tracker, [det(0.0, 0.0, conf=0.7)], 0.1)
    # 0.7 -> 0.35 -> 0.175 -> 0.0875 < 0.10: gone on the third miss
    track_frame(tracker, [], 0.1)
    track_frame(tracker, [], 0.1)
    assert len(tracker.tracks) == 1
    track_frame(tracker, [], 0.1)
    assert len(tracker.tracks) == 0


def test_miss_penalty_skipped_in_uncovered_views():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(20.0, 0.0, conf=0.8), det(-20.0, 0.0, conf=0.8)], 0.1)
    # frame with no detections, but no row was observed: no penalty
    track_frame(tracker, [], 0.1, observed=np.array([False, False]))
    assert tracker.tracks.confidences.tolist() == [0.8, 0.8]
    # now the first row is observed and the detector saw nothing there:
    # only that track is penalized
    track_frame(tracker, [], 0.1, observed=np.array([True, False]))
    assert tracker.tracks.confidences.tolist() == [0.4, 0.8]


def test_observed_mask_needs_one_flag_per_forecast_row():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0), det(10.0, 0.0)], 0.1)
    tracker.forecast(0.1)
    for bad in ([True], np.ones(3, dtype=bool), np.ones((2, 1), dtype=bool)):
        with pytest.raises(ValueError):
            tracker.step(NO_BOXES, bad)
    assert len(tracker.tracks) == 2
    # a rejected mask leaves the forecast pending for the step that follows
    tracker.step(NO_BOXES, np.zeros(2, dtype=bool))
    assert len(tracker.tracks) == 2


def test_uncovered_view_exemption_uses_ego_frame():
    # track sits at global (20, 0); the ego has turned 180 degrees, so in the
    # ego frame the object is behind, i.e. in the rear view
    rig = CameraRig.default()
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(20.0, 0.0, conf=0.8)], 0.1)
    turned = EgoPose(0.0, 0.0, math.pi, 0.1)
    rear_view = int(rig.views_of_angles(np.array([math.pi]))[0])  # bearing in the turned frame
    table = tracker.forecast(0.1)
    # the mask comes from the frame's one placement, as `run_episode` makes it
    observed = np.isin(frame_forecast(table, turned, rig).views, [rear_view])
    tracker.step(NO_BOXES, observed)
    assert tracker.tracks.confidences[0] == 0.4  # penalized: its ego-frame view was covered


def test_forecast_all_preserves_track_count():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0), det(10.0, 10.0), det(-10.0, 5.0)], 0.1)
    means = tracker.tracks.means.copy()
    ahead = forecast_all(tracker.tracks, 0.5, tracker.model)
    assert len(ahead) == 3
    assert ahead.means.shape == (3, 9) and ahead.covariances.shape == (3, 9, 9)
    assert ahead.ids.tolist() == tracker.tracks.ids.tolist()
    # pure function: the tracker's own state is untouched
    assert np.array_equal(tracker.tracks.means, means)
    assert not np.array_equal(ahead.covariances, tracker.tracks.covariances)
    assert len(forecast_all(TrackTable.of([]), 0.5, tracker.model)) == 0


def test_tracker_fixes_its_gate_halving_and_process_noise():
    # only the drop threshold and the measurement noise are settings
    assert [f.name for f in fields(TrackerConfig)] == ["confidence_threshold"]
    assert [f.name for f in fields(KalmanModel)] == ["measurement_noise"]
    assert (TrackerConfig.base_gate_m, TrackerConfig.confidence_halving) == (2.0, 0.5)
    assert KalmanModel.process_noise == (0.1,) * 6 + (0.01,) * 3
    assert KalmanModel.birth_cov_scale == 2.0
    with pytest.raises(TypeError):
        TrackerConfig(base_gate_m=1.0)
    with pytest.raises(TypeError):
        TrackerConfig(confidence_halving=0.25)
    with pytest.raises(TypeError):
        KalmanModel(process_noise=(0.2,) * 9)
    with pytest.raises(TypeError):
        KalmanModel(birth_cov_scale=1.0)
    # the caller says which forecast rows were observed, every frame
    tracker = MultiObjectTracker()
    tracker.forecast(0.1)
    with pytest.raises(TypeError):
        tracker.step(NO_BOXES)


def test_step_needs_the_forecast_of_its_own_tracks():
    # each forecast the tracker makes serves exactly one step
    tracker = MultiObjectTracker()
    with pytest.raises(ValueError):  # no forecast yet
        tracker.step(NO_BOXES, np.ones(0, dtype=bool))
    tracker.forecast(0.1)
    tracker.step(det(0.0, 0.0, vx=10.0), np.ones(0, dtype=bool))
    with pytest.raises(ValueError):  # that forecast was used
        tracker.step(NO_BOXES, np.ones(1, dtype=bool))
    assert tracker.tracks.confidences.tolist() == [0.9]
    # the step gates on the forecast's own dt: 2 m + 10 m/s * 0.5 s reaches
    # a detection 5 m past the forecast position
    assert tracker.forecast(0.5).means[0, 0] == 5.0
    tracker.step(det(10.0, 0.0, vx=10.0), np.ones(1, dtype=bool))
    assert len(tracker.tracks) == 1


# Reference implementation: the per-track forecast the batched one replaced
# (`box_oracles.forecast`).


_floats = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    count=st.sampled_from((1, 2, 11, 50, 200)),
    dt=st.sampled_from((0.0, 0.05, 0.1)) | st.floats(0.0, 2.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    edge=_floats,
)
def test_batched_forecast_matches_the_per_track_forecast(count, dt, scale, seed, edge):
    rng = np.random.default_rng(seed)
    model = KalmanModel()
    tracks = []
    for i in range(count):
        root = rng.normal(size=(9, 9)) * scale
        mean = rng.normal(size=9) * rng.uniform(0.0, 100.0)
        mean[int(rng.integers(9))] = edge
        tracks.append(TrackState(track_id=i, mean=mean, covariance=root @ root.T,
                                 cls=ObjectClass.CAR, confidence=0.5))
    got = forecast_all(TrackTable.of(tracks), dt, model)
    for track, row in zip(tracks, states(got)):
        want = box_oracles.forecast(track, dt, model)
        assert np.array_equal(row.mean, want.mean)
        assert np.array_equal(row.covariance, want.covariance)
        assert replace(row, mean=want.mean, covariance=want.covariance) == want


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.booleans(), _floats, _floats,
                  st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
        min_size=1, max_size=60,
    ),
    noise=st.sampled_from((0.25, 1e-4, 25.0)),
)
def test_covariance_stays_psd_under_any_forecast_and_update_sequence(steps, noise):
    model = KalmanModel(measurement_noise=(noise,) * 6 + (noise / 4,) * 3)
    track = fresh_track()
    for dt, detected, x, y, vx, vy in steps:
        track = forecast_all(track, dt, model)
        if detected:
            track = fold(track, det(x, y, vx, vy), model)
        cov = track.covariances[0]
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert float(np.linalg.eigvalsh(cov).min()) >= -1e-9 * max(1.0, float(np.abs(cov).max()))


@settings(max_examples=40, deadline=None)
@given(
    positions=st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
                       min_size=1, max_size=12),
    pose=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-4.0, 4.0)),
    covered=st.sets(st.integers(0, 5)),
)
def test_misses_count_only_in_covered_views_of_the_ego_frame(positions, pose, covered):
    rig = CameraRig.default()
    ego = EgoPose(pose[0], pose[1], pose[2], 0.0)
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(x, y, 1.0, -0.5) for x, y in positions], 0.1)
    table = tracker.forecast(0.1)
    want = {t.track_id: view_of(box_to_ego(track_box(t), ego).center, rig) in covered
            for t in states(table)}
    observed = np.isin(frame_forecast(table, ego, rig).views, sorted(covered))
    tracker.step(NO_BOXES, observed)
    halved = tracker.tracks.confidences == 0.9 * 0.5
    assert dict(zip(tracker.tracks.ids.tolist(), halved.tolist())) == want


# The per-pair association loop (`box_oracles.associate`) is the reference
# for the array one: its (track, detection) pairs, in order, are the array
# one's index arrays read side by side, and its unmatched detections are the
# array one's. Lattice positions and 3-4-5 speeds put pairs exactly on the gate.

_lattice = st.sampled_from([-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
_pair_classes = st.sampled_from([ObjectClass.CAR, ObjectClass.PEDESTRIAN, ObjectClass.BUS])
_velocities = st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (3.0, 4.0), (-0.6, 0.8), (1.0, 0.0)])


@settings(max_examples=300, deadline=None)
@given(
    tracks=st.lists(st.tuples(_lattice, _lattice, _velocities, _pair_classes), max_size=8),
    dets=st.lists(st.tuples(_lattice, _lattice, _pair_classes), max_size=8),
    dt=st.sampled_from([0.0, 0.1, 0.2]),
)
@example(tracks=[], dets=[(0.0, 0.0, ObjectClass.CAR)], dt=0.1)
@example(tracks=[(0.0, 0.0, (0.0, 0.0), ObjectClass.CAR)], dets=[], dt=0.1)
@example(tracks=[], dets=[], dt=0.1)
@example(  # every pair gated: one class off, one beyond the gate
    tracks=[(0.0, 0.0, (0.0, 0.0), ObjectClass.CAR), (4.0, 4.0, (0.0, 0.0), ObjectClass.BUS)],
    dets=[(0.0, 0.0, ObjectClass.PEDESTRIAN), (-3.0, -3.0, ObjectClass.CAR)],
    dt=0.1,
)
@example(  # one at the gate of a still track, one at the gate of a moving one, one class off
    tracks=[(0.0, 0.0, (0.0, 0.0), ObjectClass.CAR), (0.0, 0.0, (3.0, 4.0), ObjectClass.CAR)],
    dets=[(2.0, 0.0, ObjectClass.CAR), (-3.0, 0.0, ObjectClass.CAR),
          (0.0, 0.0, ObjectClass.BUS)],
    dt=0.2,
)
def test_array_association_matches_the_per_pair_loop(tracks, dets, dt):
    model = KalmanModel()
    live = [
        TrackState(track_id=i, mean=np.array([x, y, 0.8, vx, vy, 0.0, 1.9, 1.6, 4.5]),
                   covariance=model.birth_cov(), cls=cls, confidence=0.5)
        for i, (x, y, (vx, vy), cls) in enumerate(tracks)
    ]
    boxes = [Box3D(center=(x, y, 0.8), size=(1.9, 1.6, 4.5), velocity=(0.0, 0.0, 0.0), cls=cls,
                   confidence=0.9) for x, y, cls in dets]
    config = TrackerConfig()
    pairs, unmatched = box_oracles.associate(live, boxes, config, dt)
    got = associate(TrackTable.of(live), to_rows(boxes), config, dt)
    assert [a.dtype for a in got] == [np.int64] * 3
    track_idx, det_idx, free = got
    assert list(zip(track_idx.tolist(), det_idx.tolist())) == pairs
    assert free.tolist() == unmatched
    if not pairs:  # no tracks, no detections, or every pair gated
        assert free.tolist() == list(range(len(dets)))


# SciPy's solver is the reference for the tracker's port of it: the same
# (rows, cols) on every matrix, ties and the gate cost included, in both
# orientations, and a `ValueError` wherever SciPy raises one. Small integers
# make ties common; +inf entries leave rows with no finite column.

_cell_kinds = st.sampled_from([
    st.floats(0.0, 100.0),  # uniform costs
    st.integers(0, 3).map(float),  # small integers: many ties
    st.integers(0, 3).map(float) | st.just(_GATING_COST),  # ties and the gate
    st.floats(0.0, 4.0) | st.just(_GATING_COST),  # distances and the gate
    st.sampled_from([0.0, 1.0, _GATING_COST, math.inf]),  # rows can lose every finite column
    st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan]),  # invalid entries
])


@st.composite
def _cost_matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    if draw(st.booleans()):  # a constant matrix
        cells = [draw(st.integers(0, 3).map(float))] * (rows * cols)
    else:
        kind = draw(_cell_kinds)
        cells = draw(st.lists(kind, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


@settings(max_examples=500, deadline=None)
@given(cost=_cost_matrices())
@example(cost=np.zeros((0, 0)))
@example(cost=np.zeros((0, 3)))
@example(cost=np.full((3, 4), _GATING_COST))
@example(cost=np.array([[1.0, math.nan], [0.0, 2.0]]))
@example(cost=np.array([[1.0, -math.inf], [0.0, 2.0]]))
@example(cost=np.array([[1.0, 2.0], [math.inf, math.inf]]))
def test_the_assignment_port_matches_scipy(cost):
    for matrix in (cost, cost.T):
        try:
            want = scipy_assignment(matrix)
        except ValueError:
            with pytest.raises(ValueError):
                linear_sum_assignment(matrix)
        else:
            got = linear_sum_assignment(matrix)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            assert [a.dtype for a in got] == [a.dtype for a in want]


# The per-track tracker (`box_oracles.MultiObjectTracker`: a list of
# `TrackState`s, the per-track forecast and update) is the reference for the
# table one: over whole frame sequences, the same tracks in the same order,
# bit for bit, and the same clipping warnings. Lattice positions make matches
# common; negative sizes drive the size clamp, and the starting tracks whose
# covariances lost semidefiniteness drive the clipping branch.

_codes = st.sampled_from([0, 3, 5])
_confs = st.sampled_from([0.05, 0.12, 0.3, 0.9, 1.0])
_sizes = st.sampled_from([4.5, 1.9, 0.0, -3.0, -40.0])
_detections = st.lists(
    st.tuples(_lattice, _lattice, _velocities, _codes, _confs, _sizes),
    max_size=6,
)
_frames = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 0.5]), _detections,
              st.none() | st.lists(st.booleans(), min_size=1, max_size=5)),
    min_size=1, max_size=8,
)
_starts = st.lists(
    st.tuples(_lattice, _lattice, _velocities, _codes, _confs, st.sampled_from([0.0, -0.6])),
    max_size=4,
)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _detection_rows(dets):
    return BoxRows.of(
        [[x, y, 0.8, vx, vy, 0.0, 1.9, size, 4.5] for x, y, (vx, vy), _, _, size in dets],
        [code for _, _, _, code, _, _ in dets],
        [conf for *_, conf, _ in dets],
    )


def _same_tracks(table, want):
    assert table.ids.tolist() == [t.track_id for t in want]
    assert table.classes.tolist() == [CLASSES.index(t.cls) for t in want]
    for column, values in ((table.confidences, [t.confidence for t in want]),
                           (table.means, [t.mean for t in want]),
                           (table.covariances, [t.covariance for t in want])):
        assert column.tobytes() == np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=100, deadline=None)
@given(starts=_starts, frames=_frames, threshold=st.sampled_from([0.1, 0.3]))
@example(  # a negative size folded in: the clamp
    starts=[(0.0, 0.0, (0.0, 0.0), 0, 0.9, 0.0)],
    frames=[(0.1, [(0.0, 0.0, (0.0, 0.0), 0, 0.9, -40.0)], None)],
    threshold=0.1,
)
@example(  # a start that lost semidefiniteness, matched: clipped with a warning
    starts=[(0.0, 0.0, (0.0, 0.0), 0, 0.9, -0.6),
            (3.0, 3.0, (0.0, 0.0), 3, 0.3, 0.0)],
    frames=[(0.1, [(0.5, 0.0, (1.0, 0.0), 0, 0.3, 1.9)], [True]),
            (0.1, [], [False, True])],
    threshold=0.3,
)
@example(  # nothing to fold in from no tracks, then births, then only predict steps
    starts=[],
    frames=[(0.1, [], [False]), (0.1, [(1.0, 1.0, (1.0, 0.0), 0, 0.9, 1.6)], None),
            (0.1, [], [False]), (0.5, [], [False]), (0.0, [], [False])],
    threshold=0.1,
)
@example(  # nothing to fold in on live tracks; the low one is dropped only when observed
    starts=[(0.0, 0.0, (1.0, 0.0), 0, 0.9, 0.0), (3.0, 3.0, (0.0, 0.0), 3, 0.15, 0.0)],
    frames=[(0.1, [], [False]), (0.5, [], [False]), (0.1, [], [False, True]),
            (0.1, [], [False])],
    threshold=0.1,
)
def test_step_matches_the_per_track_tracker(starts, frames, threshold):
    model = KalmanModel()
    config = TrackerConfig(confidence_threshold=threshold)
    start = [
        TrackState(track_id=1000 + i, mean=np.array([x, y, 0.8, vx, vy, 0.0, 1.9, 1.6, 4.5]),
                   covariance=model.birth_cov() + shift * np.eye(9), cls=CLASSES[code],
                   confidence=conf)
        for i, (x, y, (vx, vy), code, conf, shift) in enumerate(starts)
    ]
    tracker, oracle = MultiObjectTracker(config, model), box_oracles.MultiObjectTracker(config, model)
    tracker.tracks, oracle.tracks = TrackTable.of(start), list(start)
    logs = {name: _Messages() for name in ("viewsched.tracker", "box_oracles")}
    for name, handler in logs.items():
        logging.getLogger(name).addHandler(handler)
    try:
        for dt, dets, flags in frames:
            n = len(tracker.tracks)
            observed = (np.ones(n, dtype=bool) if flags is None
                        else np.array([flags[i % len(flags)] for i in range(n)]))
            tracker.forecast(dt)
            got = tracker.step(_detection_rows(dets), observed)
            want = oracle.step(_detection_rows(dets), dt, observed)
            assert got is tracker.tracks
            _same_tracks(got, want)
    finally:
        for name, handler in logs.items():
            logging.getLogger(name).removeHandler(handler)
    assert logs["viewsched.tracker"].messages == logs["box_oracles"].messages


@pytest.mark.parametrize("starts", [0, 3])
def test_a_step_with_nothing_to_fold_in_makes_the_forecast_live(starts):
    tracker = MultiObjectTracker()
    for k in range(starts):
        tracker.forecast(0.1)
        tracker.step(det(3.0 * k, 1.0), np.ones(len(tracker.tracks), dtype=bool))
    for dt in (0.1, 0.5):
        forecast = tracker.forecast(dt)
        assert tracker.step(NO_BOXES, np.zeros(len(forecast), dtype=bool)) is forecast
        assert tracker.tracks is forecast
        assert len(forecast) == starts
        assert forecast.ids.dtype == forecast.classes.dtype == np.int64
    # the next step needs a new forecast, as after any step
    with pytest.raises(ValueError, match="pending forecast"):
        tracker.step(NO_BOXES, np.zeros(starts, dtype=bool))
