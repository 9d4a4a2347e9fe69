"""Kalman filter and multi-object tracker unit tests."""

import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from track_helpers import forecast, states, track_frame
from viewsched.core import Box3D, CameraRig, EgoPose, ObjectClass, box_to_ego, view_of
from viewsched.scheduler import frame_forecast
from viewsched.tracker import (
    KalmanModel,
    MultiObjectTracker,
    TrackerConfig,
    TrackState,
    forecast_all,
    measurement_vector,
    update,
)


def det(x, y, vx=0.0, vy=0.0, cls=ObjectClass.CAR, conf=0.9, z=0.8):
    return Box3D(center=(x, y, z), size=(1.9, 1.6, 4.5), velocity=(vx, vy, 0.0),
                 yaw=0.0, cls=cls, confidence=conf)


def fresh_track(x=0.0, y=0.0, vx=0.0, vy=0.0, conf=0.9, track_id=1):
    model = KalmanModel()
    return TrackState(
        track_id=track_id,
        mean=measurement_vector(det(x, y, vx, vy, conf=conf)),
        covariance=model.birth_cov(),
        cls=ObjectClass.CAR,
        confidence=conf,
    )


# -- filter primitives --------------------------------------------------------


def test_forecast_moves_position_by_velocity():
    model = KalmanModel()
    t = fresh_track(x=1.0, y=2.0, vx=3.0, vy=-1.0)
    f = forecast(t, 0.5, model)
    assert f.mean[0] == pytest.approx(2.5)
    assert f.mean[1] == pytest.approx(1.5)
    # velocity and size are unchanged by the constant-velocity model
    assert np.allclose(f.mean[3:6], t.mean[3:6])
    assert np.allclose(f.mean[6:9], t.mean[6:9])
    # uncertainty must grow
    assert np.trace(f.covariance) > np.trace(t.covariance)


def test_forecast_zero_dt_adds_no_motion():
    model = KalmanModel()
    t = fresh_track(x=1.0, y=2.0, vx=3.0)
    f = forecast(t, 0.0, model)
    assert np.allclose(f.mean, t.mean)
    with pytest.raises(ValueError):
        forecast(t, -0.1, model)


def test_update_pulls_state_toward_measurement():
    model = KalmanModel()
    t = fresh_track(x=0.0, y=0.0)
    updated = update(t, det(1.0, 0.0), model)
    assert 0.0 < updated.mean[0] < 1.0
    # covariance shrinks after fusing a measurement
    assert np.trace(updated.covariance) < np.trace(t.covariance)
    assert updated.misses == 0


def test_update_resets_miss_count_and_refreshes_confidence():
    model = KalmanModel()
    t = fresh_track(conf=0.3)
    t = TrackState(track_id=t.track_id, mean=t.mean, covariance=t.covariance,
                   cls=t.cls, confidence=0.3, misses=2, age=5)
    updated = update(t, det(0.0, 0.0, conf=0.95), model)
    assert updated.misses == 0
    assert updated.confidence >= 0.3


def test_zero_noise_constant_velocity_convergence():
    # an ideal (noiseless) detector watching a constant-velocity object; the
    # measurement covariance models the instrument, so it is tight here. The
    # track starts with a deliberately wrong velocity estimate and must lock
    # on well before frame 10.
    model = KalmanModel(measurement_noise=(0.01,) * 9)
    dt = 0.1
    vx, vy = 4.0, -2.0
    track = TrackState(track_id=1, mean=measurement_vector(det(0.0, 0.0, 0.0, 0.0)),
                       covariance=model.birth_cov(), cls=ObjectClass.CAR,
                       confidence=0.9)
    for k in range(1, 15):
        x, y = vx * dt * k, vy * dt * k
        track = update(forecast(track, dt, model), det(x, y, vx, vy), model)
        if k >= 10:
            pos_err = math.hypot(track.mean[0] - x, track.mean[1] - y)
            vel_err = math.hypot(track.mean[3] - vx, track.mean[4] - vy)
            assert pos_err < 0.05
            assert vel_err < 0.1


def test_operational_birth_tracks_constant_velocity_exactly():
    # the pipeline births tracks from detections, which carry velocity; with
    # exact measurements the default filter follows the object at every frame
    model = KalmanModel()
    dt = 0.1
    vx, vy = 4.0, -2.0
    track = TrackState(track_id=1, mean=measurement_vector(det(0.0, 0.0, vx, vy)),
                       covariance=model.birth_cov(), cls=ObjectClass.CAR,
                       confidence=0.9)
    for k in range(1, 12):
        x, y = vx * dt * k, vy * dt * k
        track = update(forecast(track, dt, model), det(x, y, vx, vy), model)
        assert math.hypot(track.mean[0] - x, track.mean[1] - y) < 0.05
        assert math.hypot(track.mean[3] - vx, track.mean[4] - vy) < 0.1


def test_covariance_stays_symmetric_psd_under_random_updates():
    model = KalmanModel()
    rng = np.random.default_rng(42)
    track = fresh_track()
    for step in range(2000):
        track = forecast(track, float(rng.uniform(0.05, 0.3)), model)
        if rng.random() < 0.8:
            d = det(float(track.mean[0] + rng.normal(0, 1.0)),
                    float(track.mean[1] + rng.normal(0, 1.0)),
                    float(rng.normal(0, 3.0)), float(rng.normal(0, 3.0)))
            track = update(track, d, model)
        cov = track.covariance
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert float(np.linalg.eigvalsh(cov).min()) >= -1e-9


def test_track_to_box_round_trip():
    t = fresh_track(x=3.0, y=-4.0, vx=1.0, vy=2.0, conf=0.75)
    b = t.to_box()
    assert b.center == (3.0, -4.0, 0.8)
    assert b.velocity == (1.0, 2.0, 0.0)
    assert b.confidence == 0.75
    assert t.planar_speed == pytest.approx(math.hypot(1.0, 2.0))


# -- data association ---------------------------------------------------------


def test_tracker_step_starts_tracks_with_unique_ids():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(5.0, 0.0), det(-5.0, 0.0)], 0.1)
    assert len(tracker.tracks) == 2
    ids = {t.track_id for t in tracker.tracks}
    assert len(ids) == 2
    track_frame(tracker, [det(5.0, 0.0), det(-5.0, 0.0), det(0.0, 20.0)], 0.1)
    assert len(tracker.tracks) == 3
    all_ids = {t.track_id for t in tracker.tracks}
    assert ids <= all_ids  # old tracks kept their ids


def test_tracker_never_reuses_ids():
    config = TrackerConfig(confidence_threshold=0.5)
    tracker = MultiObjectTracker(config)
    track_frame(tracker, [det(5.0, 0.0, conf=0.6)], 0.1)
    first_id = tracker.tracks[0].track_id
    # one miss halves 0.6 -> 0.3 < 0.5: the track dies
    track_frame(tracker, [], 0.1)
    assert tracker.tracks == []
    track_frame(tracker, [det(5.0, 0.0, conf=0.6)], 0.1)
    assert tracker.tracks[0].track_id != first_id


def test_association_matches_nearest_same_class():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0), det(10.0, 0.0)], 0.1)
    id_near = [t.track_id for t in tracker.tracks if abs(t.mean[0]) < 5][0]
    id_far = [t.track_id for t in tracker.tracks if abs(t.mean[0]) > 5][0]
    # detections shifted slightly; each must update its own track
    track_frame(tracker, [det(0.3, 0.0), det(10.3, 0.0)], 0.1)
    assert len(tracker.tracks) == 2
    by_id = {t.track_id: t for t in tracker.tracks}
    assert by_id[id_near].mean[0] < 5
    assert by_id[id_far].mean[0] > 5
    assert all(t.misses == 0 for t in tracker.tracks)


def test_association_respects_class():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0, cls=ObjectClass.CAR)], 0.1)
    # a pedestrian detection at the same spot must not claim the car track
    track_frame(tracker, [det(0.0, 0.0, cls=ObjectClass.PEDESTRIAN)], 0.1)
    classes = sorted(t.cls.value for t in tracker.tracks)
    assert classes == ["car", "pedestrian"]


def test_association_gates_far_detections():
    tracker = MultiObjectTracker(TrackerConfig(base_gate_m=2.0))
    track_frame(tracker, [det(0.0, 0.0)], 0.1)
    tid = tracker.tracks[0].track_id
    # 30 m away: outside any reasonable gate, must spawn a new track
    track_frame(tracker, [det(30.0, 0.0)], 0.1)
    ids = {t.track_id for t in tracker.tracks}
    assert tid in ids and len(ids) == 2


# -- miss handling ------------------------------------------------------------


def test_confidence_halves_exactly_per_miss():
    tracker = MultiObjectTracker(TrackerConfig(confidence_threshold=0.01))
    track_frame(tracker, [det(0.0, 0.0, conf=0.9)], 0.1)
    for k in range(1, 6):
        track_frame(tracker, [], 0.1)
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].confidence == 0.9 * 0.5**k
        assert tracker.tracks[0].misses == k


def test_track_removed_below_confidence_threshold():
    tracker = MultiObjectTracker()  # threshold 0.10
    track_frame(tracker, [det(0.0, 0.0, conf=0.7)], 0.1)
    # 0.7 -> 0.35 -> 0.175 -> 0.0875 < 0.10: gone on the third miss
    track_frame(tracker, [], 0.1)
    track_frame(tracker, [], 0.1)
    assert len(tracker.tracks) == 1
    track_frame(tracker, [], 0.1)
    assert tracker.tracks == []


def test_miss_penalty_skipped_in_uncovered_views():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(20.0, 0.0, conf=0.8), det(-20.0, 0.0, conf=0.8)], 0.1)
    # frame with no detections, but no row was observed: no penalty
    track_frame(tracker, [], 0.1, observed=np.array([False, False]))
    assert [t.confidence for t in tracker.tracks] == [0.8, 0.8]
    assert [t.misses for t in tracker.tracks] == [0, 0]
    # now the first row is observed and the detector saw nothing there:
    # only that track is penalized
    track_frame(tracker, [], 0.1, observed=np.array([True, False]))
    assert [t.confidence for t in tracker.tracks] == [0.4, 0.8]
    assert [t.misses for t in tracker.tracks] == [1, 0]


def test_covered_views_none_means_all_covered():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0, conf=0.8)], 0.1)
    track_frame(tracker, [], 0.1, observed=None)
    assert tracker.tracks[0].confidence == 0.4


def test_observed_mask_needs_one_flag_per_forecast_row():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0), det(10.0, 0.0)], 0.1)
    table = forecast_all(tracker.tracks, 0.1, tracker.model)
    for bad in ([True], np.ones(3, dtype=bool), np.ones((2, 1), dtype=bool)):
        with pytest.raises(ValueError):
            tracker.step([], 0.1, table, bad)
    assert len(tracker.tracks) == 2


def test_uncovered_view_exemption_uses_ego_frame():
    # track sits at global (20, 0); the ego has turned 180 degrees, so in the
    # ego frame the object is behind, i.e. in the rear view
    rig = CameraRig.default()
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(20.0, 0.0, conf=0.8)], 0.1)
    turned = EgoPose(0.0, 0.0, math.pi, 0.1)
    rear_view = rig.view_of_angle(math.pi)  # object bearing in the turned frame
    table = forecast_all(tracker.tracks, 0.1, tracker.model)
    # the mask comes from the frame's one placement, as `run_episode` makes it
    observed = np.isin(frame_forecast(table, turned, rig).views, [rear_view])
    tracker.step([], 0.1, table, observed)
    assert tracker.tracks[0].misses == 1  # penalized: its ego-frame view was covered


def test_ages_increment_each_step():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0)], 0.1)
    assert tracker.tracks[0].age == 0
    track_frame(tracker, [det(0.0, 0.0)], 0.1)
    assert tracker.tracks[0].age == 1
    track_frame(tracker, [det(0.0, 0.0)], 0.1)
    assert tracker.tracks[0].age == 2


def test_forecast_all_preserves_track_count():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0), det(10.0, 10.0), det(-10.0, 5.0)], 0.1)
    ahead = forecast_all(tracker.tracks, 0.5, tracker.model)
    assert len(ahead) == 3
    assert ahead.means.shape == (3, 9) and ahead.covariances.shape == (3, 9, 9)
    assert [t.track_id for t in states(ahead)] == [t.track_id for t in tracker.tracks]
    # pure function: the tracker's own state is untouched
    assert all(t.age == 0 for t in tracker.tracks)
    assert len(forecast_all([], 0.5, tracker.model)) == 0


def test_step_needs_the_forecast_of_its_own_tracks():
    tracker = MultiObjectTracker()
    track_frame(tracker, [det(0.0, 0.0)], 0.1)
    stale = forecast_all(tracker.tracks, 0.1, tracker.model)
    track_frame(tracker, [det(0.1, 0.0)], 0.1)
    with pytest.raises(ValueError):
        tracker.step([], 0.1, stale)
    with pytest.raises(ValueError):
        tracker.step([], 0.1, forecast_all([], 0.1, tracker.model))


# Reference implementation: the per-track forecast the batched one replaced.


def _reference_forecast(track: TrackState, dt: float, model: KalmanModel) -> TrackState:
    a = model.transition(dt)
    mean = a @ track.mean
    cov = a @ track.covariance @ a.T + model.process_cov(dt)
    return replace(track, mean=mean, covariance=cov)


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
    got = forecast_all(tracks, dt, model)
    for track, row in zip(tracks, states(got)):
        want = _reference_forecast(track, dt, model)
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
        track = forecast(track, dt, model)
        if detected:
            track = update(track, det(x, y, vx, vy), model)
        cov = track.covariance
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
    table = forecast_all(tracker.tracks, 0.1, tracker.model)
    want = {t.track_id: view_of(box_to_ego(t.to_box(), ego).center, rig) in covered
            for t in states(table)}
    observed = np.isin(frame_forecast(table, ego, rig).views, sorted(covered))
    tracker.step([], 0.1, table, observed)
    assert {t.track_id: t.misses == 1 for t in tracker.tracks} == want
