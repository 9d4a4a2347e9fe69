"""3D multi-object tracking with a constant-velocity Kalman filter.

State per track is 9-dimensional: (x, y, z, vx, vy, vz, w, h, l), the row
layout of `core.BoxRows`. Yaw is carried alongside but not filtered. Tracks
are value objects; `forecast_all` (one batched step over every track,
returning a `TrackTable`), `associate` and `update` are pure, and
`MultiObjectTracker` owns the track list plus id allocation for the closed
loop. Detections arrive as `BoxRows`: `associate` gates and costs every
(track, detection) pair at once on the forecast means and the detection
rows, and `update` folds one detection row into a track.

The caller decides which forecast rows a miss counts for: when only some
camera views are served by a detector (the rest fall to the zero-latency
tracker branch), unmatched tracks in the unserved views are exempt from the
miss penalty, because the absence of a detection there carries no evidence
that the object vanished. The tracker itself knows no camera geometry.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import CLASSES, BoxRows, ObjectClass, class_codes, math_map

logger = logging.getLogger(__name__)

STATE_DIM = 9
_GATING_COST = 1.0e9


@dataclass(frozen=True)
class KalmanModel:
    """Noise configuration for the constant-velocity filter.

    Diagonals only; process noise is scaled by dt at forecast time. The
    measurement covers the full state (detectors report position, velocity
    and size).
    """

    process_noise: Tuple[float, ...] = (0.1,) * 6 + (0.01,) * 3
    measurement_noise: Tuple[float, ...] = (0.25,) * 6 + (0.04,) * 3
    birth_cov_scale: float = 2.0

    def transition(self, dt: float) -> np.ndarray:
        a = np.eye(STATE_DIM)
        a[0, 3] = a[1, 4] = a[2, 5] = dt
        return a

    def process_cov(self, dt: float) -> np.ndarray:
        return np.diag(self.process_noise) * dt

    def measurement_cov(self) -> np.ndarray:
        return np.diag(self.measurement_noise)

    def birth_cov(self) -> np.ndarray:
        return np.diag(self.measurement_noise) * self.birth_cov_scale


@dataclass(frozen=True)
class TrackerConfig:
    base_gate_m: float = 2.0
    confidence_threshold: float = 0.10
    confidence_halving: float = 0.5


@dataclass(frozen=True)
class TrackState:
    track_id: int
    mean: np.ndarray  # (9,)
    covariance: np.ndarray  # (9, 9)
    cls: ObjectClass
    confidence: float
    misses: int = 0
    age: int = 0
    yaw: float = 0.0


@dataclass(frozen=True)
class TrackTable:
    """Tracks as arrays, one row each (as in AB3DMOT): (T, 9) state means
    and (T, 9, 9) covariances.

    `tracks` supplies everything else about row i (id, class, confidence,
    misses, age, yaw); the row's state is `means[i]` and `covariances[i]`,
    not the mean and covariance `tracks[i]` carries.
    """

    tracks: Tuple[TrackState, ...]
    means: np.ndarray
    covariances: np.ndarray

    def __len__(self) -> int:
        return len(self.tracks)

    @property
    def confidences(self) -> np.ndarray:
        return np.array([t.confidence for t in self.tracks], dtype=np.float64)

    @property
    def classes(self) -> np.ndarray:
        """Each row's class code (see `core.CLASSES`)."""
        return class_codes(t.cls for t in self.tracks)


def forecast_all(tracks: Sequence[TrackState], dt: float, model: KalmanModel) -> TrackTable:
    """Propagate every track dt seconds ahead in one batched step (pure; no
    data association).

    `A @ m` runs as a stack of matrix-vector products, which round like the
    single-track product; a matrix-matrix `means @ A.T` does not always.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    a = model.transition(dt)
    means = np.array([t.mean for t in tracks], dtype=np.float64).reshape(-1, STATE_DIM)
    covs = np.array([t.covariance for t in tracks], dtype=np.float64)
    covs = covs.reshape(-1, STATE_DIM, STATE_DIM)
    return TrackTable(
        tuple(tracks), (a @ means[..., None])[..., 0], a @ covs @ a.T + model.process_cov(dt)
    )


def associate(
    tracks: TrackTable,
    detections: BoxRows,
    config: TrackerConfig,
    dt: float,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Match forecast tracks to detections.

    Cost is planar center distance. A pair is admissible only if the classes
    agree and the distance is within base_gate + track_speed * dt (faster
    objects are allowed to drift further between frames). Returns
    (matches as (track_idx, det_idx), unmatched track indices, unmatched
    detection indices); the assignment minimizes total admissible cost.
    """
    nt, nd = len(tracks), len(detections)
    if nt == 0 or nd == 0:
        return [], list(range(nt)), list(range(nd))

    means, rows = tracks.means, detections.rows
    gate = config.base_gate_m + math_map(math.hypot, means[:, 3], means[:, 4]) * dt
    dx = rows[:, 0] - means[:, 0, None]
    dy = rows[:, 1] - means[:, 1, None]
    dist = math_map(math.hypot, dx.ravel(), dy.ravel()).reshape(nt, nd)
    same_class = tracks.classes[:, None] == detections.classes
    cost = np.where(same_class & (dist <= gate[:, None]), dist, _GATING_COST)

    rows_, cols = linear_sum_assignment(cost)
    matches: List[Tuple[int, int]] = []
    for ti, di in zip(rows_, cols):
        if cost[ti, di] < _GATING_COST:
            matches.append((int(ti), int(di)))
    matched_t = {ti for ti, _ in matches}
    matched_d = {di for _, di in matches}
    return (
        matches,
        [i for i in range(nt) if i not in matched_t],
        [i for i in range(nd) if i not in matched_d],
    )


def update(
    track: TrackState, detections: BoxRows, model: KalmanModel, index: int = 0
) -> TrackState:
    """Fold detection `index` into a forecast track (standard Kalman update).

    The full state is measured, so H = I and the measurement is the
    detection's row. Covariance is symmetrized after the update; if it still
    has a meaningfully negative eigenvalue the negative part is clipped and a
    diagnostic is logged. Confidence keeps the larger of the track's and the
    detection's value; the miss counter resets.
    """
    z = detections.rows[index]
    p = track.covariance
    s = p + model.measurement_cov()
    k = np.linalg.solve(s.T, p.T).T
    mean = track.mean + k @ (z - track.mean)
    cov = (np.eye(STATE_DIM) - k) @ p
    cov = (cov + cov.T) / 2.0

    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] < -1e-9:
        logger.warning(
            "track %d covariance lost positive semidefiniteness (min eig %.3e); clipping",
            track.track_id,
            eigvals[0],
        )
        w, v = np.linalg.eigh(cov)
        cov = (v * np.maximum(w, 0.0)) @ v.T
        cov = (cov + cov.T) / 2.0

    sizes = mean[6:9]
    bad = sizes <= 0.0
    if bad.any():
        sizes = sizes.copy()
        sizes[bad] = 0.05
        mean = mean.copy()
        mean[6:9] = sizes

    return replace(
        track,
        mean=mean,
        covariance=cov,
        confidence=max(track.confidence, float(detections.confidences[index])),
        misses=0,
        yaw=float(detections.yaws[index]),
    )


class MultiObjectTracker:
    """Owns the live track list; one `step` per frame.

    Tracks live in whatever frame the detections are given in; the caller is
    responsible for keeping that frame consistent across steps (the simulator
    uses the global frame).
    """

    def __init__(self, config: Optional[TrackerConfig] = None, model: Optional[KalmanModel] = None):
        self.config = config or TrackerConfig()
        self.model = model or KalmanModel()
        self.tracks: List[TrackState] = []
        self._next_id = 1

    def step(
        self,
        detections: BoxRows,
        dt: float,
        forecast: TrackTable,
        observed: Optional[np.ndarray] = None,
    ) -> List[TrackState]:
        """Advance one frame from its forecast: associate, update, births,
        removals.

        `forecast` is `forecast_all(self.tracks, dt, self.model)`, made once
        per frame by the caller, which plans on it before detecting.
        `observed` holds one bool per forecast row: did a detector cover that
        row's view this frame (None: every row)? Unmatched tracks are
        penalized (confidence exactly halved, miss count incremented) only in
        observed rows; tracks below the confidence threshold are dropped.
        Unmatched detections start new tracks with fresh, never-reused ids.
        """
        if len(forecast) != len(self.tracks) or any(
            f is not t for f, t in zip(forecast.tracks, self.tracks)
        ):
            raise ValueError("forecast must be of this tracker's live tracks")
        if observed is None:
            observed = np.ones(len(forecast), dtype=bool)
        elif np.shape(observed) != (len(forecast),):
            raise ValueError("observed must hold one flag per forecast row")
        # survivors are one frame older; births below start at age 0
        predicted = [
            replace(t, mean=m, covariance=c, age=t.age + 1)
            for t, m, c in zip(forecast.tracks, forecast.means, forecast.covariances)
        ]
        matches, um_tracks, um_dets = associate(forecast, detections, self.config, dt)

        survivors: List[TrackState] = [None] * len(predicted)  # type: ignore[list-item]
        for ti, di in matches:
            survivors[ti] = update(predicted[ti], detections, self.model, di)

        for ti in um_tracks:
            track = predicted[ti]
            if observed[ti]:
                conf = track.confidence * self.config.confidence_halving
                if conf < self.config.confidence_threshold:
                    continue  # removed
                survivors[ti] = replace(track, confidence=conf, misses=track.misses + 1)
            else:
                survivors[ti] = track

        new_tracks = [t for t in survivors if t is not None]

        classes = detections.classes.tolist()
        confidences = detections.confidences.tolist()
        yaws = detections.yaws.tolist()
        for di in um_dets:
            new_tracks.append(
                TrackState(
                    track_id=self._next_id,
                    mean=detections.rows[di].copy(),
                    covariance=self.model.birth_cov(),
                    cls=CLASSES[classes[di]],
                    confidence=confidences[di],
                    misses=0,
                    age=0,
                    yaw=yaws[di],
                )
            )
            self._next_id += 1

        self.tracks = new_tracks
        return new_tracks
