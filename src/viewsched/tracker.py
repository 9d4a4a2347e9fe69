"""3D multi-object tracking with a constant-velocity Kalman filter.

State per track is 9-dimensional: (x, y, z, vx, vy, vz, w, h, l), the row
layout of `core.BoxRows`; a track keeps no heading. Tracks are one
`TrackTable` of columns, as in AB3DMOT (Weng et al., IROS 2020).
`forecast_all`, `associate` and `update` are pure and batched over its rows:
one step advances every track, every (track, detection) pair is gated and
costed at once on the forecast means and the detection rows, and one Kalman
update folds every matched detection row in. `MultiObjectTracker` owns the
live table plus id allocation for the closed loop: each frame it forecasts
its own tracks, and `step` updates that same forecast, as AB3DMOT predicts
then updates.

The caller decides which forecast rows a miss counts for: when only some
camera views are served by a detector (the rest fall to the zero-latency
tracker branch), unmatched tracks in the unserved views are exempt from the
miss penalty, because the absence of a detection there carries no evidence
that the object vanished. A miss halves a track's confidence, and a track
whose confidence falls below the threshold is dropped; unlike AB3DMOT, no
miss count is kept. The tracker itself knows no camera geometry.

`associate` solves its assignment with `linear_sum_assignment`, a port of
SciPy's shortest augmenting path solver (Crouse, "On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016) that returns SciPy's
matches on every input. It lives here because importing `scipy.optimize`
for this one call would cost every process about 44 MB of resident memory
and 0.3–0.4 s of start-up (SciPy 1.17 on a 2-core machine), while the
matrices it solves are tiny: a few tracks by a few detections per frame.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from .core import BoxRows, ObjectClass, class_codes, math_map

logger = logging.getLogger(__name__)

STATE_DIM = 9
_GATING_COST = 1.0e9


@dataclass(frozen=True)
class KalmanModel:
    """Noise configuration for the constant-velocity filter.

    Diagonals only; process noise is scaled by dt at forecast time. The
    measurement covers the full state (detectors report position, velocity
    and size). The process noise and the birth covariance's scale are fixed;
    the measurement noise is the one field.
    """

    process_noise: ClassVar[Tuple[float, ...]] = (0.1,) * 6 + (0.01,) * 3
    birth_cov_scale: ClassVar[float] = 2.0
    measurement_noise: Tuple[float, ...] = (0.25,) * 6 + (0.04,) * 3

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
    """The gate (base_gate_m + track speed * dt) and the miss halving are fixed;
    the confidence below which a missed track is dropped is the one field."""

    base_gate_m: ClassVar[float] = 2.0
    confidence_halving: ClassVar[float] = 0.5
    confidence_threshold: float = 0.10


@dataclass(frozen=True)
class TrackState:
    """One track as a record, the form `TrackTable.of` reads (`scheduler.sched`
    takes its tracks this way). Nothing reads `yaw`: `TrackTable.of` drops it."""

    track_id: int
    mean: np.ndarray  # (9,)
    covariance: np.ndarray  # (9, 9)
    cls: ObjectClass
    confidence: float
    yaw: float = 0.0


@dataclass(frozen=True, eq=False)
class TrackTable:
    """Tracks as columns, one row each (as in AB3DMOT).

    ids         : (T,) int64 track ids, never reused
    classes     : (T,) int64 class codes, indices into `core.CLASSES`
    confidences : (T,) float64, halved on each miss in an observed view
    means       : (T, 9) float64 states, in the `core.BoxRows` row layout
    covariances : (T, 9, 9) float64
    """

    ids: np.ndarray
    classes: np.ndarray
    confidences: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def of(cls, states: Sequence[TrackState]) -> TrackTable:
        """The tracks of per-track records, in order."""
        return cls(
            np.array([t.track_id for t in states], dtype=np.int64),
            class_codes(t.cls for t in states),
            np.array([t.confidence for t in states], dtype=np.float64),
            np.array([t.mean for t in states], dtype=np.float64).reshape(-1, STATE_DIM),
            np.array([t.covariance for t in states], dtype=np.float64).reshape(
                -1, STATE_DIM, STATE_DIM),
        )

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Every column, in field order."""
        return (self.ids, self.classes, self.confidences, self.means, self.covariances)

    def take(self, index) -> TrackTable:
        """The tracks a boolean mask or an index array selects, in its order."""
        return TrackTable(*(column[index] for column in self.columns()))


def forecast_all(tracks: TrackTable, dt: float, model: KalmanModel) -> TrackTable:
    """Propagate every track dt seconds ahead in one batched step (pure; no
    data association). Only the means and covariances change.

    `A @ m` runs as a stack of matrix-vector products, which round like the
    single-track product; a matrix-matrix `means @ A.T` does not always.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    a = model.transition(dt)
    return TrackTable(tracks.ids, tracks.classes, tracks.confidences,
                      (a @ tracks.means[..., None])[..., 0],
                      a @ tracks.covariances @ a.T + model.process_cov(dt))


def associate(
    tracks: TrackTable,
    detections: BoxRows,
    config: TrackerConfig,
    dt: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match forecast tracks to detections.

    Cost is planar center distance. A pair is admissible only if the classes
    agree and the distance is within base_gate + track_speed * dt (faster
    objects are allowed to drift further between frames). Returns int64 index
    arrays (track_idx, det_idx, unmatched): the i-th match pairs track
    track_idx[i] with detection det_idx[i], tracks ascending, and unmatched
    holds the other detections, ascending. The assignment minimizes total
    admissible cost.
    """
    nt, nd = len(tracks), len(detections)
    means, rows = tracks.means, detections.rows
    gate = config.base_gate_m + math_map(math.hypot, means[:, 3], means[:, 4]) * dt
    dx = rows[:, 0] - means[:, 0, None]
    dy = rows[:, 1] - means[:, 1, None]
    dist = math_map(math.hypot, dx.ravel(), dy.ravel()).reshape(nt, nd)
    same_class = tracks.classes[:, None] == detections.classes
    cost = np.where(same_class & (dist <= gate[:, None]), dist, _GATING_COST)

    ti, di = linear_sum_assignment(cost)
    admissible = cost[ti, di] < _GATING_COST
    ti, di = ti[admissible], di[admissible]
    return ti, di, np.delete(np.arange(nd, dtype=np.int64), di)


def linear_sum_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The minimum-cost assignment of a 2-D float cost matrix, as
    `scipy.optimize.linear_sum_assignment` computes it (rows ascending).

    A step-for-step port of SciPy's shortest augmenting path solver (Crouse,
    IEEE TAES 2016): the same column scan order, float operations and tie
    rule, so it picks SciPy's assignment among equal-cost ones too. A NaN or
    -inf entry, or a matrix with no finite assignment, raises `ValueError`.
    """
    nr, nc = cost.shape
    if nr == 0 or nc == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    transpose = nc < nr
    if transpose:
        cost, nr, nc = cost.T, nc, nr
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row `cur`; the columns are scanned in
        # reverse order, as in SciPy (a constant matrix then gives the
        # identity), and a scanned one swaps places with the last
        costs = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows, cols = [cur], []
        i, min_val = cur, 0.0
        while True:
            ci, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < costs[j]:
                    path[j] = i
                    costs[j] = r
                # on a tie a free column wins: it ends the path
                if costs[j] < lowest or (costs[j] == lowest and row4col[j] == -1):
                    lowest, index = costs[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            rows.append(i)

        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - costs[col4row[i]]
        for k in cols:
            v[k] -= min_val - costs[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return np.array([col4row[k] for k in order], np.int64), np.array(order, np.int64)
    return np.arange(nr, dtype=np.int64), np.array(col4row, np.int64)


def update(
    means: np.ndarray, covariances: np.ndarray, rows: np.ndarray, model: KalmanModel,
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold measurement row i into track row i, every row at once (standard
    Kalman update; pure). Returns the new (means, covariances).

    The full state is measured, so H = I and each measurement is a detection
    row. Covariances are symmetrized; one that still has a meaningfully
    negative eigenvalue is clipped, with a diagnostic naming its id from
    `ids`. Non-positive sizes become 0.05 m. The stacked `solve` and matrix
    products round like the one-track ones; `einsum`, or a contiguous copy of
    K, would not.
    """
    s = covariances + model.measurement_cov()
    k = np.linalg.solve(s.transpose(0, 2, 1), covariances.transpose(0, 2, 1)).transpose(0, 2, 1)
    means = means + (k @ (rows - means)[..., None])[..., 0]
    covs = (np.eye(STATE_DIM) - k) @ covariances
    covs = (covs + covs.transpose(0, 2, 1)) / 2.0

    lowest = np.linalg.eigvalsh(covs)[:, 0]
    for i in np.flatnonzero(lowest < -1e-9):
        logger.warning(
            "track %d covariance lost positive semidefiniteness (min eig %.3e); clipping",
            ids[i],
            lowest[i],
        )
        w, v = np.linalg.eigh(covs[i])
        cov = (v * np.maximum(w, 0.0)) @ v.T
        covs[i] = (cov + cov.T) / 2.0

    sizes = means[:, 6:9]
    means[:, 6:9] = np.where(sizes <= 0.0, 0.05, sizes)
    return means, covs


class MultiObjectTracker:
    """Owns the live tracks, as one `TrackTable`; one `forecast`, then one
    `step`, per frame.

    Tracks live in whatever frame the detections are given in; the caller is
    responsible for keeping that frame consistent across steps (the simulator
    uses the global frame).
    """

    def __init__(self, config: Optional[TrackerConfig] = None, model: Optional[KalmanModel] = None):
        self.config = config or TrackerConfig()
        self.model = model or KalmanModel()
        self.tracks = TrackTable.of(())
        self._next_id = 1
        self._pending: Optional[Tuple[TrackTable, float]] = None

    def forecast(self, dt: float) -> TrackTable:
        """The live tracks dt seconds ahead (`forecast_all`), kept as the
        forecast the next `step` updates."""
        table = forecast_all(self.tracks, dt, self.model)
        self._pending = table, dt
        return table

    def step(self, detections: BoxRows, observed: np.ndarray) -> TrackTable:
        """Advance one frame from the pending forecast: associate, update,
        births, removals; returns the new live tracks.

        The caller plans on `forecast(dt)` before detecting; each forecast
        serves exactly one step, and a step without one raises `ValueError`.
        `observed` holds one bool per forecast row: did a detector cover that
        row's view this frame? Matched tracks take one batched `update`.
        Unmatched tracks are penalized (confidence exactly halved) only in
        observed rows; tracks below the confidence threshold are dropped.
        Survivors keep their order; unmatched detections follow as new tracks
        with fresh, never-reused ids. A step with no detections and no
        observed row is a pure predict step: the forecast itself goes live.
        """
        if self._pending is None:
            raise ValueError("step needs a pending forecast: call forecast(dt) first")
        forecast, dt = self._pending
        missed = np.array(observed, bool)
        if missed.shape != (len(forecast),):
            raise ValueError("observed must hold one flag per forecast row")
        self._pending = None
        if not len(detections) and not missed.any():
            self.tracks = forecast
            return forecast
        ti, di, unmatched = associate(forecast, detections, self.config, dt)

        means, covs = forecast.means, forecast.covariances
        confidences = forecast.confidences.copy()
        if len(ti):
            means, covs = means.copy(), covs.copy()
            means[ti], covs[ti] = update(
                means[ti], covs[ti], detections.rows[di], self.model, forecast.ids[ti])
            confidences[ti] = np.maximum(confidences[ti], detections.confidences[di])
            missed[ti] = False
        confidences[missed] *= self.config.confidence_halving
        removed = missed & (confidences < self.config.confidence_threshold)
        survivors = TrackTable(forecast.ids, forecast.classes, confidences, means,
                               covs).take(~removed)

        born = detections.take(unmatched)
        n = len(born)
        births = TrackTable(
            np.arange(self._next_id, self._next_id + n), born.classes, born.confidences, born.rows,
            np.broadcast_to(self.model.birth_cov(), (n, STATE_DIM, STATE_DIM)))
        self._next_id += n
        self.tracks = TrackTable(*map(np.concatenate, zip(survivors.columns(), births.columns())))
        return self.tracks
