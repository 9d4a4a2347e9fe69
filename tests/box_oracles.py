"""Per-box and per-track reference code, kept as oracles for the box-row
and track-table code.

The package carries boxes as rows (`core.BoxRows`). Before it did, every box
was a `Box3D` object, moved, placed, categorized, detected, tracked and scored
one at a time. That code is kept here verbatim, module by module, with
converters between the two forms, so each bit-for-bit property runs the row
code against it:

- core: `Box3D`, `CategoryLevel`, `categorize`, `ego_transform` (with
  `box_to_global` / `box_to_ego`), `view_of` and the rig's `view_of_angle`
- tracker: `TrackState.to_box` and `planar_speed` as `track_box` and
  `track_speed`, `measurement_vector`, the per-pair `associate`, and the
  per-track tracker: `forecast`, `update` and `MultiObjectTracker.step` over
  a list of `TrackState`s, from before the tracker kept its tracks as one
  `TrackTable`
- simulator: the body of `synth_detect`
- metrics: the body of `evaluate_frame`, with its class grouping and
  greedy matcher
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from viewsched.core import (
    CLASSES,
    DISTANCE_EDGES_M,
    GLOBAL_FRAME,
    NUM_DISTANCE_LEVELS,
    NUM_SIZE_LEVELS,
    NUM_VELOCITY_LEVELS,
    SIZE_EDGES_M3,
    VELOCITY_EDGES_MPS,
    BoxRows,
    CameraRig,
    EgoPose,
    ObjectClass,
    wrap_angle,
)
from viewsched.metrics import EvalConfig, FrameEval
from viewsched.simulator import CLASS_DIMS, _confidence
from viewsched.tracker import (
    STATE_DIM,
    KalmanModel,
    TrackerConfig,
    TrackState,
    TrackTable,
    associate as associate_rows,
)

logger = logging.getLogger(__name__)

# -- converters ----------------------------------------------------------------


def to_rows(boxes: Sequence["Box3D"]) -> BoxRows:
    """Boxes as box rows, with the same numbers."""
    return BoxRows.of(
        [[*b.center, *b.velocity, *b.size] for b in boxes],
        [CLASSES.index(b.cls) for b in boxes],
        [b.confidence for b in boxes],
        [b.yaw for b in boxes],
    )


def to_boxes(boxes: BoxRows) -> List["Box3D"]:
    """Box rows as boxes, with the same numbers."""
    return [
        Box3D(center=(x, y, z), size=(w, h, l), velocity=(vx, vy, vz), yaw=yaw,
              cls=CLASSES[code], confidence=conf)
        for (x, y, z, vx, vy, vz, w, h, l), code, conf, yaw in zip(
            boxes.rows.tolist(), boxes.classes.tolist(), boxes.confidences.tolist(),
            boxes.yaws.tolist())
    ]


# -- core -------------------------------------------------------------------------


@dataclass(frozen=True)
class Box3D:
    """A 3D bounding box with velocity, in some ego (or global) frame.

    center : (x, y, z) m
    size   : (w, h, l) m, each > 0
    velocity : (vx, vy, vz) m/s, expressed in the same frame's axes
    yaw    : heading, radians in (-pi, pi]
    """

    center: Tuple[float, float, float]
    size: Tuple[float, float, float]
    velocity: Tuple[float, float, float]
    yaw: float
    cls: ObjectClass
    confidence: float

    def __post_init__(self) -> None:
        if min(self.size) <= 0.0:
            raise ValueError(f"box size must be positive, got {self.size}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def planar_distance(self) -> float:
        return math.hypot(self.center[0], self.center[1])

    @property
    def planar_speed(self) -> float:
        return math.hypot(self.velocity[0], self.velocity[1])

    @property
    def volume(self) -> float:
        w, h, l = self.size
        return w * h * l


def view_of_angle(rig: CameraRig, angle: float) -> int:
    a = wrap_angle(angle)
    if a == math.pi:  # sectors live on [-pi, pi)
        a = -math.pi
    for idx, (lo, hi) in enumerate(rig.sectors):
        if lo < hi:
            if lo <= a < hi:
                return idx
        else:  # wrapped sector
            if a >= lo or a < hi:
                return idx
    # Partition validation tolerates 1e-9 of construction rounding between
    # adjacent edges, so an angle can fall into a float-width gap no sector
    # covers exactly. Claim the sector whose start is nearest at-or-below
    # the angle (wrapping below the smallest start), which agrees with the
    # exact rule everywhere else.
    order = sorted(range(len(rig.sectors)), key=lambda i: rig.sectors[i][0])
    best = order[-1]
    for i in order:
        if rig.sectors[i][0] <= a:
            best = i
        else:
            break
    return best


def view_of(center: Tuple[float, float, float], rig: CameraRig) -> int:
    """View index whose sector contains the box center's bearing."""
    return view_of_angle(rig, math.atan2(center[1], center[0]))


@dataclass(frozen=True)
class CategoryLevel:
    """Discrete (distance, velocity, size) level triple."""

    distance_level: int
    velocity_level: int
    size_level: int

    def __post_init__(self) -> None:
        if not 0 <= self.distance_level < NUM_DISTANCE_LEVELS:
            raise ValueError(f"distance_level out of range: {self.distance_level}")
        if not 0 <= self.velocity_level < NUM_VELOCITY_LEVELS:
            raise ValueError(f"velocity_level out of range: {self.velocity_level}")
        if not 0 <= self.size_level < NUM_SIZE_LEVELS:
            raise ValueError(f"size_level out of range: {self.size_level}")

    @property
    def index(self) -> int:
        """Flat index into the 80-bin grid; distance varies fastest."""
        return (
            self.distance_level
            + NUM_DISTANCE_LEVELS * self.velocity_level
            + NUM_DISTANCE_LEVELS * NUM_VELOCITY_LEVELS * self.size_level
        )


def categorize(box: Box3D) -> CategoryLevel:
    """Assign a box to its category levels.

    Distance and speed are planar (x, y); size uses full box volume.
    Bin intervals are half-open, so a value exactly on an edge belongs to
    the higher bin (e.g. distance 10.0 -> level 1).
    """
    return CategoryLevel(
        distance_level=bisect_right(DISTANCE_EDGES_M, box.planar_distance),
        velocity_level=bisect_right(VELOCITY_EDGES_MPS, box.planar_speed),
        size_level=bisect_right(SIZE_EDGES_M3, box.volume),
    )


def _planar_transform(x, y, vx, vy, from_pose: EgoPose, to_pose: EgoPose):
    cf, sf = math.cos(from_pose.yaw), math.sin(from_pose.yaw)
    gx = from_pose.x + cf * x - sf * y
    gy = from_pose.y + sf * x + cf * y
    gvx = cf * vx - sf * vy
    gvy = sf * vx + cf * vy

    ct, st = math.cos(to_pose.yaw), math.sin(to_pose.yaw)
    dx, dy = gx - to_pose.x, gy - to_pose.y
    nx = ct * dx + st * dy
    ny = -st * dx + ct * dy
    nvx = ct * gvx + st * gvy
    nvy = -st * gvx + ct * gvy
    return nx, ny, nvx, nvy


def ego_transform(box: Box3D, from_pose: EgoPose, to_pose: EgoPose) -> Box3D:
    """Re-express a box given in `from_pose`'s frame in `to_pose`'s frame.

    Planar rigid transform: center translates and rotates, velocity and yaw
    rotate (velocity is a free vector; no ego-motion subtraction), z and size
    pass through.
    """
    nx, ny, nvx, nvy = _planar_transform(
        box.center[0], box.center[1], box.velocity[0], box.velocity[1], from_pose, to_pose
    )
    return Box3D(
        center=(nx, ny, box.center[2]),
        size=box.size,
        velocity=(nvx, nvy, box.velocity[2]),
        yaw=wrap_angle(box.yaw + from_pose.yaw - to_pose.yaw),
        cls=box.cls,
        confidence=box.confidence,
    )


def box_to_global(box: Box3D, pose: EgoPose) -> Box3D:
    """Lift an ego-frame box into the global frame."""
    return ego_transform(box, pose, GLOBAL_FRAME)


def box_to_ego(box: Box3D, pose: EgoPose) -> Box3D:
    """Project a global-frame box into an ego frame."""
    return ego_transform(box, GLOBAL_FRAME, pose)


# -- tracker ----------------------------------------------------------------------

_GATING_COST = 1.0e9


def track_box(track: TrackState) -> Box3D:
    m = track.mean
    return Box3D(
        center=(float(m[0]), float(m[1]), float(m[2])),
        size=(float(m[6]), float(m[7]), float(m[8])),
        velocity=(float(m[3]), float(m[4]), float(m[5])),
        yaw=track.yaw,
        cls=track.cls,
        confidence=track.confidence,
    )


def track_speed(track: TrackState) -> float:
    return math.hypot(float(track.mean[3]), float(track.mean[4]))


def measurement_vector(box: Box3D) -> np.ndarray:
    return np.array(
        [*box.center, *box.velocity, *box.size],
        dtype=np.float64,
    )


def associate(
    tracks: Sequence[TrackState],
    detections: Sequence[Box3D],
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

    cost = np.full((nt, nd), _GATING_COST, dtype=np.float64)
    for ti, track in enumerate(tracks):
        gate = config.base_gate_m + track_speed(track) * dt
        tx, ty = float(track.mean[0]), float(track.mean[1])
        for di, det in enumerate(detections):
            if det.cls is not track.cls:
                continue
            d = math.hypot(det.center[0] - tx, det.center[1] - ty)
            if d <= gate:
                cost[ti, di] = d

    rows, cols = linear_sum_assignment(cost)
    matches: List[Tuple[int, int]] = []
    for ti, di in zip(rows, cols):
        if cost[ti, di] < _GATING_COST:
            matches.append((int(ti), int(di)))
    matched_t = {ti for ti, _ in matches}
    matched_d = {di for _, di in matches}
    return (
        matches,
        [i for i in range(nt) if i not in matched_t],
        [i for i in range(nd) if i not in matched_d],
    )


def forecast(track: TrackState, dt: float, model: KalmanModel) -> TrackState:
    """One track propagated dt seconds ahead."""
    a = model.transition(dt)
    mean = a @ track.mean
    cov = a @ track.covariance @ a.T + model.process_cov(dt)
    return replace(track, mean=mean, covariance=cov)


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
    """The live tracks as a list of `TrackState`s; one `step` per frame."""

    def __init__(self, config: Optional[TrackerConfig] = None, model: Optional[KalmanModel] = None):
        self.config = config or TrackerConfig()
        self.model = model or KalmanModel()
        self.tracks: List[TrackState] = []
        self._next_id = 1

    def step(
        self, detections: BoxRows, dt: float, observed: Optional[Sequence[bool]] = None
    ) -> List[TrackState]:
        """Forecast, associate, update, births, removals: one frame.

        `observed` holds one bool per live track (None: every track); an
        unmatched track is penalized only where it is set. Association runs
        the package's `associate` on the forecast tracks.
        """
        forecast_ = [forecast(t, dt, self.model) for t in self.tracks]
        if observed is None:
            observed = [True] * len(forecast_)
        # survivors are one frame older; births below start at age 0
        predicted = [replace(t, age=t.age + 1) for t in forecast_]
        matches, um_tracks, um_dets = associate_rows(
            TrackTable.of(forecast_), detections, self.config, dt)

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


# -- simulator --------------------------------------------------------------------

_FP_CLASSES = tuple(sorted(CLASS_DIMS, key=lambda c: c.value))  # a false positive's classes


def synth_detect(
    branch,
    boxes: Sequence[Box3D],
    capability,
    rng: np.random.Generator,
    sector: Tuple[float, float],
    max_range_m: float = 60.0,
    levels: Optional[Sequence[CategoryLevel]] = None,
) -> List[Box3D]:
    """Stand-in for running one detector branch on one view.

    Each ground-truth box survives with its category recall, then gets
    position/velocity/size noise per the profile; Poisson false positives are
    placed uniformly over the sector's area. Deterministic given the rng
    stream. The tracker branch has no capability row: it raises ValueError.
    `levels` holds `categorize(box)` of each box, for callers that draw
    several branches on one view; by default they are computed here.
    """
    row = capability.row(branch)
    c = capability.confidence
    out: List[Box3D] = []
    for box, level in zip(boxes, map(categorize, boxes) if levels is None else levels):
        dist = level.distance_level
        if rng.random() >= row.recall[dist]:
            continue
        sp = row.sigma_pos[dist]
        sv = row.sigma_vel[level.velocity_level][dist]
        ss = row.sigma_size[level.size_level]
        dx, dy = (rng.normal(0.0, sp, 2) if sp > 0 else (0.0, 0.0))
        dvx, dvy = (rng.normal(0.0, sv, 2) if sv > 0 else (0.0, 0.0))
        dsize = rng.normal(0.0, ss, 3) if ss > 0 else np.zeros(3)
        size = tuple(max(float(s + d), 0.05) for s, d in zip(box.size, dsize))
        conf = _confidence(rng, c.tp_mean, c.tp_sd, c)
        out.append(
            Box3D(
                center=(box.center[0] + float(dx), box.center[1] + float(dy), box.center[2]),
                size=size,  # type: ignore[arg-type]
                velocity=(box.velocity[0] + float(dvx), box.velocity[1] + float(dvy), box.velocity[2]),
                yaw=box.yaw,
                cls=box.cls,
                confidence=conf,
            )
        )

    lam = row.fp_rate
    n_fp = int(rng.poisson(lam)) if lam > 0 else 0
    lo, hi = sector
    width = hi - lo
    if width <= 0:
        width += 2.0 * math.pi
    for _ in range(n_fp):
        r = math.sqrt(rng.uniform((2.0 / max_range_m) ** 2, 1.0)) * max_range_m
        theta = wrap_angle(lo + rng.uniform(0.0, width))
        cls_ = _FP_CLASSES[int(rng.integers(0, len(_FP_CLASSES)))]
        dims = CLASS_DIMS[cls_]
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.0, 3.0)
        conf = _confidence(rng, c.fp_mean, c.fp_sd, c)
        out.append(
            Box3D(
                center=(r * math.cos(theta), r * math.sin(theta), dims[1] / 2.0),
                size=dims,
                velocity=(speed * math.cos(heading), speed * math.sin(heading), 0.0),
                yaw=heading,
                cls=cls_,
                confidence=conf,
            )
        )
    return out


# -- metrics ----------------------------------------------------------------------

# per prediction, the claimed (gt index, planar distance), or None
Claims = List[Optional[Tuple[int, float]]]


def _by_class(boxes: Sequence[Box3D], ranked: bool = False) -> Dict[ObjectClass, List[int]]:
    """Per class, its box indices: in input order, or when `ranked` in visit
    order (descending confidence, ties in input order)."""
    order = range(len(boxes))
    if ranked:
        order = sorted(order, key=lambda i: -boxes[i].confidence)
    groups: Dict[ObjectClass, List[int]] = {}
    for i in order:
        groups.setdefault(boxes[i].cls, []).append(i)
    return groups


def _greedy_claims(
    preds: Sequence[Box3D],
    gts: Sequence[Box3D],
    p_idx: Sequence[int],
    g_idx: Sequence[int],
    thresholds: Sequence[float],
) -> List[Claims]:
    """Greedy matching of one class at every threshold.

    The predictions `p_idx` are visited in order; each claims the nearest
    still-unclaimed ground truth in `g_idx` within the threshold (distance
    ties go to the lower index). A prediction only ever claims ground truth
    of its own class, so classes match independently, and each pair's planar
    center distance is computed once for all thresholds.
    """
    reach = max(thresholds)
    nearest: List[List[Tuple[float, int]]] = []
    for pi in p_idx:
        px, py = preds[pi].center[0], preds[pi].center[1]
        cands = []
        for gi in g_idx:
            d = math.hypot(px - gts[gi].center[0], py - gts[gi].center[1])
            if d <= reach:
                cands.append((d, gi))
        cands.sort()
        nearest.append(cands)
    out: List[Claims] = []
    for threshold in thresholds:
        taken = set()
        claims: Claims = []
        for cands in nearest:
            claim = None
            for d, gi in cands:
                if d > threshold:
                    break
                if gi not in taken:
                    taken.add(gi)
                    claim = (gi, d)
                    break
            claims.append(claim)
        out.append(claims)
    return out


def _class_outcome(
    preds: Sequence[Box3D],
    gts: Sequence[Box3D],
    p_idx: Sequence[int],
    g_idx: Sequence[int],
    config: EvalConfig,
) -> Tuple[List[List[bool]], Tuple[Tuple[float, float], ...]]:
    """One class's matches: per threshold, the TP flag of each prediction in
    visit order; and (translation m, velocity m/s) per true positive at the
    error threshold, in prediction index order."""
    claims = _greedy_claims(preds, gts, p_idx, g_idx, config.match_thresholds)
    flags = [[c is not None for c in row] for row in claims]
    at_error = claims[config.match_thresholds.index(config.tp_error_threshold)]
    errors = []
    for pi, (gi, d) in sorted((pi, c) for pi, c in zip(p_idx, at_error) if c is not None):
        vp, vg = preds[pi].velocity, gts[gi].velocity
        errors.append((d, math.hypot(vp[0] - vg[0], vp[1] - vg[1])))
    return flags, tuple(errors)


def evaluate_frame(
    preds: Sequence[Box3D], gts: Sequence[Box3D], config: Optional[EvalConfig] = None
) -> FrameEval:
    config = config or EvalConfig()
    p_groups, g_groups = _by_class(preds, ranked=True), _by_class(gts)
    gt_counts: Dict[ObjectClass, int] = {}
    pred_records: Dict[ObjectClass, Dict[float, Tuple[Tuple[float, bool], ...]]] = {}
    tp_errors: Dict[ObjectClass, Tuple[Tuple[float, float], ...]] = {}
    fp_counts: Dict[ObjectClass, int] = {}
    fn_counts: Dict[ObjectClass, int] = {}
    for cls in config.classes:
        p_idx, g_idx = p_groups.get(cls, []), g_groups.get(cls, [])
        flags, errors = _class_outcome(preds, gts, p_idx, g_idx, config)
        confs = [preds[pi].confidence for pi in p_idx]
        gt_counts[cls] = len(g_idx)
        pred_records[cls] = {
            t: tuple(zip(confs, row)) for t, row in zip(config.match_thresholds, flags)
        }
        tp_errors[cls] = errors
        fp_counts[cls] = len(p_idx) - len(errors)
        fn_counts[cls] = len(g_idx) - len(errors)
    return FrameEval(
        gt_counts=gt_counts,
        pred_records=pred_records,
        tp_errors=tp_errors,
        fp_counts=fp_counts,
        fn_counts=fn_counts,
    )
