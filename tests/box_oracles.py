"""Per-box and per-track reference code, kept as oracles for the box-row
and track-table code.

The package carries boxes as rows (`core.BoxRows`). Before it did, every box
was a `Box3D` object, moved, placed, categorized, detected, tracked and scored
one at a time. That code is kept here, module by module, less the headings
that nothing read, with converters between the two forms, so each
bit-for-bit property runs the row code against it:

- core: `Box3D`, `CategoryLevel`, `categorize`, `ego_transform` (with
  `box_to_global` / `box_to_ego`), `view_of` and the rig's `view_of_angle`
- tracker: `TrackState.to_box` and `planar_speed` as `track_box` and
  `track_speed`, `measurement_vector`, the per-pair `associate`, and the
  per-track tracker: `forecast`, `update` and `MultiObjectTracker.step` over
  a list of `TrackState`s, from before the tracker kept its tracks as one
  `TrackTable`
- simulator: the body of `synth_detect`
- metrics: the per-class greedy matcher and the per-frame `FrameEval` with
  its `evaluate_frame`, `average_precision` and `summarize`, from before one
  array matcher scored many (predictions, ground truth) pairs at once; and
  `frame_evals`, each pair's matches as a `FrameEval`
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    class_codes,
    wrap_angle,
)
from viewsched.metrics import EvalConfig, Matches, _interpolated_ap, detection_score
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
    )


def to_boxes(boxes: BoxRows) -> List["Box3D"]:
    """Box rows as boxes, with the same numbers."""
    return [
        Box3D(center=(x, y, z), size=(w, h, l), velocity=(vx, vy, vz), cls=CLASSES[code],
              confidence=conf)
        for (x, y, z, vx, vy, vz, w, h, l), code, conf in zip(
            boxes.rows.tolist(), boxes.classes.tolist(), boxes.confidences.tolist())
    ]


# -- core -------------------------------------------------------------------------


@dataclass(frozen=True)
class Box3D:
    """A 3D bounding box with velocity, in some ego (or global) frame.

    center : (x, y, z) m
    size   : (w, h, l) m, each > 0
    velocity : (vx, vy, vz) m/s, expressed in the same frame's axes
    """

    center: Tuple[float, float, float]
    size: Tuple[float, float, float]
    velocity: Tuple[float, float, float]
    cls: ObjectClass
    confidence: float

    def __post_init__(self) -> None:
        if min(self.size) <= 0.0:
            raise ValueError(f"box size must be positive, got {self.size}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

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

    Planar rigid transform: center translates and rotates, velocity rotates
    (velocity is a free vector; no ego-motion subtraction), z and size pass
    through.
    """
    nx, ny, nvx, nvy = _planar_transform(
        box.center[0], box.center[1], box.velocity[0], box.velocity[1], from_pose, to_pose
    )
    return Box3D(
        center=(nx, ny, box.center[2]),
        size=box.size,
        velocity=(nvx, nvy, box.velocity[2]),
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
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Match forecast tracks to detections.

    Cost is planar center distance. A pair is admissible only if the classes
    agree and the distance is within base_gate + track_speed * dt (faster
    objects are allowed to drift further between frames). Returns
    (matches as (track_idx, det_idx), unmatched detection indices); the
    assignment minimizes total admissible cost.

    Its solver is SciPy's `linear_sum_assignment`, the reference twin of the
    tracker's port of it, so the association properties check that port on
    every example they draw.
    """
    nt, nd = len(tracks), len(detections)
    if nt == 0 or nd == 0:
        return [], list(range(nd))

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
    matched_d = {di for _, di in matches}
    return matches, [i for i in range(nd) if i not in matched_d]


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
    detection's value.
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
        track_idx, det_idx, um_dets = associate_rows(
            TrackTable.of(forecast_), detections, self.config, dt)

        survivors: List[TrackState] = [None] * len(forecast_)  # type: ignore[list-item]
        for ti, di in zip(track_idx.tolist(), det_idx.tolist()):
            survivors[ti] = update(forecast_[ti], detections, self.model, di)

        matched = set(track_idx.tolist())
        for ti, track in enumerate(forecast_):
            if ti in matched:
                continue
            if observed[ti]:
                conf = track.confidence * self.config.confidence_halving
                if conf < self.config.confidence_threshold:
                    continue  # removed
                survivors[ti] = replace(track, confidence=conf)
            else:
                survivors[ti] = track

        new_tracks = [t for t in survivors if t is not None]

        classes = detections.classes.tolist()
        confidences = detections.confidences.tolist()
        for di in um_dets.tolist():
            new_tracks.append(
                TrackState(
                    track_id=self._next_id,
                    mean=detections.rows[di].copy(),
                    covariance=self.model.birth_cov(),
                    cls=CLASSES[classes[di]],
                    confidence=confidences[di],
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
        heading = rng.uniform(-math.pi, math.pi)  # sets the velocity
        speed = rng.uniform(0.0, 3.0)
        conf = _confidence(rng, c.fp_mean, c.fp_sd, c)
        out.append(
            Box3D(
                center=(r * math.cos(theta), r * math.sin(theta), dims[1] / 2.0),
                size=dims,
                velocity=(speed * math.cos(heading), speed * math.sin(heading), 0.0),
                cls=cls_,
                confidence=conf,
            )
        )
    return out


# -- metrics ----------------------------------------------------------------------
#
# The per-class matcher and the per-frame evaluation from before one array
# matcher scored many pairs at once: `evaluate_frame` returns one frame's
# `FrameEval` dictionaries, and `summarize` and `average_precision` read an
# episode off a list of them.


@dataclass(frozen=True)
class FrameEval:
    """Match bookkeeping for one frame at every configured threshold.

    pred_records holds, per class and threshold, the frame's predictions as
    (confidence, is_tp) in descending confidence; tp_errors holds
    (translation m, velocity m/s) per true positive at the error threshold.
    """

    gt_counts: Mapping[ObjectClass, int]
    pred_records: Mapping[ObjectClass, Mapping[float, Tuple[Tuple[float, bool], ...]]]
    tp_errors: Mapping[ObjectClass, Tuple[Tuple[float, float], ...]]
    fp_counts: Mapping[ObjectClass, int]
    fn_counts: Mapping[ObjectClass, int]


# per prediction, the claimed (gt index, planar distance), or None
Claims = List[Optional[Tuple[int, float]]]
# a frame's box rows as lists of 9 floats, as `BoxRows.rows.tolist()` gives them
Rows = List[List[float]]


def _by_class(boxes: BoxRows, ranked: bool = False) -> Dict[int, List[int]]:
    """Per class code, its box indices: in input order, or when `ranked` in
    visit order (descending confidence, ties in input order)."""
    codes = boxes.classes.tolist()
    order: Sequence[int] = range(len(codes))
    if ranked:
        confidences = boxes.confidences.tolist()
        order = sorted(order, key=lambda i: -confidences[i])  # stable: ties keep input order
    groups: Dict[int, List[int]] = {}
    for i in order:
        groups.setdefault(codes[i], []).append(i)
    return groups


def _greedy_claims(
    preds: Rows,
    gts: Rows,
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
        px, py = preds[pi][0], preds[pi][1]
        cands = []
        for gi in g_idx:
            d = math.hypot(px - gts[gi][0], py - gts[gi][1])
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
    preds: Rows,
    gts: Rows,
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
        vp, vg = preds[pi], gts[gi]
        errors.append((d, math.hypot(vp[3] - vg[3], vp[4] - vg[4])))
    return flags, tuple(errors)


def evaluate_frame(
    preds: BoxRows, gts: BoxRows, config: Optional[EvalConfig] = None
) -> FrameEval:
    config = config or EvalConfig()
    p_groups, g_groups = _by_class(preds, ranked=True), _by_class(gts)
    p_rows, g_rows = preds.rows.tolist(), gts.rows.tolist()
    confidences = preds.confidences.tolist()
    gt_counts: Dict[ObjectClass, int] = {}
    pred_records: Dict[ObjectClass, Dict[float, Tuple[Tuple[float, bool], ...]]] = {}
    tp_errors: Dict[ObjectClass, Tuple[Tuple[float, float], ...]] = {}
    fp_counts: Dict[ObjectClass, int] = {}
    fn_counts: Dict[ObjectClass, int] = {}
    for cls, code in zip(config.classes, class_codes(config.classes).tolist()):
        p_idx, g_idx = p_groups.get(code, []), g_groups.get(code, [])
        flags, errors = _class_outcome(p_rows, g_rows, p_idx, g_idx, config)
        confs = [confidences[pi] for pi in p_idx]
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


def average_precision(
    frames: Sequence[FrameEval],
    cls: ObjectClass,
    threshold: float,
    config: Optional[EvalConfig] = None,
) -> Optional[float]:
    """AP for one class at one match threshold, accumulated across frames.

    Returns None when the class has no ground truth anywhere (undefined),
    0.0 when it has ground truth but no predictions.
    """
    config = config or EvalConfig()
    npos = sum(f.gt_counts.get(cls, 0) for f in frames)
    if npos == 0:
        return None

    records: List[Tuple[float, bool]] = []
    for f in frames:
        records.extend(f.pred_records.get(cls, {}).get(threshold, ()))
    if not records:
        return 0.0
    records.sort(key=lambda r: -r[0])
    tp = np.array([[is_tp for _, is_tp in records]], dtype=bool)
    return float(_interpolated_ap(tp, np.array([npos]), config.min_recall)[0])


def _mean_errors(errors: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Mean translation and velocity error over true positives; without any,
    the worst case 1.0 for both."""
    if not errors:
        return 1.0, 1.0
    return float(np.mean([e[0] for e in errors])), float(np.mean([e[1] for e in errors]))


def summarize(frames: Sequence[FrameEval], config: Optional[EvalConfig] = None) -> dict:
    """Episode-level metrics from accumulated frame evaluations.

    mAP averages AP over every (class with ground truth, threshold) cell.
    mATE / mAVE are plain means over true-positive errors at the error
    threshold and fall back to the worst case 1.0 when there are no true
    positives at all (flagged).
    """
    config = config or EvalConfig()
    flags: List[str] = []
    per_class: Dict[str, dict] = {}
    ap_values: List[float] = []

    for cls in config.classes:
        npos = sum(f.gt_counts.get(cls, 0) for f in frames)
        aps: Dict[str, Optional[float]] = {}
        for threshold in config.match_thresholds:
            ap = average_precision(frames, cls, threshold, config)
            aps[f"{threshold:g}"] = ap
            if ap is not None:
                ap_values.append(ap)
        errs = [e for f in frames for e in f.tp_errors.get(cls, ())]
        per_class[cls.value] = {
            "gt": npos,
            "ap": aps,
            "tp": len(errs),
            "fp": sum(f.fp_counts.get(cls, 0) for f in frames),
            "fn": sum(f.fn_counts.get(cls, 0) for f in frames),
            "ate": float(np.mean([e[0] for e in errs])) if errs else None,
            "ave": float(np.mean([e[1] for e in errs])) if errs else None,
        }

    if ap_values:
        m_ap = float(np.mean(ap_values))
    else:
        m_ap = 0.0
        flags.append("no_ground_truth")

    all_errs = [e for f in frames for cls in config.classes for e in f.tp_errors.get(cls, ())]
    m_ate, m_ave = _mean_errors(all_errs)
    if not all_errs:
        flags.append("no_true_positives")

    return {
        "mAP": m_ap,
        "mATE": m_ate,
        "mAVE": m_ave,
        "DS": detection_score(m_ap, m_ate, m_ave),
        "per_class": per_class,
        "flags": flags,
    }


def frame_evals(matches: Matches) -> List[FrameEval]:
    """Each pair of `matches` as the `FrameEval` that `evaluate_frame` gives."""
    config = matches.config
    confs, tp = matches.confidences.tolist(), matches.tp.tolist()
    error_t = config.match_thresholds.index(config.tp_error_threshold)
    out = []
    for k, gt_counts in enumerate(matches.gt_counts.tolist()):
        ev = FrameEval({}, {}, {}, {}, {})
        for c, cls in enumerate(config.classes):
            mine = np.flatnonzero((matches.pairs == k) & (matches.classes == c)).tolist()
            ranked = sorted(mine, key=lambda i: -confs[i])
            hits = [i for i in mine if tp[i][error_t]]
            ev.gt_counts[cls] = gt_counts[c]
            ev.pred_records[cls] = {t: tuple((confs[i], tp[i][j]) for i in ranked)
                                    for j, t in enumerate(config.match_thresholds)}
            ev.tp_errors[cls] = tuple(zip(matches.translation[hits].tolist(),
                                          matches.velocity[hits].tolist()))
            ev.fp_counts[cls] = len(mine) - len(hits)
            ev.fn_counts[cls] = gt_counts[c] - len(hits)
        out.append(ev)
    return out
