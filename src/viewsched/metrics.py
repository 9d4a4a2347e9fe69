"""Detection quality metrics on center-distance matching.

Average precision is computed per (class, distance threshold) from
confidence-ranked predictions matched greedily to ground truth; translation
and velocity errors come from the true-positive pairs at one fixed threshold.
The composite detection score folds mAP and both error terms into a single
[0, 1] number used as the scheduler's training target and the comparison
metric between policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import Box3D, ObjectClass


@dataclass(frozen=True)
class EvalConfig:
    match_thresholds: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    tp_error_threshold: float = 2.0  # must be one of match_thresholds
    min_recall: float = 0.10
    classes: Tuple[ObjectClass, ...] = tuple(ObjectClass)

    def __post_init__(self) -> None:
        thresholds = self.match_thresholds
        if not thresholds or not all(math.isfinite(t) and t > 0.0 for t in thresholds):
            raise ValueError("match_thresholds must be non-empty, finite and positive")
        if len(set(thresholds)) != len(thresholds):
            # a repeated threshold would count its AP cells twice in mAP
            raise ValueError("match_thresholds must be distinct")
        if self.tp_error_threshold not in thresholds:
            raise ValueError("tp_error_threshold must be one of match_thresholds")
        if not 0.0 <= self.min_recall < 1.0:
            raise ValueError("min_recall must be in [0, 1)")
        if round(self.min_recall * 100) >= 100:
            raise ValueError("min_recall leaves no recall-grid point above the floor")


@dataclass(frozen=True)
class MatchResult:
    pairs: Tuple[Tuple[int, int], ...]  # (pred_idx, gt_idx)
    unmatched_preds: Tuple[int, ...]
    unmatched_gts: Tuple[int, ...]


# per prediction, the claimed (gt index, planar distance), or None
Claims = List[Optional[Tuple[int, float]]]


def _by_class(
    preds: Sequence[Box3D], gts: Sequence[Box3D]
) -> Dict[ObjectClass, Tuple[List[int], List[int]]]:
    """Per class, its prediction indices in visit order (descending
    confidence, ties in input order) and its ground-truth indices."""
    groups: Dict[ObjectClass, Tuple[List[int], List[int]]] = {}
    for pi in sorted(range(len(preds)), key=lambda i: -preds[i].confidence):
        groups.setdefault(preds[pi].cls, ([], []))[0].append(pi)
    for gi, gt in enumerate(gts):
        groups.setdefault(gt.cls, ([], []))[1].append(gi)
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


def match(preds: Sequence[Box3D], gts: Sequence[Box3D], threshold: float) -> MatchResult:
    """Greedy one-frame matching.

    Predictions are visited in descending confidence (ties keep input order);
    each claims the nearest still-unmatched ground-truth box of the same
    class within `threshold` meters of planar center distance.
    """
    pairs: List[Tuple[int, int]] = []
    for p_idx, g_idx in _by_class(preds, gts).values():
        (claims,) = _greedy_claims(preds, gts, p_idx, g_idx, (threshold,))
        pairs.extend((pi, c[0]) for pi, c in zip(p_idx, claims) if c is not None)
    matched_p = {p for p, _ in pairs}
    matched_g = {g for _, g in pairs}
    return MatchResult(
        pairs=tuple(sorted(pairs)),
        unmatched_preds=tuple(i for i in range(len(preds)) if i not in matched_p),
        unmatched_gts=tuple(i for i in range(len(gts)) if i not in matched_g),
    )


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


def evaluate_frame(
    preds: Sequence[Box3D], gts: Sequence[Box3D], config: Optional[EvalConfig] = None
) -> FrameEval:
    config = config or EvalConfig()
    groups = _by_class(preds, gts)
    gt_counts: Dict[ObjectClass, int] = {}
    pred_records: Dict[ObjectClass, Dict[float, Tuple[Tuple[float, bool], ...]]] = {}
    tp_errors: Dict[ObjectClass, Tuple[Tuple[float, float], ...]] = {}
    fp_counts: Dict[ObjectClass, int] = {}
    fn_counts: Dict[ObjectClass, int] = {}
    for cls in config.classes:
        p_idx, g_idx = groups.get(cls, ([], []))
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


_RECALL_GRID = np.linspace(0.0, 1.0, 101)


def _interpolated_ap(tp: np.ndarray, npos: np.ndarray, min_recall: float) -> np.ndarray:
    """AP of each row of TP flags ranked by descending confidence.

    Precision is interpolated as the maximum precision at any recall >= r,
    sampled on a 101-point recall grid; only the points strictly above the
    minimum-recall floor contribute. `npos` is each row's ground-truth count.
    Trailing false positives pad rows to one width without changing their AP:
    they add no recall and no precision above the row's last real one.
    """
    tps = np.cumsum(tp, axis=1, dtype=np.float64)  # exact counts
    recall = tps / npos[:, None]
    precision = tps / np.arange(1, tp.shape[1] + 1)  # rank = cumulative TP + FP
    # max precision over all operating points with recall >= r; the appended
    # 0.0 is the precision of grid points beyond the highest recall reached
    suffix_max = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    suffix_max = np.concatenate((suffix_max, np.zeros((len(tp), 1))), axis=1)
    grid = _RECALL_GRID[int(round(min_recall * 100)) + 1 :]
    # recall is sorted, so counting the entries below r is searchsorted(left)
    k = (recall[:, None, :] < grid[:, None]).sum(axis=2)
    return suffix_max[np.arange(len(tp))[:, None], k].mean(axis=1)


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


def frame_detection_score(
    preds: Sequence[Box3D], gts: Sequence[Box3D], config: Optional[EvalConfig] = None
) -> float:
    """One frame's composite score, equal to
    ``summarize([evaluate_frame(preds, gts, config)], config)["DS"]``.

    Computed directly: one greedy matching per class with ground truth and
    one AP pass over that frame's (class, threshold) rows; the means are taken
    over the same values in the same order, so the result is bit-identical.
    A frame with no ground truth, or no prediction of a class that has some,
    scores exactly 0.0.
    """
    config = config or EvalConfig()
    groups = _by_class(preds, gts)
    rows: List[List[bool]] = []
    npos: List[int] = []
    errors: List[Tuple[float, float]] = []
    for cls in config.classes:
        p_idx, g_idx = groups.get(cls, ([], []))
        if not g_idx:
            continue  # AP undefined and no true positives
        flags, errs = _class_outcome(preds, gts, p_idx, g_idx, config)
        rows.extend(flags)
        npos.extend([len(g_idx)] * len(flags))
        errors.extend(errs)
    width = max(map(len, rows), default=0)
    if width == 0:
        return 0.0  # every AP is 0.0 or undefined and the errors are worst-case
    tp = np.array([row + [False] * (width - len(row)) for row in rows], dtype=bool)
    m_ap = float(np.mean(_interpolated_ap(tp, np.array(npos), config.min_recall)))
    return detection_score(m_ap, *_mean_errors(errors))


def _mean_errors(errors: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Mean translation and velocity error over true positives; without any,
    the worst case 1.0 for both."""
    if not errors:
        return 1.0, 1.0
    return float(np.mean([e[0] for e in errors])), float(np.mean([e[1] for e in errors]))


def detection_score(m_ap: float, m_ate: float, m_ave: float) -> float:
    """Composite score: weighted mAP plus the clipped error complements,
    normalized into [0, 1] (mAP weight 6, each error term weight 2)."""
    return (6.0 * m_ap + 2.0 * max(1.0 - m_ate, 0.0) + 2.0 * max(1.0 - m_ave, 0.0)) / 10.0


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
