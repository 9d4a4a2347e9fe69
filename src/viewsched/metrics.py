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
        if self.tp_error_threshold not in self.match_thresholds:
            raise ValueError("tp_error_threshold must be one of match_thresholds")
        if not 0.0 <= self.min_recall < 1.0:
            raise ValueError("min_recall must be in [0, 1)")


@dataclass(frozen=True)
class MatchResult:
    pairs: Tuple[Tuple[int, int], ...]  # (pred_idx, gt_idx)
    unmatched_preds: Tuple[int, ...]
    unmatched_gts: Tuple[int, ...]


def _planar_dist(a: Box3D, b: Box3D) -> float:
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])


def match(preds: Sequence[Box3D], gts: Sequence[Box3D], threshold: float) -> MatchResult:
    """Greedy one-frame matching.

    Predictions are visited in descending confidence (ties keep input order);
    each claims the nearest still-unmatched ground-truth box of the same
    class within `threshold` meters of planar center distance.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    taken = [False] * len(gts)
    pairs: List[Tuple[int, int]] = []
    for pi in order:
        pred = preds[pi]
        best: Optional[Tuple[float, int]] = None
        for gi, gt in enumerate(gts):
            if taken[gi] or gt.cls is not pred.cls:
                continue
            d = _planar_dist(pred, gt)
            if d <= threshold and (best is None or (d, gi) < best):
                best = (d, gi)
        if best is not None:
            taken[best[1]] = True
            pairs.append((pi, best[1]))
    matched_p = {p for p, _ in pairs}
    return MatchResult(
        pairs=tuple(sorted(pairs)),
        unmatched_preds=tuple(i for i in range(len(preds)) if i not in matched_p),
        unmatched_gts=tuple(i for i, t in enumerate(taken) if not t),
    )


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
    gt_counts = {c: 0 for c in config.classes}
    for gt in gts:
        if gt.cls in gt_counts:
            gt_counts[gt.cls] += 1

    pred_records: Dict[ObjectClass, Dict[float, Tuple[Tuple[float, bool], ...]]] = {
        c: {} for c in config.classes
    }
    tp_errors: Dict[ObjectClass, Tuple[Tuple[float, float], ...]] = {c: () for c in config.classes}
    fp_counts = {c: 0 for c in config.classes}
    fn_counts = {c: 0 for c in config.classes}

    for threshold in config.match_thresholds:
        result = match(preds, gts, threshold)
        tp_pred = {p for p, _ in result.pairs}
        for cls in config.classes:
            recs = [
                (preds[i].confidence, i in tp_pred)
                for i in range(len(preds))
                if preds[i].cls is cls
            ]
            recs.sort(key=lambda r: -r[0])
            pred_records[cls][threshold] = tuple(recs)

        if threshold == config.tp_error_threshold:
            errs: Dict[ObjectClass, List[Tuple[float, float]]] = {c: [] for c in config.classes}
            for pi, gi in result.pairs:
                pred, gt = preds[pi], gts[gi]
                if pred.cls not in errs:
                    continue
                terr = _planar_dist(pred, gt)
                verr = math.hypot(
                    pred.velocity[0] - gt.velocity[0], pred.velocity[1] - gt.velocity[1]
                )
                errs[pred.cls].append((terr, verr))
            for cls in config.classes:
                tp_errors[cls] = tuple(errs[cls])
                fp_counts[cls] = sum(
                    1 for i in result.unmatched_preds if preds[i].cls is cls
                )
                fn_counts[cls] = sum(1 for i in result.unmatched_gts if gts[i].cls is cls)

    return FrameEval(
        gt_counts=gt_counts,
        pred_records=pred_records,
        tp_errors=tp_errors,
        fp_counts=fp_counts,
        fn_counts=fn_counts,
    )


_RECALL_GRID = np.linspace(0.0, 1.0, 101)


def average_precision(
    frames: Sequence[FrameEval],
    cls: ObjectClass,
    threshold: float,
    config: Optional[EvalConfig] = None,
) -> Optional[float]:
    """AP for one class at one match threshold, accumulated across frames.

    Precision is interpolated as the maximum precision at any recall >= r,
    sampled on a 101-point recall grid; only the points strictly above the
    minimum-recall floor contribute. Returns None when the class has no
    ground truth anywhere (undefined), 0.0 when it has ground truth but no
    predictions.
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

    tps = np.cumsum([1.0 if tp else 0.0 for _, tp in records])
    fps = np.cumsum([0.0 if tp else 1.0 for _, tp in records])
    recall = tps / npos
    precision = tps / (tps + fps)

    # max precision over all operating points with recall >= r; the appended
    # 0.0 is the precision of grid points beyond the highest recall reached
    suffix_max = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    start = int(round(config.min_recall * 100)) + 1
    k = np.searchsorted(recall, _RECALL_GRID[start:], side="left")
    return float(np.mean(suffix_max[k]))


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
    if all_errs:
        m_ate = float(np.mean([e[0] for e in all_errs]))
        m_ave = float(np.mean([e[1] for e in all_errs]))
    else:
        m_ate = 1.0
        m_ave = 1.0
        flags.append("no_true_positives")

    return {
        "mAP": m_ap,
        "mATE": m_ate,
        "mAVE": m_ave,
        "DS": detection_score(m_ap, m_ate, m_ave),
        "per_class": per_class,
        "flags": flags,
    }
