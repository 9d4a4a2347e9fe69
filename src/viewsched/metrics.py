"""Detection quality metrics on center-distance matching.

Predictions and ground truth are `BoxRows` of one frame. Average precision
is computed per (class, distance threshold) from confidence-ranked
predictions matched greedily to ground truth, class code by class code;
translation and velocity errors come from the true-positive pairs at one
fixed threshold.
The composite detection score folds mAP and both error terms into a single
[0, 1] number used as the scheduler's training target and the comparison
metric between policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import BoxRows, ObjectClass, class_codes


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
        if len(set(self.classes)) != len(self.classes):
            # a repeated class would count its AP cells and its errors twice
            raise ValueError("classes must be distinct")
        if self.tp_error_threshold not in thresholds:
            raise ValueError("tp_error_threshold must be one of match_thresholds")
        if not 0.0 <= self.min_recall < 1.0:
            raise ValueError("min_recall must be in [0, 1)")
        if round(self.min_recall * 100) >= 100:
            raise ValueError("min_recall leaves no recall-grid point above the floor")


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
    # recall is sorted, so counting the entries below r is searchsorted(left);
    # counted over the leading axis, the count adds whole (rows, grid) slabs
    k = (recall.T[:, :, None] < grid).sum(axis=0)
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


def view_detection_scores(
    branch_preds: Sequence[BoxRows],
    gts: BoxRows,
    config: Optional[EvalConfig] = None,
) -> np.ndarray:
    """Each branch's one-frame composite score on one view: entry b equals
    ``summarize([evaluate_frame(branch_preds[b], gts, config)], config)["DS"]``
    bit for bit, as every mean adds the same values in the same order.

    All branches share the classes with ground truth, so their (class,
    threshold) rows take one AP pass and mAP is a row mean. A view without
    ground truth, or a branch with no prediction of its classes, scores 0.0.
    """
    config = config or EvalConfig()
    g_groups = _by_class(gts)
    g_rows = gts.rows.tolist()
    classes = [code for code in class_codes(config.classes).tolist() if code in g_groups]
    if not classes:
        return np.zeros(len(branch_preds))  # every AP undefined and the errors worst-case
    rows: List[List[bool]] = []
    errors: List[List[Tuple[float, float]]] = []
    for preds in branch_preds:
        p_groups = _by_class(preds, ranked=True)
        p_rows = preds.rows.tolist()
        errs: List[Tuple[float, float]] = []
        for code in classes:
            p_idx = p_groups.get(code, [])
            flags, class_errs = _class_outcome(p_rows, g_rows, p_idx, g_groups[code], config)
            rows.extend(flags)
            errs.extend(class_errs)  # by prediction index within a class, as summarize has them
        errors.append(errs)
    width = max(map(len, rows))
    if width == 0:
        return np.zeros(len(branch_preds))  # every AP is 0.0 and the errors worst-case
    tp = np.array([row + [False] * (width - len(row)) for row in rows], dtype=bool)
    npos = np.repeat([len(g_groups[code]) for code in classes], len(config.match_thresholds))
    aps = _interpolated_ap(tp, np.tile(npos, len(branch_preds)), config.min_recall)
    m_ap = aps.reshape(len(branch_preds), -1).mean(axis=1).tolist()
    m_err = _branch_mean_errors(errors).tolist()
    return np.array([detection_score(a, *e) for a, e in zip(m_ap, m_err)])


def _mean_errors(errors: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Mean translation and velocity error over true positives; without any,
    the worst case 1.0 for both."""
    if not errors:
        return 1.0, 1.0
    return float(np.mean([e[0] for e in errors])), float(np.mean([e[1] for e in errors]))


def _branch_mean_errors(errors: Sequence[Sequence[Tuple[float, float]]]) -> np.ndarray:
    """Per branch, `_mean_errors` of its true-positive errors, without one
    `np.mean` per branch: branches with as many errors share one array whose
    error columns are C-contiguous rows, so each sums as `np.mean` sums it
    alone (a mean across a strided axis adds in another order)."""
    means = np.ones((len(errors), 2))
    by_count: Dict[int, List[int]] = {}
    for b, errs in enumerate(errors):
        if errs:
            by_count.setdefault(len(errs), []).append(b)
    for members in by_count.values():
        # (2, branches, count): translation rows, then velocity rows
        columns = np.array([errors[b] for b in members]).transpose(2, 0, 1).copy()
        means[members] = columns.mean(axis=2).T
    return means


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
