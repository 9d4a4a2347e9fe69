"""Detection quality metrics on center-distance matching.

Predictions and ground truth come as (predictions, ground truth) pairs of
`BoxRows`, one pair per frame or per (view, branch), and one matcher scores
every pair at once (`evaluate_pairs`). Within a pair, each class matches on
its own: confidence-ranked predictions claim ground truth greedily, and
average precision is computed per (class, distance threshold); translation
and velocity errors come from the true-positive pairs at one fixed
threshold. `summarize` reads an episode off all pairs together,
`detection_scores` reads each pair alone.
The composite detection score folds mAP and both error terms into a single
[0, 1] number used as the scheduler's training target and the comparison
metric between policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from .core import CLASSES, NO_BOXES, BoxRows, ObjectClass, math_map


@dataclass(frozen=True)
class EvalConfig:
    """The detection score's settings: nuScenes fixes the match thresholds,
    the error threshold and the classes, so only the AP's recall floor is a field."""

    match_thresholds: ClassVar[Tuple[float, ...]] = (0.5, 1.0, 2.0, 4.0)
    tp_error_threshold: ClassVar[float] = 2.0  # one of match_thresholds
    classes: ClassVar[Tuple[ObjectClass, ...]] = CLASSES  # a class code is its position
    min_recall: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_recall < 1.0:
            raise ValueError("min_recall must be in [0, 1)")
        if round(self.min_recall * 100) >= 100:
            raise ValueError("min_recall leaves no recall-grid point above the floor")


@dataclass(frozen=True, eq=False)
class Matches:
    """The greedy matches of many (predictions, ground truth) pairs.

    Per prediction, in input order (pair after pair):
    pairs       : (P,) int64, the pair it came from
    classes     : (P,) int64, its class code, its position in `config.classes`
    confidences : (P,) float64
    tp          : (P, thresholds) bool, a true positive at each match threshold
    translation : (P,) float64 m, and `velocity` (P,) float64 m/s: its planar
                  errors to the ground truth it claimed at the error
                  threshold, NaN where it claimed none
    gt_counts is (pairs, classes) int64: each pair's ground truth per class.
    """

    config: EvalConfig
    gt_counts: np.ndarray
    pairs: np.ndarray
    classes: np.ndarray
    confidences: np.ndarray
    tp: np.ndarray
    translation: np.ndarray
    velocity: np.ndarray


def _stacked(parts: Sequence[BoxRows]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every part's boxes, part after part: their part index, class code, the
    center and velocity columns of their rows, and confidences."""
    boxes = [NO_BOXES, *parts]  # a part at least, for np.concatenate
    classes = [b.classes for b in boxes]
    part = np.repeat(np.arange(-1, len(parts)), list(map(len, classes)))
    rows = np.concatenate([b.rows[:, :5] for b in boxes])  # the matcher reads no size
    return part, np.concatenate(classes), rows, np.concatenate([b.confidences for b in boxes])


def evaluate_pairs(
    pairs: Sequence[Tuple[BoxRows, BoxRows]], config: Optional[EvalConfig] = None
) -> Matches:
    """Greedy matches of every (predictions, ground truth) pair, at every
    match threshold, all pairs at once.

    Within a pair, each class matches on its own: its predictions are visited
    in descending confidence (ties in input order), and each claims the
    nearest still-unclaimed ground truth of its class within the threshold;
    a distance tie goes to the earlier ground truth. A group is one (pair,
    class) with predictions and ground truth. Step r visits every group's
    r-th prediction together, on a claimed mask of shape (groups, thresholds,
    the largest group's ground truth), so no step holds more than that.
    Every class is scored, so every box takes part.
    """
    config = config or EvalConfig()
    n_cls = len(config.classes)
    thresholds = np.array(config.match_thresholds)
    error_t = config.match_thresholds.index(config.tp_error_threshold)
    p_pair, p_cls, p_rows, p_conf = _stacked([p for p, _ in pairs])
    g_pair, g_cls, g_rows, _ = _stacked([g for _, g in pairs])

    # a cell is one (pair, class); its ground truth sits together, in input order
    g_cell = g_pair * n_cls + g_cls
    gt_counts = np.bincount(g_cell, minlength=len(pairs) * n_cls)
    g_order = np.argsort(g_cell, kind="stable")
    g_start = np.cumsum(gt_counts) - gt_counts
    # the predictions that can match, cell by cell in visit order
    p_cell = p_pair * n_cls + p_cls
    ranked = np.flatnonzero(gt_counts[p_cell] > 0)
    ranked = ranked[np.lexsort((-p_conf[ranked], p_cell[ranked]))]
    cells, group, sizes = np.unique(p_cell[ranked], return_inverse=True, return_counts=True)
    rank = np.arange(len(ranked)) - (np.cumsum(sizes) - sizes)[group]
    # each group's ground truth, padded to the widest group
    widths = gt_counts[cells]
    slots = np.arange(widths.max(initial=0))
    valid = slots < widths[:, None]
    gt_of = g_order[np.where(valid, g_start[cells, None] + slots, 0)]
    gx, gy = g_rows[gt_of, 0], g_rows[gt_of, 1]

    claimed = np.zeros((len(cells), len(thresholds), len(slots)), dtype=bool)
    tp = np.zeros((len(ranked), len(thresholds)), dtype=bool)
    claim = np.zeros(len(ranked), dtype=np.int64)  # the ground truth claimed at the error threshold
    distance = np.zeros(len(ranked))
    by_step = np.argsort(rank, kind="stable")  # each step's predictions in group order
    ends = np.cumsum(np.bincount(rank)).tolist()
    for lo, hi in zip([0, *ends], ends):
        at = by_step[lo:hi]
        g, p = group[at], ranked[at]
        near = np.full((len(at), len(slots)), np.inf)
        ok = valid[g]
        near[ok] = math_map(math.hypot, (p_rows[p, 0, None] - gx[g])[ok],
                            (p_rows[p, 1, None] - gy[g])[ok])
        # the nearest free slot: the first free one by distance, a tie to the lower slot
        by_near = np.argsort(near, axis=1, kind="stable")
        free = (near[:, None, :] <= thresholds[:, None]) & ~claimed[g]
        free = np.take_along_axis(free, by_near[:, None, :], axis=2)
        first = free.argmax(axis=2)
        hit = np.take_along_axis(free, first[:, :, None], axis=2)[:, :, 0]
        slot = np.take_along_axis(by_near, first, axis=1)
        a, t = np.nonzero(hit)
        claimed[g[a], t, slot[a, t]] = True
        tp[at] = hit
        claim[at] = gt_of[g, slot[:, error_t]]
        distance[at] = near[np.arange(len(at)), slot[:, error_t]]

    out_tp = np.zeros((len(p_pair), len(thresholds)), dtype=bool)
    out_tp[ranked] = tp
    translation = np.full(len(p_pair), np.nan)
    velocity = np.full(len(p_pair), np.nan)
    won = tp[:, error_t]
    p, q = ranked[won], claim[won]
    translation[p] = distance[won]
    velocity[p] = math_map(math.hypot, p_rows[p, 3] - g_rows[q, 3], p_rows[p, 4] - g_rows[q, 4])
    return Matches(config, gt_counts.reshape(len(pairs), n_cls), p_pair, p_cls, p_conf,
                   out_tp, translation, velocity)


def evaluate_frame(
    preds: BoxRows, gts: BoxRows, config: Optional[EvalConfig] = None
) -> Matches:
    """One frame's matches: `evaluate_pairs` of the one pair."""
    return evaluate_pairs([(preds, gts)], config)


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
    # k counts each row's recalls below each grid point (recall is sorted, so
    # it is searchsorted(left)). A recall lies below every grid point from the
    # first one above it on, so k is a running count of those first points:
    # memory per row grows with its width plus the grid, not their product
    rows = np.arange(len(tp))[:, None]
    first_above = np.searchsorted(grid, recall, side="right")
    starts = np.bincount((rows * (len(grid) + 1) + first_above).ravel(),
                         minlength=len(tp) * (len(grid) + 1))
    k = starts.reshape(len(tp), len(grid) + 1).cumsum(axis=1)[:, :-1]
    return suffix_max[rows, k].mean(axis=1)


def _run_means(values: np.ndarray, counts: np.ndarray, empty: float) -> np.ndarray:
    """The mean of each run of `values`, run s holding the next `counts[s]`
    entries; `empty` for an empty run. Runs of one length share one
    C-contiguous array whose rows NumPy sums as it sums each run alone, so
    every mean has the bits of `np.mean` of its run (a mean across a strided
    axis adds in another order)."""
    means = np.full(len(counts), empty)
    starts = np.cumsum(counts) - counts
    for k in np.unique(counts[counts > 0]).tolist():
        runs = np.flatnonzero(counts == k)
        means[runs] = values[starts[runs, None] + np.arange(k)].mean(axis=1)
    return means


def _set_scores(
    matches: Matches, per_pair: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The AP of every (set, class, threshold) cell, NaN where the set holds
    no ground truth of the class; then each set's mAP, mATE and mAVE. A set
    is one pair, or all pairs together when `per_pair` is false.

    A cell's predictions are ranked by descending confidence, ties in input
    order. mAP averages a set's defined cells in class, then threshold order
    (0.0 without any); the error means add the set's true positives in pair,
    then class, then input order (1.0 without any).
    """
    config = matches.config
    n_cls, n_thr = len(config.classes), len(config.match_thresholds)
    npos = matches.gt_counts if per_pair else matches.gt_counts.sum(axis=0, keepdims=True)
    sets = matches.pairs if per_pair else np.zeros_like(matches.pairs)
    cells = sets * n_cls + matches.classes
    ranked = matches.tp[np.lexsort((-matches.confidences, cells))]
    widths = np.bincount(cells, minlength=npos.size)
    starts = np.cumsum(widths) - widths
    defined = np.flatnonzero(npos.ravel() > 0)
    aps = np.full((npos.size, n_thr), np.nan)
    aps[defined] = 0.0  # the AP of a cell without predictions, as most are
    # one AP pass per row width: padded to the widest row, every row of the
    # pass would take that width
    for w in sorted(set(widths[defined].tolist()) - {0}):
        rows = defined[widths[defined] == w]
        flags = ranked[starts[rows, None] + np.arange(w)].transpose(0, 2, 1)
        npos_rows = np.repeat(npos.ravel()[rows], n_thr)
        aps[rows] = _interpolated_ap(flags.reshape(-1, w), npos_rows,
                                     config.min_recall).reshape(-1, n_thr)
    m_ap = _run_means(aps[defined].ravel(), (npos > 0).sum(axis=1) * n_thr, 0.0)

    hits = np.flatnonzero(matches.tp[:, config.match_thresholds.index(config.tp_error_threshold)])
    hits = hits[np.lexsort((matches.classes[hits], matches.pairs[hits]))]
    per_set = np.bincount(sets[hits], minlength=len(npos))
    m_ate = _run_means(matches.translation[hits], per_set, 1.0)
    m_ave = _run_means(matches.velocity[hits], per_set, 1.0)
    return aps.reshape(len(npos), n_cls, n_thr), m_ap, m_ate, m_ave


def average_precision(
    matches: Matches, cls: ObjectClass, threshold: float
) -> Optional[float]:
    """AP for one class at one match threshold, accumulated over every pair.

    Returns None when the class has no ground truth anywhere (undefined),
    0.0 when it has ground truth but no predictions. Raises ValueError for
    a threshold that is not a match threshold.
    """
    config = matches.config
    if threshold not in config.match_thresholds:
        raise ValueError(f"no AP cell at {threshold} m: not a match threshold of the EvalConfig")
    aps = _set_scores(matches, per_pair=False)[0]
    ap = aps[0, config.classes.index(cls), config.match_thresholds.index(threshold)]
    return None if math.isnan(ap) else float(ap)


def detection_scores(matches: Matches) -> np.ndarray:
    """Each pair's composite score on its own: entry i equals
    ``summarize`` of pair i alone's ``"DS"`` bit for bit. A pair without
    ground truth, or with no prediction of its classes, scores 0.0."""
    _, m_ap, m_ate, m_ave = _set_scores(matches, per_pair=True)
    scores = zip(m_ap.tolist(), m_ate.tolist(), m_ave.tolist())
    return np.array([detection_score(*s) for s in scores], dtype=np.float64)


def detection_score(m_ap: float, m_ate: float, m_ave: float) -> float:
    """Composite score: weighted mAP plus the clipped error complements,
    normalized into [0, 1] (mAP weight 6, each error term weight 2)."""
    return (6.0 * m_ap + 2.0 * max(1.0 - m_ate, 0.0) + 2.0 * max(1.0 - m_ave, 0.0)) / 10.0


def summarize(matches: Matches) -> dict:
    """Episode-level metrics over every pair of `matches`.

    mAP averages AP over every (class with ground truth, threshold) cell.
    mATE / mAVE are plain means over true-positive errors at the error
    threshold and fall back to the worst case 1.0 when there are no true
    positives at all (flagged).
    """
    config = matches.config
    aps, m_ap, m_ate, m_ave = (v[0] for v in _set_scores(matches, per_pair=False))
    npos = matches.gt_counts.sum(axis=0).tolist()
    hit = matches.tp[:, config.match_thresholds.index(config.tp_error_threshold)]
    per_class: Dict[str, dict] = {}
    for c, cls in enumerate(config.classes):
        mine = matches.classes == c
        ours = hit & mine
        translation, velocity = matches.translation[ours], matches.velocity[ours]
        per_class[cls.value] = {
            "gt": npos[c],
            "ap": {f"{t:g}": ap if npos[c] else None
                   for t, ap in zip(config.match_thresholds, aps[c].tolist())},
            "tp": len(translation),
            "fp": int(np.count_nonzero(mine)) - len(translation),
            "fn": npos[c] - len(translation),
            "ate": float(np.mean(translation)) if len(translation) else None,
            "ave": float(np.mean(velocity)) if len(velocity) else None,
        }

    flags = []
    if not any(npos):
        flags.append("no_ground_truth")
    if not hit.any():
        flags.append("no_true_positives")
    m_ap, m_ate, m_ave = float(m_ap), float(m_ate), float(m_ave)
    return {
        "mAP": m_ap,
        "mATE": m_ate,
        "mAVE": m_ave,
        "DS": detection_score(m_ap, m_ate, m_ave),
        "per_class": per_class,
        "flags": flags,
    }
