"""Detection-metric unit tests, built around hand-checkable oracles."""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import box_oracles
from box_oracles import Box3D, FrameEval, frame_evals, to_rows
from viewsched import metrics
from viewsched.core import ObjectClass
from viewsched.metrics import (
    EvalConfig,
    Matches,
    average_precision,
    detection_score,
    detection_scores,
    evaluate_pairs,
    summarize,
)


def box(x, y, cls=ObjectClass.CAR, conf=0.9, vx=0.0, vy=0.0):
    return Box3D(center=(x, y, 0.8), size=(1.9, 1.6, 4.5), velocity=(vx, vy, 0.0), cls=cls,
                 confidence=conf)


def evaluate_frame(preds, gts, config=None):
    """`metrics.evaluate_frame` of boxes, passed as box rows."""
    return metrics.evaluate_frame(to_rows(preds), to_rows(gts), config)


def evaluate_frames(frames, config=None):
    """`evaluate_pairs` of (predictions, ground truth) box lists."""
    return evaluate_pairs([(to_rows(p), to_rows(g)) for p, g in frames], config)


def frame_eval(preds, gts, config=None):
    """One frame's matches, read off as a `FrameEval`."""
    (ev,) = frame_evals(evaluate_frame(preds, gts, config))
    return ev


def view_scores(branches, gts, config=None):
    """`detection_scores` of each branch's boxes against one view's ground truth."""
    return detection_scores(evaluate_frames([(p, gts) for p in branches], config))


# -- matching -------------------------------------------------------------------
# read off one frame's matches at the 2 m threshold: the TP flags in
# descending confidence, the translation error of each pair, and the fp/fn
# counts


def tp_flags(ev, cls=ObjectClass.CAR, threshold=2.0):
    return [tp for _, tp in ev.pred_records[cls][threshold]]


def pair_distances(ev, cls=ObjectClass.CAR):
    return [terr for terr, _ in ev.tp_errors[cls]]


def test_match_pairs_nearest_within_threshold():
    gts = [box(0.0, 0.0), box(10.0, 0.0)]
    preds = [box(0.4, 0.0, conf=0.9), box(10.3, 0.0, conf=0.8)]
    ev = frame_eval(preds, gts)
    assert tp_flags(ev) == [True, True]
    assert pair_distances(ev) == pytest.approx([0.4, 0.3])  # pred 0 -> gt 0, pred 1 -> gt 1
    assert ev.fp_counts[ObjectClass.CAR] == 0
    assert ev.fn_counts[ObjectClass.CAR] == 0


def test_match_is_greedy_by_confidence():
    # one ground truth, two predictions: the higher-confidence one claims it,
    # even though the other is closer
    gts = [box(0.0, 0.0)]
    preds = [box(1.0, 0.0, conf=0.95), box(0.1, 0.0, conf=0.5)]
    ev = frame_eval(preds, gts)
    assert tp_flags(ev) == [True, False]
    assert pair_distances(ev) == [1.0]
    assert ev.fp_counts[ObjectClass.CAR] == 1
    assert ev.fn_counts[ObjectClass.CAR] == 0


def test_match_respects_class_and_threshold():
    gts = [box(0.0, 0.0, cls=ObjectClass.CAR)]
    preds = [box(0.1, 0.0, cls=ObjectClass.TRUCK, conf=0.9),
             box(5.0, 0.0, cls=ObjectClass.CAR, conf=0.8)]
    ev = frame_eval(preds, gts)
    assert tp_flags(ev) == [False]
    assert tp_flags(ev, ObjectClass.TRUCK) == [False]
    assert pair_distances(ev) == [] and pair_distances(ev, ObjectClass.TRUCK) == []
    assert ev.fp_counts[ObjectClass.CAR] == 1
    assert ev.fp_counts[ObjectClass.TRUCK] == 1
    assert ev.fn_counts[ObjectClass.CAR] == 1


def test_match_threshold_is_inclusive():
    gts = [box(0.0, 0.0)]
    preds = [box(2.0, 0.0)]
    ev = frame_eval(preds, gts)
    assert tp_flags(ev) == [True]
    assert tp_flags(ev, threshold=1.0) == [False]
    assert pair_distances(ev) == [2.0]


# -- frame evaluation -------------------------------------------------------------


def test_evaluate_frame_counts_fp_fn_at_error_threshold():
    gts = [box(0.0, 0.0), box(10.0, 0.0)]
    preds = [box(0.5, 0.0, conf=0.9), box(40.0, 0.0, conf=0.8)]
    ev = frame_eval(preds, gts)
    assert ev.gt_counts[ObjectClass.CAR] == 2
    assert ev.fp_counts[ObjectClass.CAR] == 1
    assert ev.fn_counts[ObjectClass.CAR] == 1
    assert len(ev.tp_errors[ObjectClass.CAR]) == 1
    terr, verr = ev.tp_errors[ObjectClass.CAR][0]
    assert terr == pytest.approx(0.5)
    assert verr == pytest.approx(0.0)


def test_evaluate_frame_velocity_error_is_planar():
    gts = [box(0.0, 0.0, vx=3.0, vy=0.0)]
    preds = [box(0.0, 0.0, vx=3.0, vy=4.0, conf=0.9)]
    ev = frame_eval(preds, gts)
    _, verr = ev.tp_errors[ObjectClass.CAR][0]
    assert verr == pytest.approx(4.0)


def test_eval_config_fixes_the_nuscenes_settings():
    # the recall floor is the one field; the thresholds and classes are constants
    assert [f.name for f in dataclasses.fields(EvalConfig)] == ["min_recall"]
    config = EvalConfig()
    assert config.match_thresholds == (0.5, 1.0, 2.0, 4.0)
    assert config.tp_error_threshold == 2.0
    assert config.classes == tuple(ObjectClass)
    for setting in ("match_thresholds", "tp_error_threshold", "classes"):
        with pytest.raises(TypeError):
            EvalConfig(**{setting: getattr(config, setting)})


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(min_recall=1.0)
    # the floor rounds to the last grid point: no recall point lies above it
    for min_recall in (0.995, 0.996, 0.999):
        with pytest.raises(ValueError, match="recall-grid"):
            EvalConfig(min_recall=min_recall)
    for min_recall in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            EvalConfig(min_recall=min_recall)
    # the last floor that leaves a grid point
    ap = average_precision(_five_box_frame(EvalConfig(min_recall=0.994)), ObjectClass.CAR, 2.0)
    assert ap == pytest.approx(2.0 / 3.0)


# -- average precision: the hand-computed oracle ----------------------------------
#
# Two ground-truth cars; five predictions sorted by confidence:
#
#   rank conf  kind   cum TP  cum FP  recall  precision
#   1    0.9   TP     1       0       0.5     1
#   2    0.8   FP     1       1       0.5     1/2
#   3    0.7   TP     2       1       1.0     2/3
#   4    0.6   FP     2       2       1.0     2/4
#   5    0.5   FP     2       3       1.0     2/5
#
# Interpolated precision (max precision at recall >= r):
#   r in (0, 0.5]  -> 1        r in (0.5, 1.0] -> 2/3
#
# Sampling the 101-point recall grid above the 0.10 floor uses the 90 points
# r = 0.11 .. 1.00: forty of them (0.11 .. 0.50) read 1, the remaining fifty
# (0.51 .. 1.00) read 2/3, so
#
#   AP = (40 * 1 + 50 * (2/3)) / 90 = 220/270 = 22/27.


def _five_box_frame(config=None):
    gts = [box(0.0, 0.0), box(20.0, 0.0)]
    preds = [
        box(0.0, 0.0, conf=0.9),    # TP on the first gt (distance 0)
        box(40.0, 0.0, conf=0.8),   # FP: > 4 m from anything
        box(20.0, 0.0, conf=0.7),   # TP on the second gt
        box(60.0, 0.0, conf=0.6),   # FP
        box(80.0, 0.0, conf=0.5),   # FP
    ]
    return evaluate_frame(preds, gts, config)


def test_average_precision_hand_case():
    frame = _five_box_frame()
    want = (40.0 * 1.0 + 50.0 * (2.0 / 3.0)) / 90.0  # 22/27
    for threshold in (0.5, 1.0, 2.0, 4.0):
        ap = average_precision(frame, ObjectClass.CAR, threshold)
        assert ap == pytest.approx(want, abs=1e-9)
        assert ap == pytest.approx(22.0 / 27.0, abs=1e-9)


def test_average_precision_no_recall_floor():
    frame = _five_box_frame(EvalConfig(min_recall=0.0))
    # without the floor all 100 grid points count: fifty at 1, fifty at 2/3
    ap = average_precision(frame, ObjectClass.CAR, 2.0)
    assert ap == pytest.approx((50.0 + 50.0 * (2.0 / 3.0)) / 100.0, abs=1e-9)


def test_average_precision_edge_cases():
    frame = _five_box_frame()
    assert average_precision(frame, ObjectClass.BUS, 2.0) is None  # no gt
    empty = evaluate_frame([], [box(0.0, 0.0)])
    assert average_precision(empty, ObjectClass.CAR, 2.0) == 0.0


def test_average_precision_rejects_an_unconfigured_cell():
    # one perfect match: AP 1.0 at a match threshold; any other threshold
    # has no AP
    frame = evaluate_frame([box(0.0, 0.0)], [box(0.0, 0.0)])
    assert average_precision(frame, ObjectClass.CAR, 2.0) == 1.0
    for threshold in (3.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="EvalConfig"):
            average_precision(frame, ObjectClass.CAR, threshold)


def test_perfect_detector_gets_ap_one():
    gts = [box(0.0, 0.0), box(10.0, 0.0), box(-10.0, 5.0)]
    preds = [box(0.0, 0.0, conf=0.9), box(10.0, 0.0, conf=0.8),
             box(-10.0, 5.0, conf=0.7)]
    ev = evaluate_frame(preds, gts)
    assert average_precision(ev, ObjectClass.CAR, 2.0) == pytest.approx(1.0)


def test_ap_accumulates_across_frames():
    # one TP frame and one miss frame: recall never reaches 1
    frames = evaluate_frames([([box(0.0, 0.0, conf=0.9)], [box(0.0, 0.0)]),
                              ([], [box(0.0, 0.0)])])
    ap = average_precision(frames, ObjectClass.CAR, 2.0)
    # recall 0.5 at precision 1; grid points above 0.5 read 0
    assert ap == pytest.approx(40.0 / 90.0, abs=1e-9)


# Reference implementation: AP as it was before the one-shot grid lookup,
# one scalar searchsorted per recall-grid point. The lookup must give the
# same bits.


def _reference_average_precision(frames, cls, threshold, config=None):
    config = config or EvalConfig()
    npos = sum(f.gt_counts.get(cls, 0) for f in frames)
    if npos == 0:
        return None

    records = []
    for f in frames:
        records.extend(f.pred_records.get(cls, {}).get(threshold, ()))
    if not records:
        return 0.0
    records.sort(key=lambda r: -r[0])

    tps = np.cumsum([1.0 if tp else 0.0 for _, tp in records])
    fps = np.cumsum([0.0 if tp else 1.0 for _, tp in records])
    recall = tps / npos
    precision = tps / (tps + fps)

    suffix_max = np.maximum.accumulate(precision[::-1])[::-1]
    grid = np.linspace(0.0, 1.0, 101)
    start = int(round(config.min_recall * 100)) + 1
    pts = []
    for r in grid[start:]:
        k = int(np.searchsorted(recall, r, side="left"))
        pts.append(float(suffix_max[k]) if k < len(recall) else 0.0)
    return float(np.mean(pts))


def _frame(gt: int, records) -> FrameEval:
    cls = ObjectClass.CAR
    ordered = tuple(sorted(records, key=lambda r: -r[0]))
    return FrameEval(
        gt_counts={cls: gt},
        pred_records={cls: {2.0: ordered}},
        tp_errors={cls: ()},
        fp_counts={cls: 0},
        fn_counts={cls: 0},
    )


def _matches(frames, config: EvalConfig) -> Matches:
    """Car predictions holding each frame's (confidence, is_tp) records, a
    true positive at every threshold alike, over each frame's car count."""
    records = [r for _, frame_records in frames for r in frame_records]
    gt_counts = np.zeros((len(frames), len(config.classes)), dtype=np.int64)
    gt_counts[:, config.classes.index(ObjectClass.CAR)] = [gt for gt, _ in frames]
    tp = np.array([is_tp for _, is_tp in records], dtype=bool)
    return Matches(
        config,
        gt_counts,
        pairs=np.repeat(np.arange(len(frames)), [len(r) for _, r in frames]),
        classes=np.full(len(records), config.classes.index(ObjectClass.CAR)),
        confidences=np.array([c for c, _ in records], dtype=np.float64),
        tp=np.repeat(tp[:, None], len(config.match_thresholds), axis=1),
        translation=np.full(len(records), np.nan),
        velocity=np.full(len(records), np.nan),
    )


_confidences = st.sampled_from([0.1, 0.35, 0.5, 0.5, 0.8, 0.95])  # repeats: ties
_record = st.tuples(_confidences, st.booleans())


@settings(max_examples=300, deadline=None)
@given(
    frames=st.lists(
        st.tuples(st.integers(0, 6), st.lists(_record, max_size=12)), max_size=5
    ),
    kind=st.sampled_from(("mixed", "all_tp", "all_fp", "no_predictions")),
    min_recall=st.sampled_from((0.0, 0.1)),
)
def test_average_precision_matches_the_per_point_reference(frames, kind, min_recall):
    kept = []
    for gt, records in frames:
        if kind == "all_tp":
            records = [(c, True) for c, _ in records]
        elif kind == "all_fp":
            records = [(c, False) for c, _ in records]
        elif kind == "no_predictions":
            records = []
        kept.append((gt, records))
    config = EvalConfig(min_recall=min_recall)
    got = average_precision(_matches(kept, config), ObjectClass.CAR, 2.0)
    want = _reference_average_precision([_frame(gt, records) for gt, records in kept],
                                        ObjectClass.CAR, 2.0, config)
    assert got == want


# -- the class-split matcher against the per-threshold oracle ----------------------
#
# Verbatim copies of the one-threshold matcher and `evaluate_frame` as they
# were before matching split by class and computed each pair's distance once
# for every threshold. One frame's matches, read off as a FrameEval, must
# equal it bit for bit.


@dataclass(frozen=True)
class MatchResult:
    pairs: Tuple[Tuple[int, int], ...]  # (pred_idx, gt_idx)
    unmatched_preds: Tuple[int, ...]
    unmatched_gts: Tuple[int, ...]


def _reference_planar_dist(a: Box3D, b: Box3D) -> float:
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])


def _reference_match(
    preds: Sequence[Box3D], gts: Sequence[Box3D], threshold: float
) -> MatchResult:
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
            d = _reference_planar_dist(pred, gt)
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


def _reference_evaluate_frame(
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
        result = _reference_match(preds, gts, threshold)
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
                terr = _reference_planar_dist(pred, gt)
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


_CLASSES = tuple(ObjectClass)
# lattice offsets put pairs exactly 0.5, 1, 2, 4 and 5 m apart, and make ties
_coord = st.sampled_from([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
_boxes = st.lists(
    st.builds(
        box,
        x=_coord,
        y=_coord,
        cls=st.sampled_from(_CLASSES),
        conf=st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0]),  # repeats: ties
        vx=st.sampled_from([0.0, 1.0, -2.5]),
        vy=st.sampled_from([0.0, 0.5]),
    ),
    max_size=8,
)
# the floor at 0 and 0.1
_configs = st.sampled_from([EvalConfig(min_recall=0.0), EvalConfig(min_recall=0.1)])
_EDGE = [box(0.0, 0.0), box(2.0, 0.0, conf=0.5), box(0.0, 0.5, cls=ObjectClass.PEDESTRIAN)]


@settings(max_examples=300, deadline=None)
@given(preds=_boxes, gts=_boxes, config=_configs)
@example(preds=[], gts=_EDGE, config=EvalConfig())
@example(preds=_EDGE, gts=[], config=EvalConfig())
def test_evaluate_frame_equals_the_per_threshold_oracle(preds, gts, config):
    got = frame_eval(preds, gts, config)
    assert got == _reference_evaluate_frame(preds, gts, config)
    assert got == box_oracles.evaluate_frame(to_rows(preds), to_rows(gts), config)


def test_one_branch_view_score_hand_case():
    gts = [box(0.0, 0.0), box(20.0, 0.0)]
    preds = [box(0.0, 0.0, conf=0.9), box(40.0, 0.0, conf=0.8), box(20.0, 0.0, conf=0.7),
             box(60.0, 0.0, conf=0.6), box(80.0, 0.0, conf=0.5)]
    # every threshold's AP is 22/27 and both true positives are exact
    assert view_scores([preds], gts)[0] == pytest.approx(
        detection_score(22.0 / 27.0, 0.0, 0.0), abs=1e-12)
    assert view_scores([[]], gts)[0] == 0.0
    assert view_scores([preds], [])[0] == 0.0


# three classes with ground truth: 12 AP rows at the default thresholds
_THREE_CLASSES = [box(0.0, 0.0), box(10.0, 0.0, cls=ObjectClass.BUS),
                  box(20.0, 0.0, cls=ObjectClass.PEDESTRIAN)]
# ten cars, each a true positive at the error threshold: 9 and 10 errors,
# whose mean differs when they are added in turn and not pairwise as NumPy does
_TEN_CARS = [box(10.0 * i, 0.0) for i in range(10)]
_TEN_NEAR_CARS = [box(10.0 * i, y, conf=0.5 + 0.04 * i) for i, y in
                  enumerate([0.43, 0.13, 0.6, 0.43, 0.29, 0.07, 0.41, 0.6, 0.47, 0.41])]
# car, pedestrian, car: the TP errors in prediction index order (0.2, 1.3,
# 0.2) sum to another score than in class order (0.2, 0.2 | 1.3)
_CAR_PED_CAR = [box(0.0, 0.0), box(10.0, 0.0, cls=ObjectClass.PEDESTRIAN), box(20.0, 0.0)]
_CAR_PED_CAR_NEAR = [box(0.0, 0.2), box(10.0, 1.3, cls=ObjectClass.PEDESTRIAN), box(20.0, 0.2)]


@settings(max_examples=300, deadline=None)
@given(branches=st.lists(_boxes, min_size=1, max_size=17), gts=_boxes, config=_configs)
@example(branches=[_EDGE, [], _EDGE[:1]], gts=[], config=EvalConfig())
@example(branches=[[], [], []], gts=_EDGE, config=EvalConfig())
@example(branches=[_EDGE, [], _EDGE[:2], _EDGE[1:]], gts=_EDGE, config=EvalConfig())
@example(branches=[_THREE_CLASSES, _THREE_CLASSES[1:], []], gts=_THREE_CLASSES,
         config=EvalConfig(min_recall=0.0))
@example(branches=[_TEN_NEAR_CARS, _TEN_NEAR_CARS[:9], _TEN_NEAR_CARS[:3]], gts=_TEN_CARS,
         config=EvalConfig())
@example(branches=[_CAR_PED_CAR_NEAR, _CAR_PED_CAR_NEAR[:2]], gts=_CAR_PED_CAR,
         config=EvalConfig())
@example(branches=[[]], gts=[], config=EvalConfig())
@example(branches=[[]], gts=_EDGE, config=EvalConfig())
@example(branches=[_EDGE], gts=[], config=EvalConfig())
@example(branches=[_EDGE], gts=_EDGE[:2], config=EvalConfig(min_recall=0.0))
def test_view_detection_scores_equal_each_summarized_branch(branches, gts, config):
    want = [summarize(evaluate_frame(p, gts, config))["DS"] for p in branches]
    assert view_scores(branches, gts, config).tolist() == want


# -- the array scorer against the per-class oracle, many calls at once -------------
#
# A call is one view: each branch's predictions against the view's ground
# truth, as the training set scores them. Every (branch, view) pair of every
# call goes into one `evaluate_pairs`; each pair's matches, each pair's score
# and the summary of all pairs as one episode must equal the per-class
# oracle's (`box_oracles`) bit for bit.

# a tie at 1 m: the first prediction sits between two ground-truth cars and
# must claim the earlier one, or the second finds no car within 2 m
_TIE_GTS = [box(-1.0, 0.0), box(1.0, 0.0), box(0.0, 3.0)]
_TIE_PREDS = [box(0.0, 0.0, conf=0.5), box(2.0, 0.0, conf=0.5), box(0.0, 2.0, conf=0.5)]
_BUSES = [box(0.0, 0.0, cls=ObjectClass.BUS), box(3.0, 0.0, cls=ObjectClass.BUS, conf=0.4)]
_calls = st.lists(st.tuples(st.lists(_boxes, max_size=5), _boxes), max_size=6)


@settings(max_examples=200, deadline=None)
@given(calls=_calls, config=_configs)
@example(calls=[([_EDGE, []], [])], config=EvalConfig())  # an empty view
@example(calls=[([[], [], _EDGE[:1]], _EDGE), ([[]], _EDGE[1:])], config=EvalConfig())
@example(calls=[([_TIE_PREDS, _TIE_PREDS[::-1], _TIE_PREDS[1:]], _TIE_GTS)],
         config=EvalConfig())  # exact distance ties and equal confidences
@example(calls=[([_BUSES, _BUSES + _EDGE], _EDGE), ([_BUSES], [])],
         config=EvalConfig())  # a class with predictions but no ground truth
@example(calls=[([_TEN_NEAR_CARS, _TEN_NEAR_CARS[:2]], _TEN_CARS), ([_EDGE], _EDGE[:1]),
                ([_TEN_NEAR_CARS[5:], []], _TEN_CARS[:3])],
         config=EvalConfig())  # groups of very different widths
@example(calls=[([_TIE_PREDS, _EDGE], _TIE_GTS + _EDGE), ([_EDGE], _EDGE[1:])],
         config=EvalConfig(min_recall=0.0))
@example(calls=[], config=EvalConfig())
def test_array_scorer_equals_the_per_class_oracle_over_many_calls(calls, config):
    pairs = [(to_rows(p), to_rows(gts)) for branches, gts in calls for p in branches]
    matches = evaluate_pairs(pairs, config)
    oracle = [box_oracles.evaluate_frame(p, g, config) for p, g in pairs]
    assert frame_evals(matches) == oracle
    want = np.array([box_oracles.summarize([f], config)["DS"] for f in oracle], dtype=np.float64)
    assert detection_scores(matches).tobytes() == want.tobytes()
    assert json.dumps(summarize(matches)) == json.dumps(box_oracles.summarize(oracle, config))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6),
    width=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_means_equal_each_rows_own_mean(rows, width, seed):
    # the per-view scorer takes mAP and the TP error means as row means of
    # one C-contiguous array; each must equal np.mean of the row alone,
    # also at 8 and more entries, where NumPy sums in unrolled pairs
    scale = 10.0 ** np.arange(-3, 3).repeat(7)[:width]  # magnitudes that round apart
    grid = np.random.default_rng(seed).random((rows, width)) * scale
    assert grid.mean(axis=1).tolist() == [float(np.mean(list(row))) for row in grid]


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 20) | st.sampled_from([129, 1000, 10_000]),
                    min_size=1, max_size=17),
    seed=st.integers(0, 2**32 - 1),
)
def test_branch_mean_errors_equal_each_branchs_own_means(counts, seed):
    # runs of one length share one array; each mean must still equal np.mean
    # of that run's list alone, also past the 128 entries where NumPy's
    # pairwise sum splits a run
    rng = np.random.default_rng(seed)
    # magnitudes apart, so that adding in another order rounds differently
    values = rng.random(sum(counts)) * 10.0 ** rng.integers(-3, 3, sum(counts))
    got = metrics._run_means(values, np.array(counts), 1.0).tolist()
    runs = np.split(values, np.cumsum(counts)[:-1])
    assert got == [float(np.mean(run.tolist())) if len(run) else 1.0 for run in runs]


# -- composite score ----------------------------------------------------------------


def test_detection_score_arithmetic_example():
    # (6*0.5 + 2*(1-0.4) + 2*(1-0.3)) / 10 = (3 + 1.2 + 1.4) / 10 = 0.56
    assert detection_score(0.5, 0.4, 0.3) == pytest.approx(0.56, abs=1e-12)


def test_detection_score_clips_error_complements():
    assert detection_score(1.0, 0.0, 0.0) == pytest.approx(1.0)
    # errors beyond 1.0 contribute zero, never negative
    assert detection_score(0.5, 2.5, 3.0) == pytest.approx(0.3)


# -- episode summary -----------------------------------------------------------------


def test_summarize_reports_all_fields():
    frame = _five_box_frame()
    out = summarize(frame)
    assert set(out) == {"mAP", "mATE", "mAVE", "DS", "per_class", "flags"}
    # only cars have ground truth: mAP averages the car APs = 22/27 everywhere
    assert out["mAP"] == pytest.approx(22.0 / 27.0, abs=1e-9)
    assert out["mATE"] == pytest.approx(0.0, abs=1e-12)
    assert out["mAVE"] == pytest.approx(0.0, abs=1e-12)
    assert out["DS"] == pytest.approx(detection_score(out["mAP"], 0.0, 0.0), abs=1e-12)
    car = out["per_class"]["car"]
    assert car["gt"] == 2 and car["tp"] == 2 and car["fp"] == 3 and car["fn"] == 0
    assert out["flags"] == []


def test_summarize_flags_empty_inputs():
    out = summarize(evaluate_pairs([]))
    assert "no_ground_truth" in out["flags"]
    assert out["mAP"] == 0.0
    assert out["mATE"] == 1.0 and out["mAVE"] == 1.0
    # ground truth but no predictions: worst-case errors are flagged
    ev = evaluate_frame([], [box(0.0, 0.0)])
    out = summarize(ev)
    assert "no_true_positives" in out["flags"]
    assert out["mAP"] == 0.0
    assert out["DS"] == pytest.approx(0.0)


def test_summarize_mean_errors_over_true_positives():
    out = summarize(evaluate_frames([
        ([box(0.3, 0.0, conf=0.9, vx=1.0)], [box(0.0, 0.0, vx=0.0)]),
        ([box(10.5, 0.0, conf=0.9, vx=0.0)], [box(10.0, 0.0, vx=2.0)]),
    ]))
    assert out["mATE"] == pytest.approx((0.3 + 0.5) / 2, abs=1e-12)
    assert out["mAVE"] == pytest.approx((1.0 + 2.0) / 2, abs=1e-12)
