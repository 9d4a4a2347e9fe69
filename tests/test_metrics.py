"""Detection-metric unit tests, built around hand-checkable oracles."""

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewsched.core import Box3D, ObjectClass
from viewsched.metrics import (
    EvalConfig,
    FrameEval,
    MatchResult,
    average_precision,
    detection_score,
    evaluate_frame,
    frame_detection_score,
    match,
    summarize,
)


def box(x, y, cls=ObjectClass.CAR, conf=0.9, vx=0.0, vy=0.0):
    return Box3D(center=(x, y, 0.8), size=(1.9, 1.6, 4.5), velocity=(vx, vy, 0.0),
                 yaw=0.0, cls=cls, confidence=conf)


# -- matching -------------------------------------------------------------------


def test_match_pairs_nearest_within_threshold():
    gts = [box(0.0, 0.0), box(10.0, 0.0)]
    preds = [box(0.4, 0.0, conf=0.9), box(10.3, 0.0, conf=0.8)]
    res = match(preds, gts, threshold=2.0)
    assert res.pairs == ((0, 0), (1, 1))
    assert res.unmatched_preds == ()
    assert res.unmatched_gts == ()


def test_match_is_greedy_by_confidence():
    # one ground truth, two predictions: the higher-confidence one claims it,
    # even though the other is closer
    gts = [box(0.0, 0.0)]
    preds = [box(1.0, 0.0, conf=0.95), box(0.1, 0.0, conf=0.5)]
    res = match(preds, gts, threshold=2.0)
    assert res.pairs == ((0, 0),)
    assert res.unmatched_preds == (1,)


def test_match_respects_class_and_threshold():
    gts = [box(0.0, 0.0, cls=ObjectClass.CAR)]
    preds = [box(0.1, 0.0, cls=ObjectClass.TRUCK, conf=0.9),
             box(5.0, 0.0, cls=ObjectClass.CAR, conf=0.8)]
    res = match(preds, gts, threshold=2.0)
    assert res.pairs == ()
    assert set(res.unmatched_preds) == {0, 1}
    assert res.unmatched_gts == (0,)


def test_match_threshold_is_inclusive():
    gts = [box(0.0, 0.0)]
    preds = [box(2.0, 0.0)]
    res = match(preds, gts, threshold=2.0)
    assert res.pairs == ((0, 0),)


# -- frame evaluation -------------------------------------------------------------


def test_evaluate_frame_counts_fp_fn_at_error_threshold():
    gts = [box(0.0, 0.0), box(10.0, 0.0)]
    preds = [box(0.5, 0.0, conf=0.9), box(40.0, 0.0, conf=0.8)]
    ev = evaluate_frame(preds, gts)
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
    ev = evaluate_frame(preds, gts)
    _, verr = ev.tp_errors[ObjectClass.CAR][0]
    assert verr == pytest.approx(4.0)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(tp_error_threshold=3.0)  # not a match threshold
    with pytest.raises(ValueError):
        EvalConfig(min_recall=1.0)
    # the floor rounds to the last grid point: no recall point lies above it
    for min_recall in (0.995, 0.996, 0.999):
        with pytest.raises(ValueError, match="recall-grid"):
            EvalConfig(min_recall=min_recall)
    for min_recall in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            EvalConfig(min_recall=min_recall)
    for thresholds in ((), (0.0, 2.0), (-1.0, 2.0), (math.inf, 2.0), (math.nan, 2.0),
                       (2.0, 2.0), (0.5, 2.0, 0.5)):
        with pytest.raises(ValueError):
            EvalConfig(match_thresholds=thresholds)
    # the last floor that leaves a grid point, and a threshold order of any kind
    ap = average_precision([_five_box_frame()], ObjectClass.CAR, 2.0,
                           EvalConfig(min_recall=0.994))
    assert ap == pytest.approx(2.0 / 3.0)
    assert EvalConfig(match_thresholds=(4.0, 2.0)).tp_error_threshold == 2.0


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


def _five_box_frame():
    gts = [box(0.0, 0.0), box(20.0, 0.0)]
    preds = [
        box(0.0, 0.0, conf=0.9),    # TP on the first gt (distance 0)
        box(40.0, 0.0, conf=0.8),   # FP: > 4 m from anything
        box(20.0, 0.0, conf=0.7),   # TP on the second gt
        box(60.0, 0.0, conf=0.6),   # FP
        box(80.0, 0.0, conf=0.5),   # FP
    ]
    return evaluate_frame(preds, gts)


def test_average_precision_hand_case():
    frame = _five_box_frame()
    want = (40.0 * 1.0 + 50.0 * (2.0 / 3.0)) / 90.0  # 22/27
    for threshold in (0.5, 1.0, 2.0, 4.0):
        ap = average_precision([frame], ObjectClass.CAR, threshold)
        assert ap == pytest.approx(want, abs=1e-9)
        assert ap == pytest.approx(22.0 / 27.0, abs=1e-9)


def test_average_precision_no_recall_floor():
    frame = _five_box_frame()
    # without the floor all 100 grid points count: fifty at 1, fifty at 2/3
    ap = average_precision([frame], ObjectClass.CAR, 2.0,
                           EvalConfig(min_recall=0.0))
    assert ap == pytest.approx((50.0 + 50.0 * (2.0 / 3.0)) / 100.0, abs=1e-9)


def test_average_precision_edge_cases():
    frame = _five_box_frame()
    assert average_precision([frame], ObjectClass.BUS, 2.0) is None  # no gt
    empty = evaluate_frame([], [box(0.0, 0.0)])
    assert average_precision([empty], ObjectClass.CAR, 2.0) == 0.0


def test_perfect_detector_gets_ap_one():
    gts = [box(0.0, 0.0), box(10.0, 0.0), box(-10.0, 5.0)]
    preds = [box(0.0, 0.0, conf=0.9), box(10.0, 0.0, conf=0.8),
             box(-10.0, 5.0, conf=0.7)]
    ev = evaluate_frame(preds, gts)
    assert average_precision([ev], ObjectClass.CAR, 2.0) == pytest.approx(1.0)


def test_ap_accumulates_across_frames():
    # one TP frame and one miss frame: recall never reaches 1
    f1 = evaluate_frame([box(0.0, 0.0, conf=0.9)], [box(0.0, 0.0)])
    f2 = evaluate_frame([], [box(0.0, 0.0)])
    ap = average_precision([f1, f2], ObjectClass.CAR, 2.0)
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
    evals = []
    for gt, records in frames:
        if kind == "all_tp":
            records = [(c, True) for c, _ in records]
        elif kind == "all_fp":
            records = [(c, False) for c, _ in records]
        elif kind == "no_predictions":
            records = []
        evals.append(_frame(gt, records))
    config = EvalConfig(min_recall=min_recall)
    got = average_precision(evals, ObjectClass.CAR, 2.0, config)
    want = _reference_average_precision(evals, ObjectClass.CAR, 2.0, config)
    assert got == want


# -- the class-split matcher against the per-threshold oracle ----------------------
#
# Verbatim copies of `match` and `evaluate_frame` as they were before matching
# split by class and computed each pair's distance once for every threshold.
# The new ones must give equal MatchResult and FrameEval values, bit for bit.


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


_CLASSES = (ObjectClass.CAR, ObjectClass.BUS, ObjectClass.PEDESTRIAN)
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
# two threshold tuples (one unsorted), the floor at 0 and 0.1, and a class
# list that leaves PEDESTRIAN boxes outside it
_configs = st.sampled_from(
    [
        EvalConfig(
            match_thresholds=thresholds,
            tp_error_threshold=error_threshold,
            min_recall=min_recall,
            classes=classes,
        )
        for thresholds, error_threshold in (((0.5, 1.0, 2.0, 4.0), 2.0), ((2.0, 0.5), 0.5))
        for min_recall in (0.0, 0.1)
        for classes in (tuple(ObjectClass), (ObjectClass.CAR, ObjectClass.BUS))
    ]
)
_EDGE = [box(0.0, 0.0), box(2.0, 0.0, conf=0.5), box(0.0, 0.5, cls=ObjectClass.PEDESTRIAN)]


@settings(max_examples=300, deadline=None)
@given(preds=_boxes, gts=_boxes, threshold=st.sampled_from((0.5, 1.0, 2.0, 4.0, 5.0)))
@example(preds=[], gts=_EDGE, threshold=2.0)
@example(preds=_EDGE, gts=[], threshold=2.0)
def test_match_equals_the_per_threshold_oracle(preds, gts, threshold):
    assert match(preds, gts, threshold) == _reference_match(preds, gts, threshold)


@settings(max_examples=300, deadline=None)
@given(preds=_boxes, gts=_boxes, config=_configs)
@example(preds=[], gts=_EDGE, config=EvalConfig())
@example(preds=_EDGE, gts=[], config=EvalConfig())
def test_evaluate_frame_equals_the_per_threshold_oracle(preds, gts, config):
    assert evaluate_frame(preds, gts, config) == _reference_evaluate_frame(preds, gts, config)


@settings(max_examples=500, deadline=None)
@given(preds=_boxes, gts=_boxes, config=_configs)
@example(preds=[], gts=[], config=EvalConfig())
@example(preds=[], gts=_EDGE, config=EvalConfig())
@example(preds=_EDGE, gts=[], config=EvalConfig())
@example(preds=_EDGE, gts=_EDGE[:2], config=EvalConfig(min_recall=0.0))
def test_frame_detection_score_equals_the_summarized_frame(preds, gts, config):
    want = summarize([evaluate_frame(preds, gts, config)], config)["DS"]
    assert frame_detection_score(preds, gts, config) == want


def test_frame_detection_score_hand_case():
    gts = [box(0.0, 0.0), box(20.0, 0.0)]
    preds = [box(0.0, 0.0, conf=0.9), box(40.0, 0.0, conf=0.8), box(20.0, 0.0, conf=0.7),
             box(60.0, 0.0, conf=0.6), box(80.0, 0.0, conf=0.5)]
    # every threshold's AP is 22/27 and both true positives are exact
    assert frame_detection_score(preds, gts) == pytest.approx(
        detection_score(22.0 / 27.0, 0.0, 0.0), abs=1e-12)
    assert frame_detection_score([], gts) == 0.0
    assert frame_detection_score(preds, []) == 0.0


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
    out = summarize([frame])
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
    out = summarize([])
    assert "no_ground_truth" in out["flags"]
    assert out["mAP"] == 0.0
    assert out["mATE"] == 1.0 and out["mAVE"] == 1.0
    # ground truth but no predictions: worst-case errors are flagged
    ev = evaluate_frame([], [box(0.0, 0.0)])
    out = summarize([ev])
    assert "no_true_positives" in out["flags"]
    assert out["mAP"] == 0.0
    assert out["DS"] == pytest.approx(0.0)


def test_summarize_mean_errors_over_true_positives():
    f1 = evaluate_frame([box(0.3, 0.0, conf=0.9, vx=1.0)],
                        [box(0.0, 0.0, vx=0.0)])
    f2 = evaluate_frame([box(10.5, 0.0, conf=0.9, vx=0.0)],
                        [box(10.0, 0.0, vx=2.0)])
    out = summarize([f1, f2])
    assert out["mATE"] == pytest.approx((0.3 + 0.5) / 2, abs=1e-12)
    assert out["mAVE"] == pytest.approx((1.0 + 2.0) / 2, abs=1e-12)
