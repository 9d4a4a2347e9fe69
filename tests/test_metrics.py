"""Detection-metric unit tests, built around hand-checkable oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsched.core import Box3D, ObjectClass
from viewsched.metrics import (
    EvalConfig,
    FrameEval,
    average_precision,
    detection_score,
    evaluate_frame,
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
