"""Accuracy / latency predictor unit tests."""

import itertools
import json
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewsched import predictors
from viewsched.branches import NUM_BRANCHES
from viewsched.core import NUM_CATEGORIES
from viewsched.predictors import (
    FEATURE_WIDTH,
    GBRTModel,
    GBRTParams,
    LinearLatencyModel,
    PerformanceModels,
    accuracy_features,
    fit_update_latency,
    train_gbrt,
)


def one_hot_ratios(*bin_indices):
    """One view per bin index, each with all its mass in that bin."""
    return np.eye(NUM_CATEGORIES)[list(bin_indices)]


# -- feature layout -----------------------------------------------------------


def test_feature_vector_layout():
    f = accuracy_features(one_hot_ratios(7, 2), [0, 1], [0.6, 0.4], [3, 0])
    assert f.shape == (2, 2, FEATURE_WIDTH)  # (branches, views, width)
    assert FEATURE_WIDTH == NUM_CATEGORIES + 17 + 1
    cell = f[0, 0]
    assert cell[7] == 1.0 and cell[:NUM_CATEGORIES].sum() == 1.0
    assert cell[NUM_CATEGORIES + 3] == 1.0
    assert cell[NUM_CATEGORIES:NUM_CATEGORIES + 17].sum() == 1.0
    # confidence slot is zero for detection branches
    assert cell[-1] == 0.0
    # second view, tracker branch
    assert f[1, 1, 2] == 1.0 and f[1, 1, NUM_CATEGORIES] == 1.0
    assert f[1, 1, -1] == 0.4


def test_confidence_slot_only_for_tracker():
    f = accuracy_features(one_hot_ratios(0), [0], [0.42], [0, 5])
    assert f[0, 0, -1] == pytest.approx(0.42)
    assert f[1, 0, -1] == 0.0


def test_feature_branch_index_validated():
    with pytest.raises(ValueError):
        accuracy_features(one_hot_ratios(0), [], [], [17])
    with pytest.raises(ValueError):
        accuracy_features(one_hot_ratios(0), [], [], [-1])


def _tracker_slot(confidences, views, view_count):
    """The tracker row's confidence slot, one entry per view."""
    ratios = np.zeros((view_count, NUM_CATEGORIES))
    return accuracy_features(ratios, views, confidences, [0])[0, :, -1]


def test_view_confidences_are_per_view_means():
    got = _tracker_slot([0.2, 0.9, 0.4], [2, 0, 2], 3)
    assert got.tolist() == [0.9, 0.0, float(np.mean([0.2, 0.4]))]
    assert _tracker_slot([], [], 2).tolist() == [0.0, 0.0]
    # many per view, where the mean's pairwise sum differs from a running one
    rng = np.random.default_rng(4)
    conf, views = rng.uniform(size=200), rng.integers(0, 6, size=200)
    want = [float(np.mean([c for c, v in zip(conf.tolist(), views.tolist()) if v == j]))
            for j in range(6)]
    assert _tracker_slot(conf, views, 6).tolist() == want


# Oracle: the featurizer in two steps, the per-view mean confidences and then
# the row layout. `accuracy_features` must match it bit for bit, or every
# model trained on its rows changes. Boxes in a view past the last are ignored.


def _oracle_view_confidences(
    confidences: Sequence[float], views: Sequence[int], view_count: int
) -> np.ndarray:
    """Mean confidence of the objects in each view; 0 for a view without any."""
    conf = np.asarray(confidences, dtype=np.float64)
    views = np.asarray(views)
    out = np.zeros(view_count)
    for v in range(view_count):
        here = conf[views == v]
        if len(here):
            out[v] = here.mean()
    return out


def _oracle_layout(
    ratios: np.ndarray, branch_indices: Sequence[int], view_confidence: np.ndarray
) -> np.ndarray:
    idx = np.asarray(branch_indices, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= NUM_BRANCHES):
        raise ValueError(f"branch index out of range: {idx.tolist()}")
    ratios = np.asarray(ratios, dtype=np.float64)
    out = np.zeros((len(idx), len(ratios), FEATURE_WIDTH))
    out[:, :, :NUM_CATEGORIES] = ratios
    out[np.arange(len(idx)), :, NUM_CATEGORIES + idx] = 1.0
    out[idx == 0, :, predictors._CONF_SLOT] = view_confidence
    return out


def _oracle_features(distributions, views, confidences, branch_indices):
    return _oracle_layout(
        distributions,
        branch_indices,
        _oracle_view_confidences(confidences, views, len(distributions)),
    )


# 13 boxes in view 1, whose pairwise mean differs from a running one
_EIGHT_PLUS = [(1, 0.1 + 0.07 * k) for k in range(13)] + [(4, 0.3)]
# 143 boxes in view 2 among others, past NumPy's 128-value pairwise block
_ONE_VIEW_BLOCK = [(2 if k % 7 else k % 5, 0.013 + 0.0071 * k) for k in range(161)]


@settings(max_examples=200, deadline=None)
@given(
    view_count=st.integers(1, 6),
    boxes=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 1.0)), max_size=40),
    branch_indices=st.lists(st.integers(0, NUM_BRANCHES - 1), min_size=1, max_size=NUM_BRANCHES,
                            unique=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(view_count=6, boxes=[], branch_indices=[0, 4], seed=0)  # no boxes
@example(view_count=6, boxes=[(0, 0.5), (2, 0.25)], branch_indices=[0, 1], seed=1)  # empty views
@example(view_count=6, boxes=_EIGHT_PLUS, branch_indices=[0, 16], seed=2)  # pairwise mean
@example(view_count=6, boxes=_EIGHT_PLUS, branch_indices=[3, 5, 9], seed=3)  # no tracker
@example(view_count=1, boxes=[(0, 0.9), (0, 0.7)], branch_indices=[0], seed=4)  # one view
@example(view_count=6, boxes=_ONE_VIEW_BLOCK, branch_indices=[0, 2], seed=5)  # past one block
@example(view_count=3, boxes=[(1, 0.4), (3, 0.9), (5, 0.2), (0, 0.6)], branch_indices=[0],
         seed=6)  # views at and past the view count
def test_accuracy_features_match_the_two_step_oracle(view_count, boxes, branch_indices, seed):
    distributions = np.random.default_rng(seed).dirichlet(np.ones(NUM_CATEGORIES), view_count)
    views = np.array([v for v, _ in boxes], dtype=np.int64)
    confidences = np.array([c for _, c in boxes])
    got = accuracy_features(distributions, views, confidences, branch_indices)
    want = _oracle_features(distributions, views, confidences, branch_indices)
    assert got.shape == want.shape == (len(branch_indices), view_count, FEATURE_WIDTH)
    assert got.tobytes() == want.tobytes()


# -- gradient-boosted trees ---------------------------------------------------


def test_gbrt_recovers_linear_single_feature_target():
    rng = np.random.default_rng(3)
    n = 400
    x = rng.uniform(0.0, 1.0, size=(n, 6))
    y = 0.15 + 0.7 * x[:, 2]  # linear in one feature, inside [0, 1]
    model = train_gbrt(x, y, GBRTParams(rounds=80, max_depth=3, learning_rate=0.1,
                                        min_samples_leaf=5))
    pred = model.predict_batch(x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.95


def test_gbrt_is_deterministic():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(120, 4))
    y = np.clip(0.3 + 0.4 * x[:, 0] - 0.2 * x[:, 1], 0.0, 1.0)
    a = train_gbrt(x, y, GBRTParams(rounds=20))
    b = train_gbrt(x, y, GBRTParams(rounds=20))
    assert _model_bytes(a.to_dict()) == _model_bytes(b.to_dict())


def test_gbrt_predictions_clamped_to_unit_interval():
    # constant-extrapolation plus clamping: nothing leaves [0, 1]
    x = np.array([[0.0], [0.2], [0.8], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_gbrt(x, y, GBRTParams(rounds=200, learning_rate=0.5,
                                        min_samples_leaf=1))
    probe = np.array([[-5.0], [0.5], [5.0]])
    out = model.predict_batch(probe)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_gbrt_training_loss_is_monotone_enough():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(300, 5))
    y = np.clip(0.5 + 0.3 * np.sin(4 * x[:, 0]) * x[:, 1], 0.0, 1.0)
    model = train_gbrt(x, y, GBRTParams(rounds=50))
    trace = model.training_mse
    assert len(trace) == 50
    assert trace[-1] < trace[0]


def test_gbrt_input_validation():
    x = np.zeros((10, 3))
    with pytest.raises(ValueError):
        train_gbrt(x, np.full(10, 1.5))  # target outside [0, 1]
    with pytest.raises(ValueError):
        train_gbrt(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        train_gbrt(x, np.zeros(9))
    with pytest.raises(ValueError, match="targets"):  # y - pred would broadcast to (n, n)
        train_gbrt(x, np.zeros((10, 1)))
    with pytest.raises(ValueError):
        train_gbrt(np.full((10, 3), np.nan), np.zeros(10))
    for bad in (np.nan, np.inf, -np.inf):  # NaN passes both range comparisons
        y = np.linspace(0.0, 1.0, 10)
        y[3] = bad
        with pytest.raises(ValueError, match="targets"):
            train_gbrt(np.arange(10.0)[:, None], y)


def test_gbrt_round_trip_preserves_predictions():
    rng = np.random.default_rng(19)
    x = rng.uniform(0.0, 1.0, size=(150, FEATURE_WIDTH))
    y = np.clip(0.2 + 0.5 * x[:, 0], 0.0, 1.0)
    model = train_gbrt(x, y, GBRTParams(rounds=15))
    clone = GBRTModel.from_dict(model.to_dict())
    probe = rng.uniform(0.0, 1.0, size=(40, FEATURE_WIDTH))
    assert np.array_equal(model.predict_batch(probe), clone.predict_batch(probe))
    assert _model_bytes(clone.to_dict()) == _model_bytes(model.to_dict())


# Reference implementation: the split search as it was before the histogram
# one, which re-sorts every column at every node and scans it. The histogram
# search must build the same trees bit for bit.


def _reference_best_split(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> Optional[Tuple[int, float, np.ndarray]]:
    n, d = x.shape
    total = float(y.sum())
    parent = total * total / n
    best_gain = 1e-12
    best: Optional[Tuple[int, float, np.ndarray]] = None

    for f in range(d):
        col = x[:, f]
        if col.min() == col.max():  # constant feature, nothing to split
            continue
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cs = np.cumsum(y[order])

        k = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        left_sum = cs[:-1]
        score = left_sum**2 / k + (total - left_sum) ** 2 / (n - k)
        score[~valid] = -np.inf
        pos = int(np.argmax(score))
        gain = float(score[pos]) - parent
        if gain > best_gain:
            split_k = pos + 1
            thr = (xs[split_k - 1] + xs[split_k]) / 2.0
            if thr >= xs[split_k]:  # adjacent floats can collapse the midpoint
                thr = xs[split_k]
                thr = float(np.nextafter(thr, -np.inf))
            mask = col <= thr
            best_gain = gain
            best = (f, float(thr), mask)
    return best


# A reference tree is its node lists (feature, threshold, left, right,
# value) with tree-local child indices; leaves have feature -1.
_Tree = Tuple[List[int], List[float], List[int], List[int], List[float]]


def _reference_grow_tree(x, y, max_depth, min_leaf) -> _Tree:
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    value: List[float] = []

    def grow(idx: np.ndarray, depth: int) -> int:
        i = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[idx].mean()))
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return i
        split = _reference_best_split(x[idx], y[idx], min_leaf)
        if split is None:
            return i
        f, thr, mask = split
        feature[i] = f
        threshold[i] = thr
        left[i] = grow(idx[mask], depth + 1)
        right[i] = grow(idx[~mask], depth + 1)
        return i

    grow(np.arange(len(y)), 0)
    return feature, threshold, left, right, value


def _reference_tree_predict(tree: _Tree, x: np.ndarray) -> np.ndarray:
    """The per-tree walk the stacked ensemble replaced."""
    feature, threshold, left, right, value = (np.asarray(a) for a in tree)
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = feature[node]
        active = feat >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        nd = node[rows]
        go_left = x[rows, feat[rows]] <= threshold[nd]
        node[rows] = np.where(go_left, left[nd], right[nd])
    return value[node]


def _reference_raw_batch(base: float, rate: float, trees: List[_Tree], x) -> np.ndarray:
    """The ensemble summed tree by tree, as before the trees were stacked."""
    out = np.full(x.shape[0], base, dtype=np.float64)
    for tree in trees:
        out += rate * _reference_tree_predict(tree, x)
    return out


def _reference_tree_dict(tree: _Tree, i: int = 0) -> dict:
    feature, threshold, left, right, value = tree
    if feature[i] < 0:
        return {"leaf_value": float(value[i])}
    return {
        "feature_index": int(feature[i]),
        "threshold": float(threshold[i]),
        "left": _reference_tree_dict(tree, left[i]),
        "right": _reference_tree_dict(tree, right[i]),
    }


def _reference_on_grid(r: np.ndarray) -> np.ndarray:
    """Each residual rounded, one at a time, to the nearest multiple of 2**e,
    e the exponent of len(r) * max|r| less 51."""
    e = math.frexp(len(r) * max(abs(v) for v in r.tolist()))[1] - 51
    return np.array([math.ldexp(round(math.ldexp(v, -e)), e) for v in r.tolist()])


def _model_bytes(model: dict) -> str:
    """A model as the model file writes it: -0.0 and 0.0, or 1 and 1.0, are
    equal numbers but different bytes."""
    return json.dumps(model, sort_keys=True)


def _reference_train_gbrt(x, y, params: GBRTParams) -> Tuple[dict, List[float]]:
    """The model file and training-loss trace the reference fit produces."""
    base = float(y.mean())
    pred = np.full(len(y), base)
    trees = []
    mse_trace = []
    for _ in range(params.rounds):
        resid = _reference_on_grid(y - pred)
        tree = _reference_grow_tree(x, resid, params.max_depth, params.min_samples_leaf)
        trees.append(tree)
        pred += params.learning_rate * _reference_tree_predict(tree, x)
        mse_trace.append(float(np.mean((y - pred) ** 2)))
    model = {
        "version": predictors.MODEL_FORMAT_VERSION,
        "kind": "gbrt",
        "n_features": x.shape[1],
        "base_score": base,
        "learning_rate": params.learning_rate,
        "trees": [_reference_tree_dict(t) for t in trees],
    }
    return model, mse_trace


_COLUMN_KINDS = ("uniform", "constant", "duplicate", "few_values", "adjacent_floats")


def _column(kind: str, rng: np.random.Generator, n: int, previous: List[np.ndarray]):
    if kind == "constant":
        return np.full(n, rng.uniform(-1.0, 1.0))
    if kind == "duplicate" and previous:
        return previous[int(rng.integers(len(previous)))].copy()
    if kind == "few_values":
        return rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
    if kind == "adjacent_floats":
        # neighbouring doubles: their midpoint rounds onto the upper one
        base = rng.uniform(-1.0, 1.0)
        return rng.choice([base, np.nextafter(base, np.inf), 2.0 * abs(base) + 1.0], size=n)
    return rng.uniform(0.0, 1.0, size=n)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 48),
    kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6),
    leaf=st.sampled_from(("one", "half", "over_half")),
    rounds=st.integers(1, 4),
    max_depth=st.integers(1, 4),
    discrete_targets=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# every column constant: no column is left to split
@example(n=6, kinds=["constant", "constant"], leaf="one", rounds=2, max_depth=2,
         discrete_targets=False, seed=1)
# more than 255 distinct values in one column: codes wider than a byte
@example(n=300, kinds=["uniform", "few_values"], leaf="one", rounds=3, max_depth=3,
         discrete_targets=False, seed=2)
# the 300-value column first, then last, beside narrow ones: ragged bins
@example(n=300, kinds=["uniform", "few_values", "few_values"], leaf="one", rounds=3,
         max_depth=3, discrete_targets=False, seed=5)
@example(n=300, kinds=["few_values", "few_values", "uniform"], leaf="one", rounds=3,
         max_depth=3, discrete_targets=False, seed=6)
# n < 2 * min_samples_leaf: the root is a leaf
@example(n=9, kinds=["uniform"], leaf="over_half", rounds=2, max_depth=3,
         discrete_targets=False, seed=3)
# at most 16 distinct rows among 48, so trees grow on weighted rows
@example(n=48, kinds=["few_values", "few_values"], leaf="half", rounds=3, max_depth=3,
         discrete_targets=True, seed=7)
@example(n=48, kinds=["few_values", "duplicate", "constant"], leaf="one", rounds=3,
         max_depth=4, discrete_targets=False, seed=8)
# at most 12 distinct rows and min_samples_leaf 20: a node's size is its row
# count, not its distinct-row count
@example(n=40, kinds=["adjacent_floats", "few_values"], leaf="half", rounds=2, max_depth=3,
         discrete_targets=False, seed=9)
# a single row
@example(n=1, kinds=["uniform", "few_values"], leaf="one", rounds=2, max_depth=2,
         discrete_targets=False, seed=4)
def test_gbrt_matches_the_reference_split_search(
    n, kinds, leaf, rounds, max_depth, discrete_targets, seed
):
    rng = np.random.default_rng(seed)
    columns: List[np.ndarray] = []
    for kind in kinds:
        columns.append(_column(kind, rng, n, columns))
    x = np.column_stack(columns)
    if discrete_targets:  # ties between split gains
        y = rng.choice([0.0, 0.5, 1.0], size=n)
    else:
        y = rng.uniform(0.0, 1.0, size=n)
    # min_samples_leaf at its edge: exactly half the rows can still split once
    min_leaf = {"one": 1, "half": max(1, n // 2), "over_half": n // 2 + 1}[leaf]
    params = GBRTParams(rounds=rounds, max_depth=max_depth, learning_rate=0.3,
                        min_samples_leaf=min_leaf)
    got = train_gbrt(x, y, params)
    want, want_mse = _reference_train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(want)
    assert list(got.training_mse) == want_mse


def test_gbrt_matches_the_reference_on_wide_sparse_features():
    # the shape of the real training set: sparse ratios, one-hot columns, a
    # constant column and a continuous one with thousands of distinct values
    rng = np.random.default_rng(5)
    n = 3000
    ratios = rng.dirichlet(np.full(20, 0.2), size=n)
    ratios[ratios < 0.05] = 0.0
    one_hot = np.eye(6)[rng.integers(6, size=n)]
    x = np.column_stack([ratios, one_hot, np.zeros(n), rng.uniform(size=n)])
    y = np.clip(0.4 * ratios[:, 3] + 0.3 * one_hot[:, 1] + 0.1 * x[:, -1], 0.0, 1.0)
    params = GBRTParams(rounds=6)
    got = train_gbrt(x, y, params)
    want, want_mse = _reference_train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(want)
    assert list(got.training_mse) == want_mse


def _repeat_rows(rng: np.random.Generator, base: np.ndarray, most: int) -> np.ndarray:
    """Each row of `base` 1 to `most` times, shuffled, with the sign of each
    repeated 0.0 drawn at random: -0.0 == 0.0, so the copies stay equal rows."""
    x = np.repeat(base, rng.integers(1, most + 1, size=len(base)), axis=0)
    x = x[rng.permutation(len(x))]
    x[(x == 0.0) & (rng.uniform(size=x.shape) < 0.5)] = -0.0
    return x


def _unique_rows(x: np.ndarray) -> np.ndarray:
    """Each row's index among the distinct rows of `x`, in NumPy's row order."""
    return np.unique(x, axis=0, return_inverse=True)[1].ravel()


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.integers(1, 24),
    kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5),
    leaf=st.sampled_from(("one", "over_distinct", "half")),
    rounds=st.integers(1, 3),
    max_depth=st.integers(1, 4),
    discrete_targets=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gbrt_on_repeated_rows_matches_the_reference(
    distinct, kinds, leaf, rounds, max_depth, discrete_targets, seed
):
    rng = np.random.default_rng(seed)
    columns: List[np.ndarray] = []
    for kind in kinds:
        columns.append(_column(kind, rng, distinct, columns))
    # few_values columns hold 0.0, which some copies carry as -0.0
    x = _repeat_rows(rng, np.column_stack(columns), 17)
    n = len(x)
    codes = predictors._code_columns(x)
    assert np.array_equal(codes.group, _unique_rows(x))
    assert codes.weight.tolist() == np.bincount(codes.group).tolist()
    # equal rows may have different targets
    y = rng.choice([0.0, 0.5, 1.0], size=n) if discrete_targets else rng.uniform(size=n)
    # over_distinct: more than the root's distinct rows, at most its rows
    min_leaf = {"one": 1, "over_distinct": min(len(codes.weight) + 1, n),
                "half": max(1, n // 2)}[leaf]
    params = GBRTParams(rounds=rounds, max_depth=max_depth, learning_rate=0.3,
                        min_samples_leaf=min_leaf)
    got = train_gbrt(x, y, params)
    want, want_mse = _reference_train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(want)
    assert list(got.training_mse) == want_mse


def test_min_samples_leaf_counts_rows_not_distinct_rows():
    # three distinct rows, ten copies each; the first's copies carry 0.0 or -0.0
    x = np.repeat([[0.0], [1.0], [2.0]], 10, axis=0)
    x[:10:2] = -0.0
    rng = np.random.default_rng(17)
    y = np.concatenate([rng.uniform(0.0, 0.2, 10), rng.uniform(0.4, 0.6, 10),
                        rng.uniform(0.8, 1.0, 10)])
    codes = predictors._code_columns(x)
    assert codes.weight.tolist() == [10.0, 10.0, 10.0]
    assert np.array_equal(codes.group, np.repeat([0, 1, 2], 10))
    # every node holds at most 3 distinct rows, fewer than min_samples_leaf
    params = GBRTParams(rounds=2, max_depth=2, min_samples_leaf=10)
    got = train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(_reference_train_gbrt(x, y, params)[0])
    assert (got.nodes.feature == 0).sum() == 4  # both trees split twice


def test_row_key_is_re_ranked_before_it_overflows():
    # 12 columns of 3,000 to 3,400 values each: the product of the columns'
    # widths passes 2**62 after six of them, so the rows' radix key is
    # re-ranked on the way. Twin rows differ from another in only the first
    # or only the last column, so those columns' ranks must both survive.
    rng = np.random.default_rng(29)
    base = rng.uniform(0.25, 1.25, size=(3000, 12))
    first, last = base[:400].copy(), base[400:800].copy()
    first[:, 0] += 1.0
    last[:, -1] += 1.0
    x = _repeat_rows(rng, np.vstack([base, first, last]), 3)
    codes = predictors._code_columns(x)
    assert math.prod(np.diff(codes.start).tolist()) > 2**62
    assert np.array_equal(codes.group, _unique_rows(x))
    assert codes.weight.tolist() == np.bincount(codes.group).tolist()
    y = rng.uniform(size=len(x))
    params = GBRTParams(rounds=2, max_depth=3, min_samples_leaf=4)
    got = train_gbrt(x, y, params)
    want, want_mse = _reference_train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(want)
    assert list(got.training_mse) == want_mse


def test_all_constant_columns_give_one_group_and_one_leaf():
    x = np.full((20, 3), 0.7)
    x[:, 2] = 0.0
    x[::2, 2] = -0.0  # equal to 0.0, so this column is constant too
    codes = predictors._code_columns(x)
    assert len(codes.cols) == 0 and codes.cells.shape == (1, 0)
    assert codes.group.tolist() == [0] * 20 and codes.weight.tolist() == [20.0]
    y = np.random.default_rng(2).uniform(size=20)
    params = GBRTParams(rounds=3, min_samples_leaf=1)
    got = train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(_reference_train_gbrt(x, y, params)[0])
    assert got.nodes.feature.tolist() == [-1, -1, -1]


def test_gbrt_threshold_between_adjacent_floats():
    # the midpoint of these neighbouring doubles rounds onto the upper one, so
    # the threshold must step down to keep the lower group on the left
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert (low + high) / 2.0 == high
    x = np.array([[low]] * 6 + [[high]] * 6)
    y = np.array([0.0] * 6 + [1.0] * 6)
    params = GBRTParams(rounds=2, min_samples_leaf=2)
    got = train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(_reference_train_gbrt(x, y, params)[0])
    assert got.nodes.threshold[got.roots[0]] == low
    first = GBRTModel.from_dict({**got.to_dict(), "trees": got.to_dict()["trees"][:1]})
    assert list(first.raw_batch(x) > first.base_score) == [False] * 6 + [True] * 6


@pytest.mark.parametrize("seed", range(8))
def test_gbrt_threshold_steps_down_next_to_a_signed_zero(seed):
    # -0.0 and 0.0 are one value between the two subnormals. The midpoint of
    # -5e-324 and the zero rounds to -0.0, not below the zero, so the
    # threshold steps down to -5e-324; the model must hold the reference's
    # bytes, signs of zero included
    rng = np.random.default_rng(seed)
    values = np.array([-5e-324, -0.0, 0.0, 5e-324])
    which = np.repeat(np.arange(4), rng.integers(2, 9, size=4))  # each value 2 to 8 times
    x = values[rng.permutation(which)][:, None]
    y = np.where(x[:, 0] < 0.0, 0.1, np.where(x[:, 0] > 0.0, 0.5, 0.9))
    y = np.clip(y + rng.normal(0.0, 0.05, size=len(y)), 0.0, 1.0)
    params = GBRTParams(rounds=3, max_depth=2, min_samples_leaf=1)
    got = train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(_reference_train_gbrt(x, y, params)[0])
    assert -5e-324 in got.nodes.threshold.tolist()


@st.composite
def _random_tree(draw, width: int, values: List[float]) -> _Tree:
    """A tree of depth 0 to 4 whose thresholds are some of `values`."""
    tree: _Tree = ([], [], [], [], [])

    def grow(depth: int) -> int:
        i = len(tree[0])
        for column, blank in zip(tree, (-1, 0.0, -1, -1, 0.0)):
            column.append(blank)
        if depth == 0 or not draw(st.booleans()):
            tree[4][i] = draw(st.floats(-1.0, 1.0))
            return i
        tree[0][i] = draw(st.integers(0, width - 1))
        tree[1][i] = draw(st.sampled_from(values))
        tree[2][i] = grow(depth - 1)
        tree[3][i] = grow(depth - 1)
        return i

    grow(draw(st.integers(0, 4)))
    return tree


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 6), rows=st.integers(0, 40),
       rate=st.sampled_from((0.1, 0.3, 1.0)), base=st.floats(-1.0, 2.0),
       leaves=st.none())
@example(data=None, width=2, rows=1, rate=0.1, base=0.3,  # one row: a reduce goes pairwise
         leaves=[1.0 / (k + 3) for k in range(9)])
@example(data=None, width=3, rows=5, rate=0.3, base=0.7, leaves=[])  # no trees
@example(data=None, width=3, rows=0, rate=1.0, base=0.2, leaves=[0.5, -0.25])  # no rows
def test_stacked_ensemble_matches_the_per_tree_sum(data, width, rows, rate, base, leaves):
    if leaves is None:
        values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
        trees = data.draw(st.lists(_random_tree(width, values), min_size=0, max_size=12))
        # features drawn from the thresholds themselves land exactly on a split
        x = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(values) | st.floats(-3.0, 3.0), min_size=width,
                     max_size=width),
            min_size=rows, max_size=rows,
        ))).reshape(rows, width)
    else:  # one leaf per tree, which every row reaches
        trees = [([-1], [0.0], [-1], [-1], [v]) for v in leaves]
        x = np.linspace(-1.0, 1.0, rows * width).reshape(rows, width)
    model = GBRTModel.from_dict({
        "version": predictors.MODEL_FORMAT_VERSION, "kind": "gbrt", "n_features": width,
        "base_score": base, "learning_rate": rate,
        "trees": [_reference_tree_dict(t) for t in trees],
    })
    want = _reference_raw_batch(base, rate, trees, x)
    assert model.raw_batch(x).tolist() == want.tolist()
    assert model.predict_batch(x).tolist() == np.clip(want, 0.0, 1.0).tolist()


def _tiny_model_dict(feature_index: int = 1, n_features: int = 3) -> dict:
    return {
        "version": predictors.MODEL_FORMAT_VERSION, "kind": "gbrt", "n_features": n_features,
        "base_score": 0.5, "learning_rate": 0.1,
        "trees": [{"leaf_value": 0.2},
                  {"feature_index": feature_index, "threshold": 0.5,
                   "left": {"leaf_value": -1.0}, "right": {"leaf_value": 1.0}}],
    }


@pytest.mark.parametrize("feature_index", [3, 500, -2])
def test_model_file_with_a_feature_out_of_range_fails_at_load(feature_index):
    GBRTModel.from_dict(_tiny_model_dict())
    with pytest.raises(ValueError, match="malformed trees"):
        GBRTModel.from_dict(_tiny_model_dict(feature_index))


def test_model_with_children_before_their_parent_is_rejected():
    nodes = predictors.TreeNodes(
        feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1]), right=np.array([0, -1, -1]), value=np.zeros(3),
    )
    with pytest.raises(ValueError, match="malformed trees"):
        GBRTModel(0.0, 0.1, nodes, [0], 1)


def test_performance_models_need_the_feature_width():
    bundle = {
        "version": predictors.MODEL_FORMAT_VERSION,
        "accuracy": _tiny_model_dict(n_features=FEATURE_WIDTH - 1),
        "update_latency": {"slope_ms_per_track": 0.01, "intercept_ms": 0.5},
    }
    with pytest.raises(ValueError, match="features"):
        PerformanceModels.from_dict(bundle)
    bundle["accuracy"] = _tiny_model_dict(n_features=FEATURE_WIDTH)
    assert PerformanceModels.from_dict(bundle).accuracy.n_features == FEATURE_WIDTH


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40_000),
    scale=st.sampled_from((0.0, 1e-310, 1e-9, 1.0, 3.0)),
    kind=st.sampled_from(("mixed", "same_sign", "at_bound")),
    seed=st.integers(0, 2**32 - 1),
)
# every residual of one sign and at max|r|: the largest sums the grid allows
@example(n=3, scale=0.7, kind="at_bound", seed=0)
@example(n=1000, scale=0.7, kind="at_bound", seed=0)
def test_on_grid_sums_are_exact_in_any_order(n, scale, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "at_bound":
        r = np.full(n, scale)
    elif kind == "same_sign":
        r = rng.uniform(0.0, 1.0, n) * scale
    else:
        r = rng.normal(size=n) * scale
    g = predictors._on_grid(r)
    exact = sum(map(Fraction, g.tolist()), Fraction(0))
    shuffled = g[rng.permutation(n)]
    assert Fraction(float(np.cumsum(shuffled)[-1])) == exact  # one running sum
    assert Fraction(float(shuffled.sum())) == exact  # NumPy's pairwise sum
    # a sibling histogram's bin: the parent's sum minus the child's
    child = rng.uniform(size=n) < 0.5
    sibling = float(g.sum()) - float(g[child].sum())
    assert Fraction(sibling) == sum(map(Fraction, g[~child].tolist()), Fraction(0))


def test_sibling_histograms_equal_the_direct_ones_on_the_grid():
    rng = np.random.default_rng(23)
    distinct = 400
    base = np.column_stack([
        rng.choice([0.0, 0.5, 1.0], size=distinct),
        rng.integers(0, 2, size=distinct).astype(float),
        rng.uniform(size=distinct),
        np.full(distinct, 0.3),
    ])
    # each row 1 to 4 times: the histograms are of weighted distinct rows
    x = _repeat_rows(rng, base, 4)
    n = len(x)
    # residuals of mixed sign and scale, so that their raw sums visibly round
    raw = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    r = predictors._on_grid(raw)
    codes = predictors._code_columns(x)
    assert list(codes.cols) == [0, 1, 2]
    assert len(codes.weight) == distinct and codes.weight.sum() == n
    distinct_values = [np.unique(x[:, c]) for c in codes.cols]
    for j, c in enumerate(codes.cols):
        # column j's bins hold its own distinct values, in ascending order
        assert np.array_equal(codes.values[codes.start[j] : codes.start[j + 1]],
                              distinct_values[j])
        assert np.array_equal(codes.values[codes.cells[codes.group, j]], x[:, c])

    def group_sums(res):
        """Each distinct row's sum of its rows' residuals, as a round gives them."""
        return np.bincount(codes.group, res, distinct)

    # every row on its own, of weight 1: the histograms the weighted ones replace
    expanded = codes._replace(cells=codes.cells[codes.group], group=np.arange(n),
                              weight=np.ones(n))

    def members(rows):
        """The rows of x that the distinct rows `rows` stand for."""
        return np.flatnonzero(np.isin(codes.group, rows))

    def histogram(rows, res):
        """The weighted histogram of the distinct rows `rows`; its counts,
        and on the grid its sums, are bit for bit those of the rows they
        stand for, each of weight 1."""
        h = predictors._histogram(codes, rows, group_sums(res))
        e = predictors._histogram(expanded, members(rows), res)
        if res is r:
            assert h.sums.tobytes() == e.sums.tobytes()
        assert h.counts.tobytes() == e.counts.tobytes()
        return h

    def sibling(parent, child):
        return predictors._Hist(parent.sums - child.sums, parent.counts - child.counts)

    def exact(h, rows):
        """Whether every bin sum of h is the exact sum of its rows' residuals."""
        mine = members(rows)
        return all(
            Fraction(h.sums[b]) == sum(map(Fraction, r[mine[cells == b]]), Fraction(0))
            for j in range(len(codes.cols))
            for cells in [codes.cells[codes.group[mine], j]]
            for b in range(codes.start[j], codes.start[j + 1])
        )

    rows = np.arange(distinct)
    hist = histogram(rows, r)
    raw_hist = histogram(rows, raw)
    assert len(hist.sums) == sum(map(len, distinct_values))  # 3 + 2 + 400 bins, no padding
    # two levels of parent - child, so one derived histogram derives another
    for depth in range(2):
        go_left = rng.uniform(size=len(rows)) < 0.4
        small, large = rows[go_left], rows[~go_left]
        child = histogram(small, r)
        derived = sibling(hist, child)
        direct = histogram(large, r)
        assert np.array_equal(derived.counts, direct.counts)
        assert np.array_equal(np.add.reduceat(direct.counts, codes.start[:-1]),
                              np.full(3, len(members(large))))
        assert np.array_equal(derived.sums, direct.sums)
        assert exact(child, small) and exact(direct, large)
        # off the grid, the same derivation rounds
        raw_derived = sibling(raw_hist, histogram(small, raw))
        assert not np.array_equal(raw_derived.sums, histogram(large, raw).sums)
        hist, raw_hist, rows = derived, raw_derived, large


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(2, 500), min_size=2, max_size=12),
    at=st.integers(0, 11),
    extra_rows=st.integers(0, 300),
    scale=st.sampled_from((0.0, 1e-310, 1e-9, 1.0, 3.0)),
    kind=st.sampled_from(("mixed", "same_sign", "at_bound")),
    subset=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# every residual of one sign and at max|r|, beside a 500-value column first
# and last: a cumsum run across the columns would grow past the grid
@example(widths=[2] * 11 + [500], at=0, extra_rows=0, scale=0.7, kind="at_bound",
         subset=False, seed=0)
@example(widths=[2] * 11 + [500], at=11, extra_rows=0, scale=0.7, kind="at_bound",
         subset=False, seed=0)
# a subset of no distinct rows: its histogram is float zeros
@example(widths=[2, 2], at=0, extra_rows=288, scale=0.0, kind="mixed", subset=True, seed=114)
def test_restarted_cumsum_gives_exact_left_sums(widths, at, extra_rows, scale, kind, subset,
                                                seed):
    rng = np.random.default_rng(seed)
    widths = list(widths)
    widest = int(np.argmax(widths))
    at %= len(widths)
    widths[at], widths[widest] = widths[widest], widths[at]
    x = np.column_stack([rng.permutation(np.arange(max(widths) + extra_rows) % w) / w
                         for w in widths])
    x = _repeat_rows(rng, x, 3)  # weighted distinct rows
    n = len(x)
    if kind == "at_bound":
        raw = np.full(n, scale)
    elif kind == "same_sign":
        raw = rng.uniform(0.0, 1.0, n) * scale
    else:
        raw = rng.normal(size=n) * scale
    r = predictors._on_grid(raw)
    codes = predictors._code_columns(x)
    assert np.diff(codes.start).tolist() == widths
    distinct = len(codes.weight)
    rows = np.flatnonzero(rng.uniform(size=distinct) < 0.5) if subset else np.arange(distinct)
    mine = np.flatnonzero(np.isin(codes.group, rows))  # the rows of x they stand for
    hist = predictors._histogram(codes, rows, np.bincount(codes.group, r, distinct))
    left = predictors._left_sums(codes, hist.sums, float(r[mine].sum()))
    left_counts = predictors._left_sums(codes, hist.counts, len(mine))
    residuals = list(map(Fraction, r[mine].tolist()))
    for j, w in enumerate(widths):
        # the exact sum of column j's rows in each bin, then at or below it
        bins = codes.cells[codes.group[mine], j] - codes.start[j]
        in_bin = [Fraction(0)] * w
        for b, v in zip(bins.tolist(), residuals):
            in_bin[b] += v
        mine_bins = slice(codes.start[j], codes.start[j + 1])
        assert list(map(Fraction, left[mine_bins].tolist())) == list(itertools.accumulate(in_bin))
        assert np.array_equal(left_counts[mine_bins], np.cumsum(np.bincount(bins, None, w)))


def test_near_tied_columns_tie_exactly_on_the_grid():
    # Column 1 splits the rows into codes {0: rows 0-3, 1: rows 4-7, 2: rows
    # 8-11}; column 0 sends rows 0-7 left. Both send the same rows left, so
    # their gains tie and column 0, the lower one, wins. Column 1's histogram
    # adds rows 0-3 and 4-7 separately: off the grid that sum rounds another
    # way than the sorted scan's, on the grid the two are equal.
    rng = np.random.default_rng(3)
    y = np.concatenate([rng.uniform(0.0, 0.3, 8), rng.uniform(0.7, 1.0, 4)])
    x = np.column_stack([np.repeat([0.0, 1.0], [8, 4]), np.repeat([0.0, 1.0, 2.0], 4)])
    k = 8

    def binned_and_scanned(r):
        return np.cumsum(r[:4])[-1] + np.cumsum(r[4:8])[-1], np.cumsum(r)[k - 1]

    raw = y - y.mean()  # the first round's residuals
    binned, scan = binned_and_scanned(raw)
    assert binned != scan
    binned, scan = binned_and_scanned(predictors._on_grid(raw))
    assert binned == scan

    params = GBRTParams(rounds=1, max_depth=1, min_samples_leaf=1)
    got = train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(_reference_train_gbrt(x, y, params)[0])
    assert got.nodes.feature[got.roots[0]] == 0


def test_ties_across_many_duplicate_columns_go_to_the_lowest():
    # Column 0 splits the root; in each child the 1,500 identical columns after
    # it tie exactly. The children's residual sums are far from 0, so a
    # cumulative sum that ran across columns instead of restarting at each
    # would carry rounding from all the columns before into every gain.
    y = np.array([0.1, 0.1, 0.2, 0.25, 0.9, 0.9, 0.95, 1.0])
    first = np.repeat([0.0, 1.0], 4)
    x = np.column_stack([first] + [np.tile([0.0, 0.0, 1.0, 1.0], 2)] * 1500)
    params = GBRTParams(rounds=2, max_depth=2, min_samples_leaf=1)
    got = train_gbrt(x, y, params)
    assert _model_bytes(got.to_dict()) == _model_bytes(_reference_train_gbrt(x, y, params)[0])
    feature = got.nodes.feature
    assert feature[got.roots[0]] == 0
    assert sorted(set(feature[feature > 0].tolist())) == [1]


# -- update-latency model -----------------------------------------------------


def test_ols_recovers_noiseless_line_exactly():
    counts = np.arange(0, 25)
    lats = 0.5 + 0.035 * counts
    model = fit_update_latency(counts, lats)
    assert model.intercept_ms == pytest.approx(0.5, abs=1e-9)
    assert model.slope_ms_per_track == pytest.approx(0.035, abs=1e-9)
    assert model.predict(12) == pytest.approx(0.5 + 0.035 * 12, abs=1e-9)


def test_ols_clamps_negative_coefficients():
    counts = np.array([0, 1, 2, 3])
    lats = np.array([1.0, 0.8, 0.6, 0.4])  # negative slope is unphysical
    model = fit_update_latency(counts, lats)
    assert model.slope_ms_per_track == 0.0


def test_ols_needs_two_distinct_counts():
    with pytest.raises(ValueError):
        fit_update_latency([5, 5, 5], [1.0, 1.1, 0.9])


def test_linear_latency_round_trip():
    m = LinearLatencyModel(slope_ms_per_track=0.04, intercept_ms=0.9)
    clone = LinearLatencyModel.from_dict(m.to_dict())
    assert clone.predict(7) == m.predict(7)


# -- bundle --------------------------------------------------------------------


def test_performance_models_save_load(tmp_path):
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, 1.0, size=(80, FEATURE_WIDTH))
    y = np.clip(0.1 + 0.6 * x[:, 1], 0.0, 1.0)
    bundle = PerformanceModels(
        accuracy=train_gbrt(x, y, GBRTParams(rounds=10)),
        update_latency=LinearLatencyModel(0.03, 0.8),
    )
    path = tmp_path / "models.json"
    bundle.save(str(path), training_info={"samples": 80})
    loaded = PerformanceModels.load(str(path))
    probe = rng.uniform(0.0, 1.0, size=(10, FEATURE_WIDTH))
    assert np.array_equal(bundle.accuracy.predict_batch(probe),
                          loaded.accuracy.predict_batch(probe))
    assert loaded.update_latency.predict(4) == bundle.update_latency.predict(4)
