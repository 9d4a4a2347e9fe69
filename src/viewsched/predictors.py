"""Learned accuracy and latency predictors.

The accuracy model maps (per-view category distribution, branch identity,
mean tracked confidence) to an expected per-view detection score in [0, 1].
It is a gradient-boosted ensemble of shallow regression trees, written out
here directly: training must be exactly reproducible and the model has to
serialize to plain JSON, which rules out an external boosting dependency.

Each split is the exact greedy one over every distinct feature value. Rows
with equal features always share a leaf, so a fit grows its trees on its
distinct rows, each weighted by its row count and carrying the sum of its
rows' residuals. A node scores every split from one flat histogram, a bin
per (column, value) (the larger child's is its parent's minus the smaller
child's). Each boosting round first rounds its residuals onto a power-of-two
grid coarse enough that every sum of them is exact, so a histogram's sums,
and the model file, are bit for bit those of a sorted scan of every column
over every row.

The latency side is much simpler: the per-frame tracker-update cost is affine
in the number of live tracks, fit by least squares; branch execution costs
come straight from the device profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .branches import NUM_BRANCHES, json_count, json_number, json_object
from .core import NUM_CATEGORIES

FEATURE_WIDTH = NUM_CATEGORIES + NUM_BRANCHES + 1  # 80 + 17 + 1
_CONF_SLOT = NUM_CATEGORIES + NUM_BRANCHES

MODEL_FORMAT_VERSION = 1
# the keys of a model file's three JSON objects, as `to_dict` writes them
_MODELS_KEYS = frozenset(("version", "accuracy", "update_latency", "training"))
_GBRT_KEYS = frozenset(("version", "kind", "n_features", "base_score", "learning_rate", "trees"))
_LATENCY_KEYS = frozenset(("slope_ms_per_track", "intercept_ms"))


def accuracy_features(
    distributions: np.ndarray,
    views: np.ndarray,
    confidences: np.ndarray,
    branch_indices: Sequence[int],
) -> np.ndarray:
    """The accuracy model's rows for every (branch, view) cell of a placed
    forecast, shaped (branches, views, width): each view's 80 `distributions`
    ratios, the one-hot of its catalog index in `branch_indices`, then the
    mean `confidences` of the boxes whose `views` entry is that view (0 for
    a view without any). Only the tracker branch fills that last slot;
    detection branches carry 0 there so the width never varies. The planner
    and the training set both featurize here.
    """
    idx = np.asarray(branch_indices, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= NUM_BRANCHES):
        raise ValueError(f"branch index out of range: {idx.tolist()}")
    ratios = np.asarray(distributions, dtype=np.float64)
    conf = np.asarray(confidences, dtype=np.float64)
    views = np.asarray(views)
    # each view's mean as `np.mean` takes it, one reduce over the view's
    # boxes in their order: a bincount or reduceat sum would add in another
    # order; views outside [0, len(ratios)) fall outside every segment
    order = np.argsort(views, kind="stable")
    ends = np.searchsorted(views[order], np.arange(len(ratios) + 1)).tolist()
    grouped = conf[order]
    view_conf = np.zeros(len(ratios))
    for v, (a, b) in enumerate(zip(ends, ends[1:])):
        if b > a:
            view_conf[v] = np.add.reduce(grouped[a:b]) / (b - a)
    out = np.zeros((len(idx), len(ratios), FEATURE_WIDTH))
    out[:, :, :NUM_CATEGORIES] = ratios
    out[np.arange(len(idx)), :, NUM_CATEGORIES + idx] = 1.0
    out[idx == 0, :, _CONF_SLOT] = view_conf
    return out


# -- regression trees -------------------------------------------------------


class TreeNodes(NamedTuple):
    """The nodes of every tree of an ensemble, stacked into flat arrays.

    Internal node i routes x[feature[i]] <= threshold[i] to node `left[i]`,
    otherwise to node `right[i]`; leaves have feature == -1 and carry their
    value in `value`. Child indices are global, so a tree is the set of nodes
    reachable from its root, and every child comes after its parent.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


# TreeNodes as the Python lists that trees are grown or parsed into
_NodeColumns = Tuple[List[int], List[float], List[int], List[int], List[float]]


def _add_leaf(columns: _NodeColumns, value: float) -> int:
    """Append a leaf node; a caller that splits it sets its other columns."""
    feature, threshold, left, right, values = columns
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    values.append(value)
    return len(feature) - 1


def _stack(columns: _NodeColumns) -> TreeNodes:
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64)
    return TreeNodes(*(np.asarray(c, dtype=d) for c, d in zip(columns, dtypes)))


def _parse_tree(node: Mapping, columns: _NodeColumns) -> int:
    """Append one serialized tree's nodes in preorder; returns its root.
    Each node is a JSON object with exactly a leaf's or a split's keys;
    feature indices must be JSON ints and the other numbers JSON numbers."""
    if not isinstance(node, dict):
        raise TypeError(f"a tree node must be a JSON object, got {node!r}")
    if len(node) == 1 and "leaf_value" in node:
        value = node["leaf_value"]
        if type(value) is not float and type(value) is not int:
            raise ValueError(f"leaf_value must be a number, got {value!r}")
        return _add_leaf(columns, value)
    # a split reads each of its four keys below, so four keys are exactly those
    if len(node) != 4:
        raise ValueError("a tree node holds exactly leaf_value, or feature_index, threshold, "
                         f"left and right; got {sorted(node)}")
    feature, threshold = node["feature_index"], node["threshold"]
    if type(feature) is not int:
        raise ValueError(f"feature_index must be an integer, got {feature!r}")
    if type(threshold) is not float and type(threshold) is not int:
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    i = _add_leaf(columns, 0.0)
    columns[0][i] = feature
    columns[1][i] = threshold
    columns[2][i] = _parse_tree(node["left"], columns)
    columns[3][i] = _parse_tree(node["right"], columns)
    return i


# -- split search -----------------------------------------------------------

def _on_grid(r: np.ndarray) -> np.ndarray:
    """`r` rounded to the nearest multiples of 2**e, where len(r) * max|r|
    < 2**(e + 51). Any sum of these values is then a multiple of 2**e below
    2**(e + 52), which float64 holds exactly: it is the same in every order.
    """
    e = math.frexp(len(r) * float(np.abs(r).max()))[1] - 51
    return np.ldexp(np.rint(np.ldexp(r, -e)), e)


class _Codes(NamedTuple):
    """A fit's distinct rows, coded once over its non-constant columns.

    Row i of the fit is distinct row group[i], and distinct row r stands for
    weight[r] rows (a float holding an exact integer). Column j owns the
    ragged bins start[j] … start[j+1] - 1, one per distinct value, ascending.
    Cell (r, j) holds the bin of distinct row r's value in column cols[j],
    `values[b]` bin b's feature value and `counts[b]` its row count in the
    whole fit."""

    cols: np.ndarray
    cells: np.ndarray
    start: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    group: np.ndarray
    weight: np.ndarray


class _Hist(NamedTuple):
    """One node's residual sums and row counts per bin, flat as in `_Codes`."""

    sums: np.ndarray
    counts: np.ndarray


def _code_columns(x: np.ndarray) -> _Codes:
    cols = np.flatnonzero(x.min(axis=0) != x.max(axis=0))
    # each row's value ranks in the columns so far, as one radix key below
    # `span`: equal keys, equal rows
    key, span = np.zeros(len(x), dtype=np.int64), 1
    uniques: List[np.ndarray] = [np.zeros(0)]
    start = [0]
    for c in cols:
        column = x[:, c].copy()  # contiguous: sorts and gathers faster
        order = np.argsort(column, kind="stable")
        xs = column[order]
        new = np.concatenate(([True], xs[1:] > xs[:-1]))  # the first row of each value
        uniques.append(xs[new])
        width = len(uniques[-1])
        start.append(start[-1] + width)
        if span * width > 2**62:  # re-rank the keys so far, to stay in int64
            kept, key = np.unique(key, return_inverse=True)
            span = len(kept)
        rank = np.empty(len(x), dtype=np.int64)
        rank[order] = np.cumsum(new) - 1
        key = key * width + rank
        span *= width
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    values = np.concatenate(uniques)
    # intp, the type np.bincount counts in, so no node converts its cells;
    # the distinct rows hold every value of a column, so a search finds its bin
    cells = np.empty((len(first), len(cols)), dtype=np.intp)
    for j, c in enumerate(cols):
        cells[:, j] = np.searchsorted(values[start[j] : start[j + 1]], x[first, c]) + start[j]
    weight = np.bincount(group).astype(float)
    # float like every node's counts, also with no column (np.bincount gives int64)
    counts = np.bincount(cells.ravel(), np.repeat(weight, len(cols)), start[-1]).astype(float)
    return _Codes(cols, cells, np.asarray(start), values, counts, group, weight)


def _histogram(codes: _Codes, rows: np.ndarray, y: np.ndarray) -> _Hist:
    """The histogram of the distinct rows `rows`: one `np.bincount` adds each
    row's residual sum from `y` to its cells' bins, and one its weight. The
    root's counts are the fit's own, `codes.counts`."""
    bins, d = len(codes.values), len(codes.cols)
    root = len(rows) == len(y)
    cells = (codes.cells if root else codes.cells[rows]).ravel()

    def per_bin(values: np.ndarray) -> np.ndarray:
        # float also without cells, where np.bincount gives int64
        return np.bincount(cells, np.repeat(values, d), bins).astype(float, copy=False)

    return _Hist(per_bin(y[rows]), codes.counts if root else per_bin(codes.weight[rows]))


def _left_sums(codes: _Codes, per_bin: np.ndarray, total: float) -> np.ndarray:
    """Each bin's sum over its column's bins up to it, where each column's
    bins add up to `total`: one cumsum that restarts at every column, so it
    runs inside a column as minus the sum of its later bins, exact on the grid."""
    per_bin = per_bin.copy()
    per_bin[codes.start[:-1]] -= total
    return np.cumsum(per_bin) + total


def _best_split(
    codes: _Codes, hist: _Hist, idx: np.ndarray, total: float, n: float, min_leaf: int
) -> Optional[Tuple[int, float, np.ndarray]]:
    """Exact greedy split of the node of distinct rows `idx`, which stand for
    `n` rows whose on-grid residuals sum to `total`: (column, threshold,
    distinct rows sent left), or None when no column beats the parent by
    more than 1e-12.

    Maximizes squared-error reduction over every bin at once. Every sum is
    exact, so the scores are the sorted scan's bit for bit. Ties go to the
    lowest column, then to the earliest split point.
    """
    lo, hi = min_leaf, n - min_leaf  # rows sent left, k, satisfy lo <= k <= hi
    counts = _left_sums(codes, hist.counts, n)  # every column counts the n rows
    b = np.flatnonzero((hist.counts > 0) & (counts >= lo) & (counts <= hi))
    if len(b) == 0:
        return None
    f, k = np.searchsorted(codes.start, b, "right") - 1, counts[b]  # f: b's column
    left_sum = _left_sums(codes, hist.sums, total)[b]
    score = left_sum**2 / k + (total - left_sum) ** 2 / (n - k)
    starts = np.flatnonzero(np.diff(f, prepend=-1))
    gains = np.maximum.reduceat(score, starts) - total * total / n
    c = int(np.argmax(gains))
    if gains[c] <= 1e-12:
        return None
    j = int(f[starts[c]])
    mine = np.flatnonzero(f == j)
    below = int(b[mine[np.argmax(score[mine])]])  # the last bin sent left
    above = below + 1 + int(np.flatnonzero(hist.counts[below + 1 : codes.start[j + 1]])[0])
    low, high = codes.values[below], codes.values[above]
    thr = (low + high) / 2.0
    if thr >= high:  # adjacent floats can collapse the midpoint
        thr = np.nextafter(high, -np.inf)
    return j, float(thr), codes.cells[idx, j] <= below


def _grow_tree(
    codes: _Codes,
    y: np.ndarray,
    max_depth: int,
    min_leaf: int,
    columns: _NodeColumns,
    fitted: np.ndarray,
) -> int:
    """Grow one tree on the distinct rows, `y` holding each one's sum of
    on-grid residuals; returns its root.

    A node's size is the sum of its distinct rows' weights, its row count.
    The tree's nodes are appended to `columns`, and each distinct row's leaf
    value, the mean of its leaf's residuals, is written to `fitted`. Of a
    split's children the one with fewer distinct rows has its histogram
    accumulated and the other's is the parent's minus it; nodes that will be
    leaves get none.
    """

    def is_leaf(size: float, depth: int) -> bool:
        return depth >= max_depth or size < 2 * min_leaf

    def grow(idx: np.ndarray, size: float, hist: Optional[_Hist], depth: int) -> int:
        total = float(y[idx].sum())
        value = total / size
        i = _add_leaf(columns, value)
        split = None if hist is None else _best_split(codes, hist, idx, total, size, min_leaf)
        if split is None:
            fitted[idx] = value
            return i
        j, thr, go_left = split
        columns[0][i] = int(codes.cols[j])
        columns[1][i] = thr
        kids = (idx[go_left], idx[~go_left])
        sizes = [float(codes.weight[kid].sum()) for kid in kids]
        wanted = [not is_leaf(s, depth + 1) for s in sizes]
        hists: List[Optional[_Hist]] = [None, None]
        if any(wanted):
            small = int(len(kids[1]) < len(kids[0]))
            hists[small] = _histogram(codes, kids[small], y)
            if wanted[1 - small]:
                hists[1 - small] = _Hist(*(p - q for p, q in zip(hist, hists[small])))
            if not wanted[small]:
                hists[small] = None
        columns[2][i] = grow(kids[0], sizes[0], hists[0], depth + 1)
        columns[3][i] = grow(kids[1], sizes[1], hists[1], depth + 1)
        return i

    every, n = np.arange(len(y)), float(len(codes.group))
    root = grow(every, n, None if is_leaf(n, 0) else _histogram(codes, every, y), 0)
    # `grow` refers to itself through its closure; unbinding it frees this
    # round's targets now rather than at the next full garbage collection
    del grow
    return root


@dataclass(frozen=True)
class GBRTParams:
    rounds: int = 80
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 5

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError("rounds, max_depth, min_samples_leaf must be >= 1")
        if not 0.0 < self.learning_rate <= 2.0:
            raise ValueError("learning_rate must be in (0, 2]")


class GBRTModel:
    """Boosted tree ensemble; prediction is clamped to [0, 1].

    The trees are stacked into one `TreeNodes` table, tree k rooted at
    `roots[k]`. Prediction advances every tree together, one gather per
    depth level, then adds each tree's learning_rate * leaf in tree order,
    so the sum rounds exactly as a tree-by-tree loop would.
    """

    def __init__(
        self,
        base_score: float,
        learning_rate: float,
        nodes: TreeNodes,
        roots: Sequence[int],
        n_features: int,
        training_mse: Sequence[float] = (),
    ):
        self.base_score = float(base_score)
        self.learning_rate = float(learning_rate)
        self.nodes = nodes
        self.roots = np.asarray(roots, dtype=np.int64)
        self.n_features = int(n_features)
        self.training_mse = tuple(float(v) for v in training_mse)

        feature, _, left, right, _ = nodes
        count = len(feature)
        ids = np.arange(count)
        inner = feature != -1
        kids = np.concatenate([left[inner], right[inner]])
        if (
            np.any((feature[inner] < 0) | (feature[inner] >= self.n_features))
            or np.any((kids <= np.tile(ids[inner], 2)) | (kids >= count))
            or np.any((self.roots < 0) | (self.roots >= count))
        ):
            raise ValueError(
                f"malformed trees: every split needs a feature in [0, {self.n_features}) "
                "and children that follow it"
            )
        # walking tables: a leaf routes to itself, so trees of any depth
        # advance in lockstep; _child[i] is the right child, _child[count + i]
        # the left one
        self._split = np.where(inner, feature, 0)
        self._child = np.concatenate([np.where(inner, right, ids), np.where(inner, left, ids)])
        self._depth = 0
        level = self.roots[inner[self.roots]]
        while len(level):
            self._depth += 1
            level = np.concatenate([left[level], right[level]])
            level = level[inner[level]]

    def raw_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) features, got {x.shape}")
        cells = x.ravel()
        row_start = np.arange(len(x)) * self.n_features
        threshold = self.nodes.threshold
        node = np.repeat(self.roots[:, None], len(x), axis=1)  # (trees, rows)
        for _ in range(self._depth):
            go_left = cells.take(row_start + self._split.take(node)) <= threshold.take(node)
            node = self._child.take(node + len(self._split) * go_left)
        # row 0 the base score, then each tree's step; accumulate adds them in
        # tree order, where an axis-0 reduce of one row would sum pairwise
        steps = np.empty((len(node) + 1, len(x)))
        steps[0] = self.base_score
        np.multiply(self.learning_rate, self.nodes.value.take(node), out=steps[1:])
        return np.add.accumulate(steps, axis=0)[-1]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.raw_batch(x), 0.0, 1.0)

    def to_dict(self) -> dict:
        feature, threshold, left, right, value = (a.tolist() for a in self.nodes)

        def build(i: int) -> dict:
            if feature[i] < 0:
                return {"leaf_value": value[i]}
            return {
                "feature_index": feature[i],
                "threshold": threshold[i],
                "left": build(left[i]),
                "right": build(right[i]),
            }

        return {
            "version": MODEL_FORMAT_VERSION,
            "kind": "gbrt",
            "n_features": self.n_features,
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "trees": [build(root) for root in self.roots.tolist()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GBRTModel":
        version = data.get("version")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model version: {version!r}")
        if data.get("kind") != "gbrt":
            raise ValueError(f"unsupported model kind: {data.get('kind')!r}")
        columns: _NodeColumns = ([], [], [], [], [])
        roots = [_parse_tree(tree, columns) for tree in data["trees"]]
        nodes = _stack(columns)
        if not np.isfinite(np.concatenate([nodes.threshold, nodes.value])).all():
            raise ValueError("every threshold and leaf_value must be finite")
        learning_rate = json_number("learning_rate", data["learning_rate"])
        if not 0.0 < learning_rate <= 2.0:  # the range GBRTParams trains with
            raise ValueError(f"learning_rate must be in (0, 2], got {learning_rate!r}")
        return cls(
            base_score=json_number("base_score", data["base_score"]),
            learning_rate=learning_rate,
            nodes=nodes,
            roots=roots,
            n_features=json_count("n_features", data["n_features"]),
        )


def train_gbrt(
    features: np.ndarray, targets: np.ndarray, params: Optional[GBRTParams] = None
) -> GBRTModel:
    """Fit the boosted ensemble on squared error.

    Deterministic: each round's trees are grown on its residuals rounded
    onto a grid (`_on_grid`), with exact greedy splits found by the histogram
    search of the module docstring, no subsampling, no randomness; the same
    inputs always produce the identical model file. The trees grow on the
    distinct rows of `features`, each weighted by its row count, and each row
    takes its distinct row's leaf. Targets must be finite and lie in [0, 1]
    (they are detection scores).
    """
    params = params or GBRTParams()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise ValueError(f"features must be (n, d) and targets (n,), got {x.shape} and {y.shape}")
    if len(y) == 0:
        raise ValueError("no training samples")
    if not np.all((y >= 0.0) & (y <= 1.0)):  # NaN fails both comparisons
        raise ValueError("targets must lie in [0, 1]")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")

    # x is fixed across rounds: drop the constant columns (nothing splits
    # them), code each remaining one and find the distinct rows once
    codes = _code_columns(x)

    base = float(y.mean())
    pred = np.full(len(y), base)
    fitted = np.empty(len(codes.weight))
    columns: _NodeColumns = ([], [], [], [], [])
    roots: List[int] = []
    mse_trace: List[float] = []
    for _ in range(params.rounds):
        # on the grid, each distinct row's residual sum is exact in any order
        resid = np.bincount(codes.group, _on_grid(y - pred), len(fitted))
        roots.append(
            _grow_tree(codes, resid, params.max_depth, params.min_samples_leaf, columns, fitted)
        )
        pred += params.learning_rate * fitted[codes.group]
        mse_trace.append(float(np.mean((y - pred) ** 2)))
    return GBRTModel(base, params.learning_rate, _stack(columns), roots, x.shape[1], mse_trace)


# -- latency ----------------------------------------------------------------


@dataclass(frozen=True)
class LinearLatencyModel:
    """Tracker-update cost, affine in the live track count."""

    slope_ms_per_track: float
    intercept_ms: float

    def __post_init__(self) -> None:
        if self.slope_ms_per_track < 0 or self.intercept_ms < 0:
            raise ValueError("latency model coefficients must be non-negative")

    def predict(self, track_count: int) -> float:
        if track_count < 0:
            raise ValueError("track count must be non-negative")
        return self.slope_ms_per_track * track_count + self.intercept_ms

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinearLatencyModel":
        return cls(
            slope_ms_per_track=json_number("slope_ms_per_track", data["slope_ms_per_track"]),
            intercept_ms=json_number("intercept_ms", data["intercept_ms"]),
        )


def fit_update_latency(
    track_counts: Sequence[int], latencies_ms: Sequence[float]
) -> LinearLatencyModel:
    """Least-squares fit of the affine update-cost model.

    Needs at least two distinct track counts; negative fitted coefficients
    are clamped to zero (they would predict negative cost).
    """
    counts = np.asarray(track_counts, dtype=np.float64)
    lats = np.asarray(latencies_ms, dtype=np.float64)
    if counts.shape != lats.shape or counts.ndim != 1:
        raise ValueError("track_counts and latencies_ms must be 1-d and equal length")
    if len(np.unique(counts)) < 2:
        raise ValueError("need at least two distinct track counts to fit a slope")
    design = np.column_stack([np.ones_like(counts), counts])
    coef, *_ = np.linalg.lstsq(design, lats, rcond=None)
    return LinearLatencyModel(
        slope_ms_per_track=max(float(coef[1]), 0.0),
        intercept_ms=max(float(coef[0]), 0.0),
    )


# -- combined bundle ----------------------------------------------------------


@dataclass
class PerformanceModels:
    """Everything the scheduler needs to predict: accuracy and update cost."""

    accuracy: GBRTModel
    update_latency: LinearLatencyModel

    def to_dict(self, training_info: Optional[Mapping] = None) -> dict:
        out = {
            "version": MODEL_FORMAT_VERSION,
            "accuracy": self.accuracy.to_dict(),
            "update_latency": self.update_latency.to_dict(),
        }
        if training_info is not None:
            out["training"] = dict(training_info)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "PerformanceModels":
        json_object("models", data, _MODELS_KEYS)
        version = data.get("version")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported models version: {version!r}")
        accuracy = GBRTModel.from_dict(json_object("accuracy", data["accuracy"], _GBRT_KEYS))
        if accuracy.n_features != FEATURE_WIDTH:
            raise ValueError(
                f"accuracy model takes {accuracy.n_features} features, not {FEATURE_WIDTH}"
            )
        return cls(
            accuracy=accuracy,
            update_latency=LinearLatencyModel.from_dict(
                json_object("update_latency", data["update_latency"], _LATENCY_KEYS)
            ),
        )

    def save(self, path: str, training_info: Optional[Mapping] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(training_info), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PerformanceModels":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
