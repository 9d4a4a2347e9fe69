"""Learned accuracy and latency predictors.

The accuracy model maps (per-view category distribution, branch identity,
mean tracked confidence) to an expected per-view detection score in [0, 1].
It is a gradient-boosted ensemble of shallow regression trees, written out
here directly: training must be exactly reproducible and the model has to
serialize to plain JSON, which rules out an external boosting dependency.

The latency side is much simpler: the per-frame tracker-update cost is affine
in the number of live tracks, fit by least squares; branch execution costs
come straight from the device profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .branches import NUM_BRANCHES
from .core import NUM_CATEGORIES

FEATURE_WIDTH = NUM_CATEGORIES + NUM_BRANCHES + 1  # 80 + 17 + 1
_CONF_SLOT = NUM_CATEGORIES + NUM_BRANCHES

MODEL_FORMAT_VERSION = 1


def accuracy_features(
    ratios: np.ndarray, branch_indices: Sequence[int], view_confidence: np.ndarray
) -> np.ndarray:
    """Feature rows for every (branch, view) cell, shaped (branches, views, width).

    `ratios` holds each view's 80 distribution ratios, `branch_indices` the
    catalog index of each branch and `view_confidence` each view's mean
    tracked confidence (see `view_confidences`). Layout: 80 ratios, 17-wide
    branch one-hot, then one slot for the mean confidence. The confidence
    slot is only meaningful for the tracker branch; detection branches carry
    0 there so the width never varies.
    """
    idx = np.asarray(branch_indices, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= NUM_BRANCHES):
        raise ValueError(f"branch index out of range: {idx.tolist()}")
    ratios = np.asarray(ratios, dtype=np.float64)
    out = np.zeros((len(idx), len(ratios), FEATURE_WIDTH))
    out[:, :, :NUM_CATEGORIES] = ratios
    out[np.arange(len(idx)), :, NUM_CATEGORIES + idx] = 1.0
    out[idx == 0, :, _CONF_SLOT] = view_confidence
    return out


def view_confidences(
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
    """Append one serialized tree's nodes in preorder; returns its root."""
    if "leaf_value" in node:
        return _add_leaf(columns, float(node["leaf_value"]))
    i = _add_leaf(columns, 0.0)
    columns[0][i] = int(node["feature_index"])
    columns[1][i] = float(node["threshold"])
    columns[2][i] = _parse_tree(node["left"], columns)
    columns[3][i] = _parse_tree(node["right"], columns)
    return i


# Split search and list partitioning handle at most this many (feature, row)
# cells at once, which bounds their temporaries to a few MB whatever the node.
_BLOCK_CELLS = 1 << 18

# A node's presorted lists: for every non-constant column, the node's rows in
# stable order of that column (int32) and their value codes in the same order.
# A column's code is the rank of the value among the column's distinct values.
_NodeLists = Tuple[np.ndarray, np.ndarray]


def _blocks(rows: int, width: int) -> List[slice]:
    step = max(1, _BLOCK_CELLS // width)
    return [slice(j, j + step) for j in range(0, rows, step)]


def _best_split(
    y: np.ndarray,
    idx: np.ndarray,
    lists: _NodeLists,
    uniques: Sequence[np.ndarray],
    min_leaf: int,
) -> Optional[Tuple[int, float, int]]:
    """Exact greedy split of one node: (column, threshold, rows sent left).

    `idx` holds the node's rows in ascending order, so each cumulative sum
    adds the targets in the order a stable argsort of the node's column
    would. Only positions where the sorted value changes can split, and only
    those are scored. Maximizes squared-error reduction; deterministic
    tie-breaking (lowest column, then earliest split point). Returns None
    when nothing beats the parent.
    """
    orders, codes = lists
    n = len(idx)
    total = float(y[idx].sum())
    parent = total * total / n
    lo, hi = min_leaf, n - min_leaf  # rows sent left, k, satisfy lo <= k <= hi
    best_gain = 1e-12
    best: Optional[Tuple[int, float, int]] = None

    for blk in _blocks(len(orders), n):
        cb = codes[blk]
        cells = np.flatnonzero(cb[:, lo : hi + 1] > cb[:, lo - 1 : hi])
        if len(cells) == 0:
            continue
        f, k = np.divmod(cells, hi - lo + 1)
        k += lo
        left_sum = np.cumsum(y[orders[blk, : int(k.max())]], axis=1)[f, k - 1]
        score = left_sum**2 / k + (total - left_sum) ** 2 / (n - k)
        starts = np.flatnonzero(np.diff(f, prepend=-1))
        gains = np.maximum.reduceat(score, starts) - parent
        b = int(np.argmax(gains))
        if gains[b] > best_gain:
            best_gain = float(gains[b])
            stop = starts[b + 1] if b + 1 < len(starts) else len(f)
            c = starts[b] + int(np.argmax(score[starts[b] : stop]))
            j = blk.start + int(f[c])
            below = uniques[j][cb[f[c], k[c] - 1]]
            above = uniques[j][cb[f[c], k[c]]]
            thr = (below + above) / 2.0
            if thr >= above:  # adjacent floats can collapse the midpoint
                thr = float(np.nextafter(above, -np.inf))
            best = (j, float(thr), int(k[c]))
    return best


def _partition(
    lists: _NodeLists, go_left: np.ndarray, n_left: int, wanted: Sequence[bool]
) -> List[Optional[_NodeLists]]:
    """Split a node's lists stably into its (left, right) children's lists.

    `go_left` marks the rows sent left; a child not `wanted` (a leaf) gets
    None.
    """
    d, n = lists[0].shape
    kids = [
        tuple(np.empty((d, size), dtype=a.dtype) for a in lists) if want else None
        for size, want in zip((n_left, n - n_left), wanted)
    ]
    for blk in _blocks(d, n):
        side = go_left.take(lists[0][blk])
        for kid, sent in zip(kids, (side, ~side)):
            if kid is not None:
                cells = np.flatnonzero(sent)
                for src, dst in zip(lists, kid):
                    dst[blk] = src[blk].take(cells).reshape(-1, dst.shape[1])
    return kids


def _grow_tree(
    cols: np.ndarray,
    uniques: Sequence[np.ndarray],
    lists: _NodeLists,
    y: np.ndarray,
    max_depth: int,
    min_leaf: int,
    columns: _NodeColumns,
    fitted: np.ndarray,
) -> int:
    """Grow one tree from the root's presorted lists; returns its root.

    The tree's nodes are appended to `columns`, and each row's leaf value is
    written to `fitted`. List row j is feature `cols[j]`, whose distinct
    values are `uniques[j]`. Each split partitions every list stably, so a
    node's lists stay the stable argsorts of its own rows; nodes that will
    be leaves get no lists.
    """

    def is_leaf(size: int, depth: int) -> bool:
        return depth >= max_depth or size < 2 * min_leaf

    def grow(idx: np.ndarray, node_lists: Optional[_NodeLists], depth: int) -> int:
        value = float(y[idx].mean())
        i = _add_leaf(columns, value)
        split = None if node_lists is None else _best_split(y, idx, node_lists, uniques, min_leaf)
        if split is None:
            fitted[idx] = value
            return i
        j, thr, k = split
        columns[0][i] = int(cols[j])
        columns[1][i] = thr
        go_left = np.zeros(len(y), dtype=bool)
        go_left[node_lists[0][j, :k]] = True
        in_left = go_left[idx]
        kids = (idx[in_left], idx[~in_left])
        kid_lists = _partition(
            node_lists, go_left, k, [not is_leaf(len(kid), depth + 1) for kid in kids]
        )
        # popped, so each child's lists are freed once its subtree is grown
        columns[2][i] = grow(kids[0], kid_lists.pop(0), depth + 1)
        columns[3][i] = grow(kids[1], kid_lists.pop(0), depth + 1)
        return i

    n = len(y)
    root = grow(np.arange(n), None if is_leaf(n, 0) else lists, 0)
    # `grow` refers to itself through its closure; unbinding it frees this
    # round's targets now rather than at the next full garbage collection
    del grow
    return root


def _presort(x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray], _NodeLists]:
    """The root's lists over the non-constant columns of `x`.

    Returns the columns kept, each one's distinct values and the lists.
    """
    n = len(x)
    cols = np.flatnonzero(x.min(axis=0) != x.max(axis=0))
    orders = np.empty((len(cols), n), dtype=np.int32)
    codes = np.empty((len(cols), n), dtype=np.min_scalar_type(n - 1))
    uniques: List[np.ndarray] = []
    for j, c in enumerate(cols):
        orders[j] = np.argsort(x[:, c], kind="stable")
        xs = x[orders[j], c]
        rises = xs[1:] > xs[:-1]
        codes[j, 0] = 0
        np.cumsum(rises, out=codes[j, 1:])
        uniques.append(xs[np.flatnonzero(np.concatenate(([True], rises)))])
    return cols, uniques, (orders, codes)


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
        out = np.full(len(x), self.base_score, dtype=np.float64)
        for step in self.learning_rate * self.nodes.value.take(node):
            out += step
        return out

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
        if data.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model version: {data.get('version')!r}")
        if data.get("kind") != "gbrt":
            raise ValueError(f"unsupported model kind: {data.get('kind')!r}")
        columns: _NodeColumns = ([], [], [], [], [])
        roots = [_parse_tree(tree, columns) for tree in data["trees"]]
        return cls(
            base_score=float(data["base_score"]),
            learning_rate=float(data["learning_rate"]),
            nodes=_stack(columns),
            roots=roots,
            n_features=int(data["n_features"]),
        )


def train_gbrt(
    features: np.ndarray, targets: np.ndarray, params: Optional[GBRTParams] = None
) -> GBRTModel:
    """Fit the boosted ensemble on squared error.

    Deterministic: exact greedy splits, no subsampling, no randomness; the
    same inputs always produce the identical model file. Targets must lie in
    [0, 1] (they are detection scores).
    """
    params = params or GBRTParams()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (n, d) with matching targets")
    if len(y) == 0:
        raise ValueError("no training samples")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("targets must lie in [0, 1]")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")

    # x is fixed across rounds: drop the constant columns (nothing splits
    # them) and sort each remaining one once
    cols, uniques, lists = _presort(x)

    base = float(y.mean())
    pred = np.full(len(y), base)
    fitted = np.empty(len(y))
    columns: _NodeColumns = ([], [], [], [], [])
    roots: List[int] = []
    mse_trace: List[float] = []
    for _ in range(params.rounds):
        resid = y - pred
        roots.append(
            _grow_tree(
                cols, uniques, lists, resid, params.max_depth, params.min_samples_leaf,
                columns, fitted,
            )
        )
        pred += params.learning_rate * fitted
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
        return {
            "slope_ms_per_track": self.slope_ms_per_track,
            "intercept_ms": self.intercept_ms,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinearLatencyModel":
        return cls(
            slope_ms_per_track=float(data["slope_ms_per_track"]),
            intercept_ms=float(data["intercept_ms"]),
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
        if data.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported models version: {data.get('version')!r}")
        accuracy = GBRTModel.from_dict(data["accuracy"])
        if accuracy.n_features != FEATURE_WIDTH:
            raise ValueError(
                f"accuracy model takes {accuracy.n_features} features, not {FEATURE_WIDTH}"
            )
        return cls(
            accuracy=accuracy,
            update_latency=LinearLatencyModel.from_dict(data["update_latency"]),
        )

    def save(self, path: str, training_info: Optional[Mapping] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(training_info), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PerformanceModels":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
