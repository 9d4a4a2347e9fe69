"""Budgeted branch-to-view assignment.

Each camera view gets exactly one branch; the objective is the sum of
predicted per-view scores, subject to the total marginal latency fitting the
effective budget (frame target minus fixed per-frame cost minus the predicted
tracker-update cost). This is a multiple-choice knapsack, solved exactly by a
dynamic program over a 0.1 ms integer latency grid.

Scores are first normalized per view against the most powerful branch (the
one with the largest marginal latency), so a score of 1.0 reads as "as good
as the best we could possibly run here".

Every plan is ranked by one rule: the most score ticks (`_score_ticks`), then
the least latency, then the lexicographically smallest assignment vector.
Ticks are integers, so a plan's tick sum is exact in any order of addition,
where a float sum's rounding depends on that order; `predicted_objective` is
that tick sum in score units. Latency is compared in
`_latency_ticks`; at alpha = 1 the knapsack counts 0.1 ms grid units, which
on the grid is the same order. `solve_bruteforce` is the independent
enumeration check; it must never be folded into `solve`.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .branches import (
    BranchConfig,
    DeviceProfile,
    branch_latency,
    fixed_latency,
    group_cost,
)
from .core import (
    GLOBAL_FRAME,
    BoxRows,
    CameraRig,
    EgoPose,
    distribution,
    transform_rows,
    views_of,
)
from .predictors import FEATURE_WIDTH, PerformanceModels, accuracy_features
from .tracker import KalmanModel, TrackState, TrackTable, forecast_all

logger = logging.getLogger(__name__)

_GRID_PER_MS = 10.0  # DP granularity: 0.1 ms
_GRID_EPS = 1e-12  # relative float noise forgiven on an on-grid value
_TICKS_PER_UNIT = 2**30  # latency ranking below alpha = 1; on-grid values stay exact
_MAX_EXACT_BATCH_VIEWS = 8
_BRUTE_FORCE_LIMIT = 1_000_000


@dataclass(frozen=True)
class ScheduleProblem:
    """One frame's assignment problem.

    scores: (M branches, N views) predicted per-view scores (normalized);
    latencies_ms: per-view marginal latency per branch; t_max_ms: effective
    budget for the marginals; alpha: batching discount for views sharing a
    branch (1 = none).
    """

    scores: np.ndarray
    latencies_ms: np.ndarray
    t_max_ms: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        lats = np.asarray(self.latencies_ms, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "latencies_ms", lats)
        if scores.ndim != 2:
            raise ValueError("scores must be (branches, views)")
        if scores.shape[0] == 0:
            raise ValueError("a schedule problem needs at least one branch row")
        if scores.shape[1] == 0:
            raise ValueError("a schedule problem needs at least one view")
        if lats.shape != (scores.shape[0],):
            raise ValueError("latencies_ms must have one entry per branch row")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if np.any(lats < 0) or not np.all(np.isfinite(lats)):
            raise ValueError("latencies must be finite and non-negative")
        if self.t_max_ms < 0:
            raise ValueError("t_max_ms must be non-negative")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def num_branches(self) -> int:
        return int(self.scores.shape[0])

    @property
    def num_views(self) -> int:
        return int(self.scores.shape[1])

    @functools.cached_property
    def pricing(self) -> _Pricing:
        """`_pricing` of this problem, computed once for `solve` and `best_uniform`."""
        return _pricing(self)

    @functools.cached_property
    def ticks(self) -> np.ndarray:
        """`_score_ticks` of the scores, computed once for `solve` and `best_uniform`."""
        return _score_ticks(self.scores)


@dataclass(frozen=True)
class ScheduleDecision:
    assignment: Tuple[int, ...]  # one branch row per view
    predicted_objective: float  # score-tick sum (`_objective`), not the float sum
    predicted_latency_ms: float


class InfeasibleError(Exception):
    """No assignment fits the budget (impossible once a zero-latency row exists)."""


def most_powerful_row(latencies_ms: np.ndarray) -> int:
    """Row with the largest marginal latency; ties go to the higher index."""
    lats = np.asarray(latencies_ms, dtype=np.float64)
    return int(np.where(lats == lats.max())[0][-1])


def normalize_scores(scores: np.ndarray, latencies_ms: np.ndarray) -> np.ndarray:
    """Divide each view's column by the most powerful branch's score there.
    A column whose reference score is not positive passes through unchanged,
    with a diagnostic; relative order within a column holds either way."""
    scores = np.asarray(scores, dtype=np.float64)
    ref = scores[most_powerful_row(latencies_ms)]
    positive = ref > 0.0
    out = np.divide(scores, ref, out=scores.copy(), where=positive)
    if not positive.all():
        for j in np.flatnonzero(~positive):
            logger.warning(
                "view %d: reference branch score %.4f is not positive; leaving column raw",
                j, ref[j])
    return out


def effective_budget(target_ms: float, predicted_update_ms: float, fixed_ms: float) -> float:
    """Budget left for per-view marginals once per-frame overheads are paid."""
    if target_ms <= 0:
        raise ValueError("target must be positive")
    if predicted_update_ms < 0 or fixed_ms < 0:
        raise ValueError("overheads must be non-negative")
    return max(target_ms - predicted_update_ms - fixed_ms, 0.0)


def assignment_latency(
    assignment: Sequence[int], latencies_ms: np.ndarray, alpha: float = 1.0
) -> float:
    """True (batched) latency of an assignment, in ms.

    Views sharing a branch are priced as one group. Groups are accumulated
    in ascending branch order so the float result is reproducible.
    """
    total = 0.0
    for row, count in sorted(Counter(int(r) for r in assignment).items()):
        total += group_cost(float(latencies_ms[row]), count, alpha)
    return total


def _weight_units(latency_ms: np.ndarray | float) -> np.ndarray:
    """Latency -> integer grid units, rounding off-grid values up; elementwise
    on an array."""
    units = np.multiply(latency_ms, _GRID_PER_MS)
    return np.ceil(units - units * _GRID_EPS).astype(np.int64)


def _latency_ticks(latency_ms: float) -> int:
    """Latency -> the nearest whole tick, the unit latency is ranked in."""
    return round(latency_ms * _GRID_PER_MS * _TICKS_PER_UNIT)


def _tick_exponent(scores: np.ndarray) -> int:
    """A score tick is 2**e: about 2**-50 of the largest total a plan could reach."""
    top = float(np.abs(scores).max(initial=0.0)) * scores.shape[1]
    return math.frexp(top)[1] - 50


def _score_ticks(scores: np.ndarray) -> np.ndarray:
    """Scores -> whole ticks, the unit the objective is ranked in; float64
    holds every sum exactly."""
    return np.round(np.ldexp(scores, -_tick_exponent(scores)))


def _objective(scores: np.ndarray, assignment: Sequence[int], ticks: np.ndarray) -> float:
    """A plan's tick sum in score units, the objective as ranked and reported:
    a plan that ranks higher never reports less, as its float score sum can.
    `ticks` is `_score_ticks(scores)`."""
    total = sum(float(ticks[r, j]) for j, r in enumerate(assignment))
    return math.ldexp(total, _tick_exponent(scores))


def _budget_units(t_max_ms: float, cap: int) -> int:
    raw = t_max_ms * _GRID_PER_MS
    raw += raw * _GRID_EPS
    return cap if raw >= cap else max(int(math.floor(raw)), 0)


_Pricing = Tuple[float, np.ndarray, int, np.ndarray]


def _pricing(problem: ScheduleProblem) -> _Pricing:
    """The pricing rule `solve` and `best_uniform` share: the effective alpha,
    the grid price of every batch (`prices[k - 1, i]`: row i on k views; only
    k = 1 at alpha = 1, where merging never lowers a price), the budget in
    units, capped at the dearest plan priced view by view, and each batch's
    latency ticks (`lat_ticks[k - 1, i]`). Each problem is priced once: read
    it through `ScheduleProblem.pricing`. The exact batched search costs up
    to M * 3^N' transitions over the N' views `solve` leaves open and keys
    plans as int64 base-M numbers; the limit counts all N views and all M
    rows, so past `_MAX_EXACT_BATCH_VIEWS` views or once M**N reaches 2**63
    alpha < 1 is priced as alpha = 1, over-estimating batches."""
    m, n = problem.num_branches, problem.num_views
    exact = n <= _MAX_EXACT_BATCH_VIEWS and m**n < 2**63
    alpha = problem.alpha if exact else 1.0
    sizes = range(1, n + 1) if alpha < 1.0 else (1,)
    costs = np.array([group_cost(problem.latencies_ms, k, alpha) for k in sizes])
    prices = _weight_units(costs)
    # `_latency_ticks` elementwise: np.rint rounds half to even, as round does
    lat_ticks = np.rint(costs * _GRID_PER_MS * _TICKS_PER_UNIT).astype(np.int64)
    return alpha, prices, _budget_units(problem.t_max_ms, int(prices[0].max()) * n), lat_ticks


def _undominated(ticks: np.ndarray, alpha: float, prices: np.ndarray,
                 lat_ticks: np.ndarray) -> np.ndarray:
    """Indices of the rows of the (M, N') score `ticks` that no lower row
    dominates (see `solve`), ascending. Row j < i dominates row i when it has
    at least i's ticks on every view and, at alpha = 1, costs no more units
    per view; below it, for every a >= 1 and b >= 0 with a + b <= N', j on
    a + b views costs no more units and latency ticks than i on a views plus
    j on b views."""
    m, n = ticks.shape
    order = np.arange(m)
    dominates = (order[:, None] < order) & (ticks[:, None, :] >= ticks).all(axis=2)  # [j, i]
    if alpha < 1.0:
        a, b = np.array([(a, b) for a in range(1, n + 1) for b in range(n + 1 - a)]).T
        t = np.zeros((2, n + 1, m), dtype=np.int64)  # t[:, k]: units, latency ticks on k views
        t[0, 1:], t[1, 1:] = prices[:n], lat_ticks[:n]
        dominates &= (t[:, a + b, :, None] <= t[:, a, None, :] + t[:, b, :, None]).all(axis=(0, 1))
    else:
        dominates &= prices[0, :, None] <= prices[0]
    return np.flatnonzero(~dominates.any(axis=0))


def _dp_assign(ticks: np.ndarray, weights: np.ndarray, budget: int) -> Optional[Tuple[int, ...]]:
    """Exact multiple-choice knapsack: pick one row per column.

    ticks is (M, N) score ticks; weights are the rows' integer grid units.
    Returns the chosen rows (most score ticks, then fewest units, then
    lexicographic) or None when some column has no row that fits even alone.
    """
    m, n = ticks.shape
    suffix = [np.zeros(budget + 1)]  # suffix[col][u]: best of columns col.. in u units
    for col in range(n - 1, -1, -1):
        cand = np.full((m, budget + 1), -np.inf)
        for i, wi in enumerate(weights):
            if wi <= budget:
                cand[i, wi:] = ticks[i, col] + suffix[-1][: budget + 1 - wi]
        suffix.append(cand.max(axis=0))
    suffix.reverse()
    if suffix[0][budget] == -np.inf:
        return None
    rem = int(np.argmax(suffix[0] == suffix[0][budget]))  # the fewest units reaching it
    rows = []
    for col in range(n):
        i = next(i for i, wi in enumerate(weights)
                 if wi <= rem and ticks[i, col] + suffix[col + 1][rem - wi] == suffix[col][rem])
        rows.append(i)
        rem -= int(weights[i])
    return tuple(rows)


def _batched_assign(
    ticks: np.ndarray, prices: np.ndarray, lat_ticks: np.ndarray, budget: int,
    rows: np.ndarray, m: int,
) -> Optional[Tuple[int, ...]]:
    """Exact batched assignment of the (K, N') score `ticks` of problem rows
    `rows` (ascending, out of m): one DP over branches with setup costs, in
    K * 3^N' steps.

    Row r takes one set S of the views still open as one batch, at
    `prices[|S| - 1, r]` grid units and `lat_ticks[|S| - 1, r]` latency ticks;
    merging views that share a branch never costs more units, so this reaches
    every plan the grid admits. Each set's slices, size and key weight are
    built once per call. A row tries its sets by size and stops at the first
    size over the budget, since prices only grow with |S|. The state
    (assigned views, units) has one binary axis per view. A cell holds the
    best plan within that many units by score ticks, then latency ticks, then
    key: the problem rows as a base-m number, view 0 most significant, so
    lexicographic and decoded into the answer.
    """
    n = ticks.shape[1]
    shape = (2,) * n + (budget + 1,)
    state = (np.full(shape, -np.inf), *np.zeros((2,) + shape, dtype=np.int64))  # score, ticks, key
    state[0][(0,) * n] = 0.0
    place = [m ** (n - 1 - j) for j in range(n)]
    subsets = sorted(  # (size, subset, source views, target views, key weight)
        (sum(s), s, tuple(0 if b else slice(None) for b in s),
         tuple(1 if b else slice(None) for b in s), sum(w for w, b in zip(place, s) if b))
        for s in itertools.islice(itertools.product((0, 1), repeat=n), 1, None)
    )
    for r, row in enumerate(rows.tolist()):
        if prices[0, r] > budget:
            continue
        batch = np.zeros((2,) * n)  # batch[S]: row r's score ticks summed over S
        for j in range(n):
            batch[(slice(None),) * j + (1,)] += ticks[r, j]
        prev = [a.copy() for a in state]
        for k, s, src, dst, weight in subsets:
            p = int(prices[k - 1, r])
            if p > budget:
                break
            src_u, dst_u = src + (slice(budget + 1 - p),), dst + (slice(p, None),)
            c_score = prev[0][src_u] + batch[s]
            c_lat = prev[1][src_u] + lat_ticks[k - 1, r]
            c_key = prev[2][src_u] + row * weight
            h_score, h_lat, h_key = (a[dst_u] for a in state)
            better = (c_score > h_score) | (c_score == h_score) & (
                (c_lat < h_lat) | (c_lat == h_lat) & (c_key < h_key)
            )
            for here, cand in zip((h_score, h_lat, h_key), (c_score, c_lat, c_key)):
                np.copyto(here, cand, where=better)
    full = (1,) * n + (budget,)
    if state[0][full] == -np.inf:
        return None
    return tuple(int(state[2][full]) // w % m for w in place)


def solve(problem: ScheduleProblem) -> ScheduleDecision:
    """Exact solver: at alpha = 1 `_dp_assign` prices every view alone; below it
    `_batched_assign` prices each batch whole by `group_cost`, which is not
    additive per view. See `_pricing` for the limit on exact batching.

    Either DP runs only on the contested views. When row 0 is free
    (`latencies_ms[0] == 0`), every view where row 0 has at least as many
    score ticks as any other row is fixed to row 0 first. That is exact.
    Moving a view from any row i to row 0 never adds grid units, because
    `group_cost` is nondecreasing in the batch size, `_weight_units` is
    monotone and row 0 costs 0 units at any size. It never lowers the score
    ticks and adds no latency ticks, and it makes the base-M key strictly
    smaller. So every optimal plan already puts row 0 on those views. Fixed
    views are key digit 0, so lexicographic order over the open views is the
    order over whole plans. The DP ranks with the ticks of the whole problem:
    ticks recomputed from the open columns alone would be finer
    (`_tick_exponent`) and could break a near-tie that `solve_bruteforce`
    keeps even.

    Either DP then sees only the undominated rows (`_undominated`), checked
    on the DP's own integer tables, so exact at any alpha and off the grid.
    Take any plan that gives a dominated row i a batch S, and move S onto
    the row j < i that dominates it, merged with j's batch B (maybe empty).
    The plan fits in no more units and costs no more latency ticks: that is
    the dominance condition with a = |S| and b = |B| (at alpha = 1 each view
    is priced alone and only units rank). It scores no fewer ticks, and its
    base-M key is strictly smaller. So it ranks strictly higher, and no
    optimal plan uses row i. That holds even when j is itself dominated:
    repeating the move strictly lowers the key, so it ends at a plan with no
    dominated row, and all dominated rows are dropped at once. The kept rows
    keep their order and, in the batched DP, their problem indices and base M.
    """
    n = problem.num_views
    alpha, prices, budget, lat_ticks = problem.pricing
    if alpha != problem.alpha:
        logger.warning("alpha=%.3f with %d views and %d branches exceeds the exact-batching "
                       "limit; pricing without the batching discount (conservative)",
                       problem.alpha, n, problem.num_branches)
    ticks = problem.ticks
    contested = np.arange(n)
    if problem.latencies_ms[0] == 0.0:
        contested = np.flatnonzero(ticks[0] < ticks.max(axis=0))
    rows: Optional[Tuple[int, ...]] = ()  # no view open: the plan is all row 0
    if contested.size:
        keep = _undominated(ticks[:, contested], alpha, prices, lat_ticks)
        sub = ticks[np.ix_(keep, contested)]
        if alpha < 1.0:
            rows = _batched_assign(sub, prices[:, keep], lat_ticks[:, keep], budget, keep,
                                   problem.num_branches)
        else:
            picked = _dp_assign(sub, prices[0, keep], budget)
            rows = None if picked is None else tuple(int(keep[r]) for r in picked)
    if rows is None:
        raise InfeasibleError("no branch combination fits the budget")
    plan = [0] * n
    for j, row in zip(contested, rows):
        plan[j] = row
    assignment = tuple(plan)
    return ScheduleDecision(
        assignment=assignment,
        predicted_objective=_objective(problem.scores, assignment, ticks),
        predicted_latency_ms=assignment_latency(assignment, problem.latencies_ms, problem.alpha),
    )


def solve_bruteforce(problem: ScheduleProblem) -> ScheduleDecision:
    """Independent enumeration twin of `solve`, for verification only: same
    objective, feasibility (true batched latency within the budget) and rank:
    score ticks, then latency ticks, then lexicographic. At alpha = 1 `solve`
    counts grid units instead, the same order on the 0.1 ms grid. Refuses
    instances beyond 1e6 assignments."""
    m, n = problem.num_branches, problem.num_views
    if m**n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_FORCE_LIMIT} assignments, got {m}**{n}")
    ticks = _score_ticks(problem.scores)
    best: Optional[Tuple[tuple, ScheduleDecision]] = None
    for assignment in itertools.product(range(m), repeat=n):
        latency = assignment_latency(assignment, problem.latencies_ms, problem.alpha)
        if latency > problem.t_max_ms + 1e-9:
            continue
        rank = (
            sum(float(ticks[assignment[j], j]) for j in range(n)),
            -sum(_latency_ticks(group_cost(float(problem.latencies_ms[r]), c, problem.alpha))
                 for r, c in Counter(assignment).items()),
            tuple(-r for r in assignment),
        )
        if best is None or rank > best[0]:
            objective = _objective(problem.scores, assignment, ticks)
            best = (rank, ScheduleDecision(assignment, objective, latency))
    if best is None:
        raise InfeasibleError("no assignment fits the budget")
    return best[1]


def best_uniform(problem: ScheduleProblem) -> Optional[ScheduleDecision]:
    """Best same-branch-everywhere assignment, None if nothing uniform fits.
    It is the baseline the adaptive decision must dominate, so it is priced as
    `solve` prices it: one batch of all views under a discount, else per view,
    and ranked as `solve` ranks: score ticks, then latency."""
    n = problem.num_views
    alpha, prices, budget, _ = problem.pricing
    cost_units = prices[n - 1] if alpha < 1.0 else prices[0] * n
    ticks = problem.ticks
    totals = ticks.sum(axis=1)
    latency = {i: group_cost(float(problem.latencies_ms[i]), n, problem.alpha)
               for i in range(problem.num_branches) if cost_units[i] <= budget}
    if not latency:
        return None
    i = max(latency, key=lambda i: (totals[i], -latency[i]))  # ties go to the lowest row
    return ScheduleDecision((i,) * n, _objective(problem.scores, (i,) * n, ticks), latency[i])


# -- frame-level orchestration ------------------------------------------------


@dataclass(frozen=True)
class FrameForecast:
    """One frame's forecast, placed in the frame once: the planner, the loop's
    outputs, the frame log and the training set all read this record.

    `boxes` are the forecast tracks as ego-frame boxes, `views` each box's
    view, and `distributions` the (views, 80) per-view category distributions.
    """

    boxes: BoxRows
    views: np.ndarray
    distributions: np.ndarray


def frame_forecast(tracks: TrackTable, ego_pose: EgoPose, rig: CameraRig) -> FrameForecast:
    """Place forecast tracks (global frame) in `ego_pose`'s frame: their
    ego-frame boxes, views and distributions."""
    rows = transform_rows(tracks.means, GLOBAL_FRAME, ego_pose)
    views = views_of(rows, rig)
    boxes = BoxRows(rows, tracks.classes, tracks.confidences)
    return FrameForecast(boxes, views, distribution(rows, views, rig.view_count))


@dataclass(frozen=True)
class FramePlan:
    """What `schedule_frame` decided for one frame, and the budget it planned in."""

    decision: ScheduleDecision
    branch_indices: Tuple[int, ...]  # catalog indices, one per view
    t_max_ms: float
    update_pred_ms: float
    uniform_decision: Optional[ScheduleDecision]


def schedule_frame(
    forecast: FrameForecast,
    branches: Sequence[BranchConfig],
    device: DeviceProfile,
    models: PerformanceModels,
    target_ms: float,
    alpha: float = 1.0,
) -> FramePlan:
    """Plan one frame from its forecast: featurize, predict, solve.

    `branches` is the deployable subset (tracker first).
    """
    if not branches or not branches[0].is_tracker:
        raise ValueError("branch set must start with the tracker branch")

    feats = accuracy_features(forecast.distributions, forecast.views,
                              forecast.boxes.confidences, [b.index for b in branches])
    raw = models.accuracy.predict_batch(feats.reshape(-1, FEATURE_WIDTH)).reshape(feats.shape[:2])

    lats = np.array([branch_latency(b, device) for b in branches])
    norm = normalize_scores(raw, lats)
    update_pred = models.update_latency.predict(len(forecast.boxes))
    t_max = effective_budget(target_ms, update_pred, fixed_latency(device))

    problem = ScheduleProblem(norm, lats, t_max, alpha)
    decision = solve(problem)
    uniform = best_uniform(problem)

    return FramePlan(
        decision=decision,
        branch_indices=tuple(branches[r].index for r in decision.assignment),
        t_max_ms=t_max,
        update_pred_ms=update_pred,
        uniform_decision=uniform,
    )


def sched(
    tracks: Sequence[TrackState],
    dt: float,
    ego_pose: EgoPose,
    rig: CameraRig,
    branches: Sequence[BranchConfig],
    device: DeviceProfile,
    models: PerformanceModels,
    target_ms: float,
    kalman: Optional[KalmanModel] = None,
    alpha: float = 1.0,
) -> ScheduleDecision:
    """One-call planning entry point: forecast `tracks` (global frame) dt
    ahead, place them in `ego_pose`'s frame with `frame_forecast` and plan;
    see `schedule_frame`."""
    predicted = forecast_all(TrackTable.of(tracks), dt, kalman or KalmanModel())
    return schedule_frame(
        frame_forecast(predicted, ego_pose, rig), branches, device, models, target_ms, alpha
    ).decision
