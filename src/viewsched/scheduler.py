"""Budgeted branch-to-view assignment.

Each camera view gets exactly one branch; the objective is the sum of
predicted per-view scores, subject to the total marginal latency fitting the
effective budget (frame target minus fixed per-frame cost minus the predicted
tracker-update cost). This is a multiple-choice knapsack, solved exactly by a
dynamic program over a 0.1 ms integer latency grid.

Scores are first normalized per view against the most powerful branch (the
one with the largest marginal latency), so a score of 1.0 reads as "as good
as the best we could possibly run here".

Tie-breaking is fully deterministic everywhere: maximize the objective, then
minimize total latency, then take the lexicographically smallest assignment
vector. `solve_bruteforce` re-implements the same contract by enumeration and
exists only as an independent check; it must never be folded into `solve`.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    Box3D,
    CameraRig,
    DistributionVector,
    EgoPose,
    distribution,
    rows_to_ego,
    views_of,
    wrap_angle,
)
from .predictors import FEATURE_WIDTH, PerformanceModels, accuracy_features, view_confidences
from .tracker import KalmanModel, TrackState, TrackTable, forecast_all

logger = logging.getLogger(__name__)

_GRID_PER_MS = 10.0  # DP granularity: 0.1 ms
_GRID_EPS = 1e-12  # relative float noise forgiven on an on-grid value
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


@dataclass(frozen=True)
class ScheduleDecision:
    assignment: Tuple[int, ...]  # one branch row per view
    predicted_objective: float
    predicted_latency_ms: float


class InfeasibleError(Exception):
    """No assignment fits the budget (impossible once a zero-latency row exists)."""


def most_powerful_row(latencies_ms: np.ndarray) -> int:
    """Row with the largest marginal latency; ties go to the higher index."""
    lats = np.asarray(latencies_ms, dtype=np.float64)
    return int(np.where(lats == lats.max())[0][-1])


def normalize_scores(scores: np.ndarray, latencies_ms: np.ndarray) -> np.ndarray:
    """Divide each view's column by the most powerful branch's score there.

    A non-positive reference score cannot normalize anything meaningfully;
    that column passes through unchanged with a diagnostic. Relative order
    within a column is preserved either way.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ref = most_powerful_row(latencies_ms)
    out = scores.copy()
    for j in range(scores.shape[1]):
        denom = scores[ref, j]
        if denom > 0.0:
            out[:, j] = scores[:, j] / denom
        else:
            logger.warning(
                "view %d: reference branch score %.4f is not positive; leaving column raw",
                j,
                denom,
            )
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
    counts: dict = {}
    for row in assignment:
        counts[int(row)] = counts.get(int(row), 0) + 1
    total = 0.0
    for row in sorted(counts):
        total += group_cost(float(latencies_ms[row]), counts[row], alpha)
    return total


def _weight_units(latency_ms: float) -> int:
    """Latency -> integer grid units, rounding off-grid values up."""
    units = latency_ms * _GRID_PER_MS
    return int(math.ceil(units - units * _GRID_EPS))


def _budget_units(t_max_ms: float, cap: int) -> int:
    raw = t_max_ms * _GRID_PER_MS
    raw += raw * _GRID_EPS
    if raw >= cap:
        return cap
    return max(int(math.floor(raw)), 0)


def _pricing(problem: ScheduleProblem) -> Tuple[float, np.ndarray, int]:
    """The pricing rule `solve` and `best_uniform` share.

    Returns the effective alpha, the grid price of every batch the solver
    may form (`prices[k - 1, i]` is branch row i run on k views) and the
    budget in grid units, capped at the dearest assignment priced view by
    view. At alpha = 1 merging views never lowers a price, so only
    single-view batches are priced. Past `_MAX_EXACT_BATCH_VIEWS` views the
    partition search is too large and alpha < 1 is priced as alpha = 1,
    which over-estimates every batch.
    """
    n = problem.num_views
    alpha = problem.alpha if n <= _MAX_EXACT_BATCH_VIEWS else 1.0
    sizes = range(1, n + 1) if alpha < 1.0 else (1,)
    prices = np.array(
        [[_weight_units(group_cost(float(v), k, alpha)) for v in problem.latencies_ms]
         for k in sizes],
        dtype=np.int64,
    )
    return alpha, prices, _budget_units(problem.t_max_ms, int(prices[0].max()) * n)


def _dp_assign(
    scores: np.ndarray, weights: np.ndarray, budget: int
) -> Optional[List[int]]:
    """Exact grouped knapsack: pick one row per column.

    scores, weights are (M, G); weights are integer grid units. Returns the
    chosen rows (max total score, then min total weight, then lexicographic)
    or None when some column has no row that fits even alone.
    """
    m, g = scores.shape
    w = budget
    s_suffix = np.zeros(w + 1)
    w_suffix = np.zeros(w + 1)
    stack: List[Tuple[np.ndarray, np.ndarray]] = [(s_suffix, w_suffix)]
    for col in range(g - 1, -1, -1):
        cand_s = np.full((m, w + 1), -np.inf)
        cand_w = np.full((m, w + 1), np.inf)
        for i in range(m):
            wi = int(weights[i, col])
            if wi > w:
                continue
            cand_s[i, wi:] = scores[i, col] + s_suffix[: w + 1 - wi]
            cand_w[i, wi:] = wi + w_suffix[: w + 1 - wi]
        s_new = cand_s.max(axis=0)
        w_new = np.where(cand_s == s_new[None, :], cand_w, np.inf).min(axis=0)
        s_suffix, w_suffix = s_new, w_new
        stack.append((s_new, w_new))
    stack.reverse()  # stack[col] = DP state covering columns col..g-1

    if not np.isfinite(stack[0][0][w]):
        return None

    rows: List[int] = []
    rem = w
    for col in range(g):
        s_here, w_here = stack[col]
        s_next, w_next = stack[col + 1]
        for i in range(m):
            wi = int(weights[i, col])
            if wi > rem:
                continue
            if (
                scores[i, col] + s_next[rem - wi] == s_here[rem]
                and wi + w_next[rem - wi] == w_here[rem]
            ):
                rows.append(i)
                rem -= wi
                break
        else:
            raise RuntimeError("DP reconstruction failed; internal invariant broken")
    return rows


def _partitions(items: Sequence[int]):
    """All set partitions of `items` (views that will share a batch)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        # first joins an existing part
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
        # first opens its own part
        yield [[first]] + sub


def solve(problem: ScheduleProblem) -> ScheduleDecision:
    """Exact solver.

    Views sharing a branch run as one batch priced by `group_cost`, which is
    not additive per view when alpha < 1. The solver therefore enumerates
    view partitions (a part = views forced onto one batch), prices each part
    as a single item of a multiple-choice knapsack on the latency grid, and
    keeps the best partition's answer. Per-part prices over-estimate merged
    groups when alpha <= 1, so every candidate is truly feasible, and the
    partition matching the true grouping prices it exactly. At alpha = 1 the
    only partition searched is all singletons; see `_pricing` for the limit
    on exact batching.
    """
    n = problem.num_views
    alpha, prices, budget = _pricing(problem)
    if alpha != problem.alpha:
        logger.warning(
            "alpha=%.3f with %d views exceeds the exact-batching limit; pricing without "
            "the batching discount (conservative)",
            problem.alpha,
            n,
        )
    partitions = _partitions(list(range(n))) if alpha < 1.0 else [[[j] for j in range(n)]]
    best: Optional[Tuple[float, float, Tuple[int, ...]]] = None
    for parts in partitions:
        rows = _dp_assign(
            np.array([problem.scores[:, part].sum(axis=1) for part in parts]).T,
            np.array([prices[len(part) - 1] for part in parts]).T,
            budget,
        )
        if rows is None:
            continue
        assignment_list = [0] * n
        for row, part in zip(rows, parts):
            for j in part:
                assignment_list[j] = row
        assignment = tuple(assignment_list)
        objective = sum(float(problem.scores[assignment[j], j]) for j in range(n))
        key = (objective, -assignment_latency(assignment, problem.latencies_ms, problem.alpha))
        if best is None or key > best[:2] or (key == best[:2] and assignment < best[2]):
            best = (*key, assignment)
    if best is None:
        raise InfeasibleError("no branch combination fits the budget")
    return ScheduleDecision(
        assignment=best[2],
        predicted_objective=best[0],
        predicted_latency_ms=-best[1],
    )


def solve_bruteforce(problem: ScheduleProblem) -> ScheduleDecision:
    """Independent enumeration twin of `solve`, for verification only.

    Same objective, same feasibility semantics (true batched latency within
    the budget), same tie-breaking. Refuses instances beyond 1e6 assignments.
    """
    m, n = problem.num_branches, problem.num_views
    if m**n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_FORCE_LIMIT} assignments, got {m}**{n}")
    best: Optional[Tuple[float, float, Tuple[int, ...]]] = None
    for assignment in itertools.product(range(m), repeat=n):
        latency = assignment_latency(assignment, problem.latencies_ms, problem.alpha)
        if latency > problem.t_max_ms + 1e-9:
            continue
        objective = sum(float(problem.scores[assignment[j], j]) for j in range(n))
        if best is None or (objective, -latency) > (best[0], best[1]):
            best = (objective, -latency, assignment)
    if best is None:
        raise InfeasibleError("no assignment fits the budget")
    return ScheduleDecision(
        assignment=best[2],
        predicted_objective=best[0],
        predicted_latency_ms=-best[1],
    )


def best_uniform(problem: ScheduleProblem) -> Optional[ScheduleDecision]:
    """Best same-branch-everywhere assignment under the solver's own
    quantized feasibility rule; None if nothing uniform fits.

    This is the per-frame baseline the adaptive decision must dominate, so a
    uniform assignment is priced as `solve` prices it: as one batch of all
    views when batching is discounted, else view by view.
    """
    n = problem.num_views
    alpha, prices, budget = _pricing(problem)
    cost_units = prices[n - 1] if alpha < 1.0 else prices[0] * n
    best: Optional[Tuple[float, float, int]] = None
    for i in range(problem.num_branches):
        if cost_units[i] > budget:
            continue
        objective = sum(float(problem.scores[i, j]) for j in range(n))
        latency = assignment_latency([i] * n, problem.latencies_ms, problem.alpha)
        if best is None or (objective, -latency) > (best[0], best[1]):
            best = (objective, -latency, i)
    if best is None:
        return None
    return ScheduleDecision(
        assignment=tuple([best[2]] * n),
        predicted_objective=best[0],
        predicted_latency_ms=-best[1],
    )


# -- frame-level orchestration ------------------------------------------------


@dataclass(frozen=True)
class FrameForecast:
    """One frame's forecast, as the planner and the frame log see it.

    `tracks` are the forecast tracks (global frame); `ego_rows` are their
    box rows in the frame's ego coordinates, `views` each row's view, and
    `distributions` the per-view category distributions.
    """

    tracks: TrackTable
    ego_pose: EgoPose
    ego_rows: np.ndarray
    views: np.ndarray
    distributions: Tuple[DistributionVector, ...]

    def boxes(self) -> Tuple[Box3D, ...]:
        """The forecast as ego-frame boxes, equal to `box_to_ego(track.to_box(), pose)`."""
        yaw_shift = self.ego_pose.yaw
        return tuple(
            Box3D(
                center=(x, y, z),
                size=(w, h, l),
                velocity=(vx, vy, vz),
                yaw=wrap_angle(wrap_angle(t.yaw) + GLOBAL_FRAME.yaw - yaw_shift),
                cls=t.cls,
                confidence=t.confidence,
            )
            for t, (x, y, z, vx, vy, vz, w, h, l) in zip(
                self.tracks.tracks, self.ego_rows.tolist()
            )
        )


def frame_forecast(tracks: TrackTable, ego_pose: EgoPose, rig: CameraRig) -> FrameForecast:
    """Place forecast tracks in the frame: ego rows, views, distributions."""
    rows = rows_to_ego(tracks.means, ego_pose)
    views = views_of(rows, rig)
    return FrameForecast(
        tracks, ego_pose, rows, views, tuple(distribution(rows, views, rig.view_count))
    )


@dataclass(frozen=True)
class FramePlan:
    """Everything `schedule_frame` computed for one frame, kept for logging/audit."""

    decision: ScheduleDecision
    branch_indices: Tuple[int, ...]  # catalog indices, one per view
    t_max_ms: float
    update_pred_ms: float
    fixed_ms: float
    raw_scores: np.ndarray
    norm_scores: np.ndarray
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

    dists = forecast.distributions
    feats = accuracy_features(
        np.stack([d.ratios for d in dists]),
        [b.index for b in branches],
        view_confidences(forecast.tracks.confidences, forecast.views, len(dists)),
    )
    raw = models.accuracy.predict_batch(feats.reshape(-1, FEATURE_WIDTH)).reshape(feats.shape[:2])

    lats = np.array([branch_latency(b, device) for b in branches])
    norm = normalize_scores(raw, lats)
    fixed_ms = fixed_latency(device)
    update_pred = models.update_latency.predict(len(forecast.tracks))
    t_max = effective_budget(target_ms, update_pred, fixed_ms)

    problem = ScheduleProblem(norm, lats, t_max, alpha)
    decision = solve(problem)
    uniform = best_uniform(problem)

    return FramePlan(
        decision=decision,
        branch_indices=tuple(branches[r].index for r in decision.assignment),
        t_max_ms=t_max,
        update_pred_ms=update_pred,
        fixed_ms=fixed_ms,
        raw_scores=raw,
        norm_scores=norm,
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
    ahead, place them in `ego_pose`'s frame and plan; see `schedule_frame`."""
    predicted = forecast_all(tracks, dt, kalman or KalmanModel())
    return schedule_frame(
        frame_forecast(predicted, ego_pose, rig), branches, device, models, target_ms, alpha
    ).decision
