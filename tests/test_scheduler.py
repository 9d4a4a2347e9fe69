"""Assignment-solver and frame-planning unit tests."""

import logging
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from track_helpers import states
from viewsched import scheduler
from viewsched.branches import (
    branch_latency,
    default_device_profile,
    enumerate_branches,
    group_cost,
)
from viewsched.core import (
    Box3D,
    CameraRig,
    DistributionVector,
    EgoPose,
    ObjectClass,
    box_to_ego,
    categorize,
    view_of,
)
from viewsched.predictors import (
    FEATURE_WIDTH,
    GBRTModel,
    LinearLatencyModel,
    PerformanceModels,
)
from viewsched.scheduler import (
    InfeasibleError,
    ScheduleDecision,
    ScheduleProblem,
    assignment_latency,
    best_uniform,
    effective_budget,
    most_powerful_row,
    normalize_scores,
    frame_forecast,
    sched,
    schedule_frame,
    solve,
    solve_bruteforce,
)
from viewsched.tracker import KalmanModel, TrackState, forecast_all, measurement_vector


def stub_models(score=0.5, slope=0.05, intercept=1.0):
    return PerformanceModels(
        accuracy=GBRTModel.from_dict({"version": 1, "kind": "gbrt", "n_features": FEATURE_WIDTH,
                                      "base_score": score, "learning_rate": 0.1, "trees": []}),
        update_latency=LinearLatencyModel(slope, intercept),
    )


DEVICE_LATENCIES = tuple(
    branch_latency(b, default_device_profile()) for b in enumerate_branches()
)


@st.composite
def problems(draw, alpha=st.just(1.0), latencies="on_grid", views=st.integers(1, 4),
             max_assignments=None, scores=st.integers(0, 1024).map(lambda k: k / 1024.0)):
    """Random instance with scores that are multiples of 1/1024 by default.

    Such scores sum exactly in any order. "on_grid" latencies and budgets sit
    on the solver's 0.1 ms grid (latencies are multiples of 0.2 under a
    batching discount, so group costs stay on-grid at alpha = 0.5).
    "off_grid" latencies and budgets are any floats in [0, 8] and [0, 12];
    "device" latencies are the default device's branch latencies. Budgets
    include zero. Up to 6 branches, fewer where M**N would pass
    `max_assignments`.
    """
    n = draw(views)
    m = draw(st.integers(1, max(k for k in range(1, 7)
                                if max_assignments is None or k**n <= max_assignments)))
    a = draw(alpha)
    values = np.array(draw(st.lists(scores, min_size=m * n, max_size=m * n)))
    if latencies == "on_grid":
        lats = np.array(draw(st.lists(st.integers(0, 50), min_size=m, max_size=m)))
        lats = lats * (0.2 if a != 1.0 else 0.1)
    elif latencies == "off_grid":
        lats = np.array(draw(st.lists(st.floats(0.0, 8.0), min_size=m, max_size=m)))
    else:
        lats = np.array(draw(st.lists(st.sampled_from(DEVICE_LATENCIES), min_size=m, max_size=m)))
    if draw(st.booleans()):
        lats[0] = 0.0  # a zero-latency row keeps the instance feasible
    if latencies == "off_grid":
        budget = draw(st.floats(0.0, 12.0))
    else:
        budget = draw(st.integers(0, 120)) / 10.0
    return ScheduleProblem(values.reshape(m, n), lats, budget, a)


# -- solver building blocks ----------------------------------------------------


def test_most_powerful_row_ties_go_to_higher_index():
    assert most_powerful_row(np.array([1.0, 5.0, 5.0, 2.0])) == 2
    assert most_powerful_row(np.array([0.0])) == 0


def test_normalize_scores_divides_by_reference_row():
    scores = np.array([[0.2, 0.4], [0.8, 0.5]])
    lats = np.array([1.0, 9.0])
    norm = normalize_scores(scores, lats)
    assert norm[1, 0] == pytest.approx(1.0)
    assert norm[1, 1] == pytest.approx(1.0)
    assert norm[0, 0] == pytest.approx(0.25)
    assert norm[0, 1] == pytest.approx(0.8)


def test_normalize_scores_keeps_column_on_nonpositive_reference():
    scores = np.array([[0.3], [0.0]])
    lats = np.array([1.0, 9.0])
    norm = normalize_scores(scores, lats)
    assert np.array_equal(norm, scores)


def test_effective_budget_floors_at_zero():
    assert effective_budget(33.0, 3.0, 5.0) == pytest.approx(25.0)
    assert effective_budget(10.0, 8.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        effective_budget(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        effective_budget(10.0, -1.0, 0.0)


def test_assignment_latency_matches_hand_computation_on_device():
    device = default_device_profile()
    lats = np.array(DEVICE_LATENCIES)
    # three views on branch 1, two on tracker, one on branch 5
    got = assignment_latency([1, 1, 1, 0, 0, 5], lats)
    catalog = enumerate_branches()
    want = 3 * branch_latency(catalog[1], device) + branch_latency(catalog[5], device)
    assert got == pytest.approx(want, abs=1e-12)


def test_assignment_latency_batching_discount_on_device():
    lats = np.array(DEVICE_LATENCIES)
    assert assignment_latency([2] * 6, lats, alpha=1.0) == pytest.approx(6 * lats[2])
    assert assignment_latency([2] * 6, lats, alpha=0.5) == pytest.approx(lats[2] * (1 + 0.5 * 5))


def test_assignment_latency_batches_shared_branches():
    lats = np.array([0.0, 10.0, 4.0])
    assert assignment_latency([1, 1, 2], lats) == pytest.approx(24.0)
    assert assignment_latency([1, 1, 2], lats, alpha=0.5) == pytest.approx(19.0)
    assert assignment_latency([0, 0, 0], lats) == 0.0


def test_problem_validation():
    with pytest.raises(ValueError):
        ScheduleProblem(np.zeros((2, 3)), np.zeros(3), 1.0)  # latency shape
    with pytest.raises(ValueError):
        ScheduleProblem(np.zeros((2, 3)), -np.ones(2), 1.0)
    with pytest.raises(ValueError):
        ScheduleProblem(np.zeros((2, 3)), np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        ScheduleProblem(np.zeros((2, 3)), np.zeros(2), 1.0, alpha=0.0)


# -- exactness against the enumeration twin -------------------------------------


def _assert_matches_bruteforce(problem):
    try:
        got = solve(problem)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_bruteforce(problem)
        return
    want = solve_bruteforce(problem)
    assert got.assignment == want.assignment
    assert got.predicted_objective == want.predicted_objective
    assert got.predicted_latency_ms == pytest.approx(want.predicted_latency_ms)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_solver_matches_bruteforce_on_dyadic_instances(problem):
    _assert_matches_bruteforce(problem)


@settings(max_examples=100, deadline=None)
@given(problems(alpha=st.just(0.5), views=st.integers(1, 6), max_assignments=4096))
@example(  # views 1 and 2 score alike; summed view by view, (0, 1, 0) scores higher
    ScheduleProblem(np.array([[0.43, 0.06, 0.06], [0.215, 0.87, 0.87]]), np.array([0.0, 1.0]),
                    1.0, 0.5)
)
def test_solver_matches_bruteforce_with_batching_discount(problem):
    _assert_matches_bruteforce(problem)


@settings(max_examples=100, deadline=None)
@given(problems(alpha=st.sampled_from([0.7, 0.5, 0.3]), views=st.integers(1, 6),
                max_assignments=4096, scores=st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3])))
@example(  # equal objectives that float sums in another order tell apart: 4.8 ms, not 11.8
    ScheduleProblem(np.array([[1 / 3, 0.3, 1 / 3, 0.1, 1 / 3], [0.2, 0.0, 0.2, 0.0, 0.3],
                              [1 / 3, 0.0, 0.3, 0.3, 0.3], [0.0, 0.3, 0.1, 0.1, 0.0]]),
                    np.array([0.0, 15.1, 4.8, 7.0]), 22.5, 0.3)
)
@example(  # 0.0 + 0.2 ties 0.1 + 0.1: the smaller plan (0, 0, 0, 1) wins, summing to 0.7, not
    # the 0.7000000000000001 of (0, 1, 0, 0)
    ScheduleProblem(np.array([[0.3, 0.0, 0.2, 0.1], [0.3, 0.1, 0.1, 0.2], [0.2, 0.1, 0.0, 0.3],
                              [1 / 3, 0.1, 0.1, 0.1]]), np.array([0.0, 7.2, 31.8, 34.2]), 7.5, 0.5)
)
def test_solver_matches_bruteforce_when_float_sums_round(problem):
    # scores like 0.1 and 1/3 do not add exactly, so a float sum's rounding
    # would depend on the order of the additions; on-grid latencies keep
    # brute force's answer on the grid, so the two must agree exactly
    _assert_matches_bruteforce(problem)


@settings(max_examples=150, deadline=None)
@given(problems(alpha=st.sampled_from([1.0, 0.5]), latencies="off_grid"))
@example(ScheduleProblem(np.zeros((2, 2)), np.array([1.0, 1e-9]), 0.0))  # just off the grid
def test_solver_result_is_always_truly_feasible_off_grid(problem):
    # latencies off the 0.1 ms grid round conservatively: the returned
    # assignment's true latency never exceeds the budget
    try:
        got = solve(problem)
    except InfeasibleError:
        return
    assert got.predicted_latency_ms <= problem.t_max_ms + 1e-9
    assert got.predicted_latency_ms == assignment_latency(
        got.assignment, problem.latencies_ms, problem.alpha
    )


def test_solver_prefers_lower_latency_then_lex_smallest_on_ties():
    # two branches, identical scores; the cheaper branch must win everywhere
    scores = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    lats = np.array([0.0, 1.0, 1.0])
    got = solve(ScheduleProblem(scores, lats, 10.0))
    assert got.assignment == (0, 0)
    # also when the dearer branch comes first, with or without batching
    for alpha in (1.0, 0.5):
        got = solve(ScheduleProblem(np.array([[0.5], [0.5]]), np.array([1.0, 0.0]), 2.0, alpha))
        assert got.assignment == (1,)
    # same latency, same score: lexicographically smallest assignment
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    lats = np.array([1.0, 1.0])
    got = solve(ScheduleProblem(scores, lats, 10.0))
    want = solve_bruteforce(ScheduleProblem(scores, lats, 10.0))
    assert got.assignment == want.assignment == (0, 0)


def test_solver_spends_budget_when_it_pays():
    # one view, detection branch worth more than tracker, budget allows it
    scores = np.array([[0.2], [1.0]])
    lats = np.array([0.0, 5.0])
    got = solve(ScheduleProblem(scores, lats, 5.0))
    assert got.assignment == (1,)
    # budget a hair under the cost: falls back to the tracker
    got = solve(ScheduleProblem(scores, lats, 4.9))
    assert got.assignment == (0,)


def test_solver_infeasible_without_zero_row():
    scores = np.array([[0.5], [0.9]])
    lats = np.array([3.0, 5.0])
    with pytest.raises(InfeasibleError):
        solve(ScheduleProblem(scores, lats, 1.0))
    with pytest.raises(InfeasibleError):
        solve_bruteforce(ScheduleProblem(scores, lats, 1.0))


def test_best_uniform_is_best_single_branch():
    scores = np.array([[0.3, 0.3], [0.9, 0.1], [0.4, 0.45]])
    lats = np.array([0.0, 2.0, 2.0])
    problem = ScheduleProblem(scores, lats, 10.0)
    uni = best_uniform(problem)
    assert uni is not None
    assert len(set(uni.assignment)) == 1
    # row sums: 0.6, 1.0, 0.85 -> row 1 wins under a loose budget
    assert uni.assignment == (1, 1)
    # tight budget: only the zero-latency row fits uniformly
    tight = ScheduleProblem(scores, lats, 2.0)
    uni = best_uniform(tight)
    assert uni.assignment == (0, 0)
    # no uniform assignment fits at all
    no_zero = ScheduleProblem(scores[1:], lats[1:], 2.0)
    assert best_uniform(no_zero) is None


@settings(max_examples=150, deadline=None)
@given(
    problems(
        alpha=st.sampled_from([1.0, 0.5]),
        latencies="off_grid",
        views=st.one_of(st.integers(1, 5), st.integers(9, 10)),
    )
)
def test_adaptive_dominates_uniform_structurally(problem):
    # past the exact-batching limit too, where alpha < 1 is priced as 1
    try:
        adaptive = solve(problem)
    except InfeasibleError:
        assert best_uniform(problem) is None
        return
    uniform = best_uniform(problem)
    if uniform is not None:
        assert adaptive.predicted_objective >= uniform.predicted_objective


def test_batching_fallback_past_the_exact_limit(caplog):
    # 9 views at alpha = 0.5: both solvers must price without the discount
    problem = ScheduleProblem(
        np.array([[0.0] * 9, [1.0] * 9]), np.array([0.0, 1.0]), 6.0, alpha=0.5
    )
    got = solve(problem)
    assert assignment_latency(got.assignment, problem.latencies_ms, 0.5) <= 6.0
    assert got.predicted_objective == 6.0
    assert got.predicted_objective >= best_uniform(problem).predicted_objective

    rig = CameraRig.default(9)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="viewsched.scheduler"):
        schedule_frame(forecast_at_origin(make_tracks([(20.0, 0.0)]), rig),
                       enumerate_branches()[:6], default_device_profile(),
                       stub_models(), 33.0, alpha=0.5)
    fallbacks = [r for r in caplog.records if "exact-batching limit" in r.getMessage()]
    assert len(fallbacks) == 1


def test_batching_fallback_once_the_key_would_overflow(caplog):
    # the batched search keys a plan as a base-M number in int64, so at 8
    # views 234 rows still batch exactly and 235 rows (235**8 >= 2**63) price
    # as alpha = 1: two views of the 2.34 ms row fit 6 ms, not the four a
    # batch would fit
    scores = np.zeros((235, 8))
    scores[-1] = 1.0
    lats = np.arange(235) / 100.0
    assert scheduler._pricing(ScheduleProblem(scores[1:], lats[1:], 6.0, 0.5))[0] == 0.5
    with caplog.at_level(logging.WARNING, logger="viewsched.scheduler"):
        got = solve(ScheduleProblem(scores, lats, 6.0, alpha=0.5))
    assert got.predicted_objective == 2.0
    assert [r for r in caplog.records if "exact-batching limit" in r.getMessage()] == caplog.records
    assert len(caplog.records) == 1


# The solver and best_uniform as they were before they shared one pricing
# rule (`_pricing`): alpha = 1 had its own DP set-up and best_uniform its own
# grid arithmetic. Wherever the old code is right (every alpha = 1 instance,
# and alpha < 1 up to the exact-batching limit) the new code must agree with
# it field for field, off the grid as well, where brute force cannot judge.
# The old search ranked a partition's plans by grid units, so below alpha = 1
# it can miss the plan brute force picks; the new code may return that plan
# instead, as long as the grid admits it.
# The oracle keeps its own copies of that solver's knapsack DP and partition
# search, so it stays the old code after `solve` stopped using them.


def _parent_dp_assign(
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


def _parent_partitions(items: Sequence[int]):
    """All set partitions of `items` (views that will share a batch)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _parent_partitions(rest):
        # first joins an existing part
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
        # first opens its own part
        yield [[first]] + sub


def _fits_the_grid(problem: ScheduleProblem, assignment: Tuple[int, ...]) -> bool:
    """Whether `assignment`'s grid units, as the old solver priced them, fit its budget."""
    lats = problem.latencies_ms
    if problem.alpha == 1.0:
        units = sum(scheduler._weight_units(float(lats[r])) for r in assignment)
    else:
        units = sum(scheduler._weight_units(group_cost(float(lats[r]), assignment.count(r),
                                                       problem.alpha)) for r in set(assignment))
    return units <= scheduler._budget_units(problem.t_max_ms, units)


def _parent_solve(problem: ScheduleProblem) -> ScheduleDecision:
    m, n = problem.num_branches, problem.num_views
    weights_item = np.array(
        [scheduler._weight_units(v) for v in problem.latencies_ms], dtype=np.int64
    )
    alpha = problem.alpha
    if alpha != 1.0 and n > scheduler._MAX_EXACT_BATCH_VIEWS:
        alpha = 1.0
    if alpha == 1.0:
        budget = scheduler._budget_units(problem.t_max_ms, int(weights_item.max()) * n)
        weights = np.repeat(weights_item[:, None], n, axis=1)
        rows = _parent_dp_assign(problem.scores, weights, budget)
        if rows is None:
            raise InfeasibleError("no branch fits the budget in some view")
        assignment = tuple(rows)
        return ScheduleDecision(
            assignment=assignment,
            predicted_objective=sum(float(problem.scores[rows[j], j]) for j in range(n)),
            predicted_latency_ms=assignment_latency(
                assignment, problem.latencies_ms, problem.alpha
            ),
        )
    best: Optional[Tuple[float, float, Tuple[int, ...]]] = None
    cap_item = int(max(scheduler._weight_units(group_cost(float(v), n, alpha))
                       for v in problem.latencies_ms))
    budget = scheduler._budget_units(problem.t_max_ms, cap_item * n)
    for parts in _parent_partitions(list(range(n))):
        g = len(parts)
        part_scores = np.empty((m, g))
        part_weights = np.empty((m, g), dtype=np.int64)
        for col, part in enumerate(parts):
            part_scores[:, col] = problem.scores[:, part].sum(axis=1)
            for i in range(m):
                part_weights[i, col] = scheduler._weight_units(
                    group_cost(float(problem.latencies_ms[i]), len(part), alpha)
                )
        rows = _parent_dp_assign(part_scores, part_weights, budget)
        if rows is None:
            continue
        assignment_list = [0] * n
        for col, part in enumerate(parts):
            for j in part:
                assignment_list[j] = rows[col]
        assignment = tuple(assignment_list)
        objective = sum(float(problem.scores[assignment[j], j]) for j in range(n))
        latency = assignment_latency(assignment, problem.latencies_ms, alpha)
        key = (objective, -latency)
        if best is None or key > (best[0], best[1]) or (
            key == (best[0], best[1]) and assignment < best[2]
        ):
            best = (objective, -latency, assignment)
    if best is None:
        raise InfeasibleError("no branch combination fits the budget")
    return ScheduleDecision(best[2], best[0], -best[1])


def _parent_best_uniform(problem: ScheduleProblem) -> Optional[ScheduleDecision]:
    m, n = problem.num_branches, problem.num_views
    weights_item = np.array(
        [scheduler._weight_units(v) for v in problem.latencies_ms], dtype=np.int64
    )
    if problem.alpha == 1.0:
        budget = scheduler._budget_units(problem.t_max_ms, int(weights_item.max()) * n)
        cost_units = weights_item * n
    else:
        cost_units = np.array(
            [scheduler._weight_units(group_cost(float(v), n, problem.alpha))
             for v in problem.latencies_ms],
            dtype=np.int64,
        )
        budget = scheduler._budget_units(problem.t_max_ms, int(cost_units.max()) * n)
    best: Optional[Tuple[float, float, int]] = None
    for i in range(m):
        if cost_units[i] > budget:
            continue
        objective = sum(float(problem.scores[i, j]) for j in range(n))
        latency = assignment_latency([i] * n, problem.latencies_ms, problem.alpha)
        if best is None or (objective, -latency) > (best[0], best[1]):
            best = (objective, -latency, i)
    if best is None:
        return None
    return ScheduleDecision(tuple([best[2]] * n), best[0], -best[1])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["on_grid", "off_grid", "device"]).flatmap(
        lambda lats: problems(
            alpha=st.sampled_from([1.0, 0.7, 0.5, 0.3]), latencies=lats, views=st.integers(1, 6)
        )
    )
)
@example(  # both plans take 1 grid unit: the lower latency wins, as in the old search
    ScheduleProblem(np.array([[0, 0, 0, 1], [0, 0, 0, 0]]) / 1024.0, np.array([0.03125, 0.0]),
                    1.0, 0.7)
)
@example(  # the old search misses the lower-latency tie that brute force picks
    ScheduleProblem(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0]]) / 1024.0,
                    np.array([0.0, 7.28125, 0.0, 0.0, 7.25]), 8.0, 0.7)
)
@example(  # a 1e-134 ms batch must not decide a tie that a later 1.0 ms batch absorbs
    ScheduleProblem(np.array([[0, 0, 0, 0, 0, 1], [0] * 6, [0] * 6, [0, 0, 0, 0, 1, 0], [0] * 6])
                    / 1024.0, np.array([1.06784593e-134, 0.0, 0.0, 1.0, 0.0]), 2.0, 0.7)
)
def test_solve_and_best_uniform_match_the_parent_pricing(problem):
    try:
        want = _parent_solve(problem)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve(problem)
    else:
        got = solve(problem)
        assert got == want or (got == solve_bruteforce(problem)
                               and _fits_the_grid(problem, got.assignment))
    assert best_uniform(problem) == _parent_best_uniform(problem)


# -- frame-level planning --------------------------------------------------------


def make_tracks(positions, conf=0.8):
    model = KalmanModel()
    tracks = []
    for i, (x, y) in enumerate(positions, start=1):
        box = Box3D(center=(x, y, 0.8), size=(1.9, 1.6, 4.5), velocity=(1.0, 0.0, 0.0),
                    yaw=0.0, cls=ObjectClass.CAR, confidence=conf)
        tracks.append(TrackState(track_id=i, mean=measurement_vector(box),
                                 covariance=model.birth_cov(), cls=box.cls,
                                 confidence=conf))
    return tracks


def forecast_at_origin(tracks, rig):
    return frame_forecast(forecast_all(tracks, 0.1, KalmanModel()), EgoPose(0, 0, 0, 0), rig)


def test_schedule_frame_plumbing():
    device = default_device_profile()
    rig = CameraRig.default()
    branches = enumerate_branches()[:6]  # tracker + r34 family + r50-sparse
    models = stub_models()
    tracks = make_tracks([(20.0, 0.0), (-15.0, 5.0), (0.0, 25.0)])
    forecast = forecast_at_origin(tracks, rig)
    plan = schedule_frame(forecast, branches, device, models, target_ms=33.0)
    assert len(plan.decision.assignment) == rig.view_count
    assert len(plan.branch_indices) == rig.view_count
    for row, idx in zip(plan.decision.assignment, plan.branch_indices):
        assert branches[row].index == idx
    assert plan.t_max_ms == pytest.approx(
        33.0 - plan.update_pred_ms - plan.fixed_ms)
    assert plan.update_pred_ms == pytest.approx(models.update_latency.predict(3))
    assert plan.raw_scores.shape == (len(branches), rig.view_count)
    assert len(forecast.distributions) == rig.view_count
    assert len(forecast.boxes()) == 3
    assert all(0 <= v < rig.view_count for v in forecast.views)
    # the solver's plan is within budget
    assert plan.decision.predicted_latency_ms <= plan.t_max_ms + 1e-9
    # uniform counterfactual exists (tracker row always fits) and is dominated
    assert plan.uniform_decision is not None
    assert plan.decision.predicted_objective >= plan.uniform_decision.predicted_objective


@settings(max_examples=60, deadline=None)
@given(
    tracks=st.lists(
        st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.floats(-20.0, 20.0),
                  st.floats(-20.0, 20.0), st.floats(-7.0, 7.0), st.floats(0.0, 1.0),
                  st.sampled_from(list(ObjectClass))),
        max_size=30,
    ),
    pose=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-7.0, 7.0)),
    view_count=st.integers(1, 8),
)
def test_frame_forecast_matches_the_per_box_pipeline(tracks, pose, view_count):
    # the forecast-to-distribution block the closed loop ran per box before
    model = KalmanModel()
    live = [
        TrackState(track_id=i, mean=np.array([x, y, 0.8, vx, vy, 0.0, 1.9, 1.6, 4.5]),
                   covariance=model.birth_cov(), cls=cls, confidence=conf, yaw=yaw)
        for i, (x, y, vx, vy, yaw, conf, cls) in enumerate(tracks)
    ]
    rig = CameraRig.default(view_count)
    ego = EgoPose(pose[0], pose[1], pose[2], 0.0)
    predicted = forecast_all(live, 0.1, model)
    got = frame_forecast(predicted, ego, rig)

    boxes = tuple(box_to_ego(t.to_box(), ego) for t in states(predicted))
    views = [view_of(b.center, rig) for b in boxes]
    counts = np.zeros((view_count, len(DistributionVector.empty().ratios)))
    for box, view in zip(boxes, views):
        counts[view, categorize(box).index] += 1.0
    assert got.boxes() == boxes
    assert got.views.tolist() == views
    assert list(got.distributions) == [
        DistributionVector(row / row.sum() if row.sum() > 0 else row) for row in counts
    ]


def test_schedule_frame_requires_tracker_first():
    device = default_device_profile()
    rig = CameraRig.default()
    with pytest.raises(ValueError):
        schedule_frame(forecast_at_origin([], rig), enumerate_branches()[1:], device,
                       stub_models(), 33.0)


def test_sched_returns_the_plan_decision():
    device = default_device_profile()
    rig = CameraRig.default()
    branches = enumerate_branches()[:2]
    models = stub_models()
    tracks = make_tracks([(10.0, 0.0)])
    d = sched(tracks, 0.1, EgoPose(0, 0, 0, 0), rig, branches, device, models, 33.0)
    plan = schedule_frame(forecast_at_origin(tracks, rig), branches, device, models, 33.0)
    assert d == plan.decision


def test_schedule_frame_tight_budget_degenerates_to_tracker():
    device = default_device_profile()
    rig = CameraRig.default()
    branches = enumerate_branches()[:6]
    models = stub_models(slope=0.0, intercept=0.0)
    # target equal to the fixed cost: nothing but the tracker fits
    from viewsched.branches import fixed_latency
    plan = schedule_frame(forecast_at_origin(make_tracks([(20.0, 0.0)]), rig), branches,
                          device, models, target_ms=fixed_latency(device) + 1e-6)
    assert plan.decision.assignment == (0,) * rig.view_count
