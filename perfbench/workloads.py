"""The benchmark's workloads: inputs from a seed, set-up, timed runs, checks.

Every workload runs as one client in one process and one thread, in a closed
loop: the next call starts when the previous one returns. The package is
driven only through `cli.load_manifest`, `cli.train_models`,
`simulator.run_episode`, `scheduler.sched` and `PerformanceModels.load`; the
other imports below build their arguments or check their results.

Each workload reports the same end-to-end metrics, each in its own unit of
work (see `END_TO_END`), and names the figures it stands for in `report`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from viewsched import cli, metrics, scheduler, simulator, tracker
from viewsched.branches import (
    BranchConfig,
    DeviceProfile,
    adapt,
    default_device_profile,
    enumerate_branches,
    fixed_latency,
)
from viewsched.core import CameraRig, EgoPose
from viewsched.predictors import FEATURE_WIDTH, GBRTModel, PerformanceModels
from viewsched.tracker import KalmanModel, MultiObjectTracker, TrackState

from tracing import Tracer

HERE = Path(__file__).resolve().parent
MODEL_FILE = HERE / "data" / "quickstart_models.json"
MODEL_SHA_FILE = HERE / "data" / "quickstart_models.json.sha256"
WORK_DIR = HERE / ".work"

MANIFEST = "builtin:manifest_quickstart"
DEFAULT_SEED = 0  # reproduces the bundled inputs
BUNDLED_TRAINING_SEEDS = (101, 202)

LOOP_DURATION_S = 20.0  # the quickstart episode, lengthened from 6 s
LOOP_FIXED_EPISODES = 8  # always run; DS, compliance and the digest use these
PLAN_FIXED_CALLS = 20  # always run; quality and the digest use these
PLAN_TARGET_MS = 33.0
PLAN_DT_S = 0.1
PLAN_RANGE_M = (5.0, 45.0)
PLAN_CASES = ((11, 1.0), (50, 1.0), (200, 1.0))
BATCHED_CASES = ((11, 0.7),)

# name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "op_ms_p50": ("ms", "lower", 0.25),
    "op_ms_p90": ("ms", "lower", 0.25),
    "throughput": ("1/s", "higher", 0.25),
    "quality": ("score", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


# -- inputs from the seed ------------------------------------------------------


def derive(seed: int, *names: str) -> int:
    """A 31-bit integer that depends only on the seed and the names."""
    key = "/".join([str(seed), *names]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") >> 1


def training_seeds(seed: int) -> List[int]:
    if seed == DEFAULT_SEED:
        return list(BUNDLED_TRAINING_SEEDS)
    return [derive(seed, "train", str(i)) % 1_000_000 for i in range(2)]


def loop_seed(seed: int, episode: int, bundled: int) -> int:
    if seed == DEFAULT_SEED:
        return bundled + episode
    return derive(seed, "loop", str(episode))


def track_set(
    seed: int, case: int, call: int, count: int, scenario: simulator.ScenarioConfig
) -> List[TrackState]:
    """Fresh tracks for one `sched` call, drawn with the scenario's class mix.

    Positions are uniform in angle and in range over `PLAN_RANGE_M` around an
    ego at the origin; speeds and sizes follow the scenario's classes.
    """
    rng = np.random.default_rng(derive(seed, "plan", str(case), str(call)))
    classes = sorted(scenario.class_mix, key=lambda c: c.value)
    weights = np.array([scenario.class_mix[c] for c in classes])
    picks = rng.choice(len(classes), size=count, p=weights / weights.sum())
    angle = rng.uniform(-math.pi, math.pi, count)
    dist = rng.uniform(*PLAN_RANGE_M, count)
    heading = rng.uniform(-math.pi, math.pi, count)
    speed_frac = rng.uniform(0.0, 1.0, count)
    conf = rng.uniform(0.3, 1.0, count)
    cov = KalmanModel().birth_cov()
    tracks = []
    for i in range(count):
        cls = classes[int(picks[i])]
        lo, hi = scenario.speed_ranges[cls]
        speed = lo + (hi - lo) * float(speed_frac[i])
        w, h, l = simulator.CLASS_DIMS[cls]
        mean = np.array(
            [
                dist[i] * math.cos(angle[i]),
                dist[i] * math.sin(angle[i]),
                h / 2.0,
                speed * math.cos(heading[i]),
                speed * math.sin(heading[i]),
                0.0,
                w,
                h,
                l,
            ]
        )
        tracks.append(
            TrackState(
                track_id=i + 1,
                mean=mean,
                covariance=cov,
                cls=cls,
                confidence=float(conf[i]),
                yaw=float(heading[i]),
            )
        )
    return tracks


# -- shared helpers ------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_checked_models() -> PerformanceModels:
    """The stored predictors; refuses a file whose SHA-256 is not the recorded one."""
    recorded = MODEL_SHA_FILE.read_text(encoding="utf-8").split()[0]
    actual = sha256_file(MODEL_FILE)
    if actual != recorded:
        raise RuntimeError(f"{MODEL_FILE.name}: SHA-256 {actual} != recorded {recorded}")
    return PerformanceModels.load(str(MODEL_FILE))


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def log_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclasses.dataclass
class Outcome:
    """What one timed phase did. `op_ms` holds one sample per operation."""

    op_ms: List[float]
    items: int  # work items done: training samples, frames, or sched calls
    busy_s: float  # time spent inside the timed calls
    attempted: int
    failed: int
    quality: float
    digest: str
    report: Dict[str, Tuple[float, str]]

    def end_to_end(self) -> Dict[str, float]:
        return {
            "op_ms_p50": statistics.median(self.op_ms),
            "op_ms_p90": percentile(self.op_ms, 90),
            "throughput": self.items / self.busy_s,
            "quality": self.quality,
        }


# -- train ---------------------------------------------------------------------


@dataclasses.dataclass
class TrainState:
    seed: int
    manifest: cli.RunManifest
    probe: np.ndarray


def setup_train(seed: int) -> TrainState:
    man = cli.load_manifest(MANIFEST)
    seeds = training_seeds(seed)
    if seeds != list(man.training["seeds"]):
        man = dataclasses.replace(man, training={**man.training, "seeds": seeds})
    # prediction probe: every catalog branch on random distributions
    rng = np.random.default_rng(derive(seed, "train-probe"))
    n_cat = FEATURE_WIDTH - len(enumerate_branches()) - 1
    rows = []
    for branch in enumerate_branches():
        for _ in range(8):
            row = np.zeros(FEATURE_WIDTH)
            row[:n_cat] = rng.dirichlet(np.ones(n_cat))
            row[n_cat + branch.index] = 1.0
            row[-1] = rng.uniform(0.0, 1.0) if branch.is_tracker else 0.0
            rows.append(row)
    return TrainState(seed, man, np.array(rows))


def run_train(state: TrainState, seconds: float) -> Outcome:
    """One `train_models` call; it takes longer than any `--seconds`."""
    t0 = time.perf_counter()
    try:
        models, info = cli.train_models(state.manifest)
    except Exception:
        log_failure("train_models")
        busy = time.perf_counter() - t0
        return Outcome([busy * 1000.0], 1, busy, 1, 1, 0.0, "", {})
    busy = time.perf_counter() - t0

    WORK_DIR.mkdir(exist_ok=True)
    model_path = WORK_DIR / "train_model.json"
    models.save(str(model_path), training_info=info)  # the bytes `viewsched train --out` writes
    digest = sha256_file(model_path)

    r2 = float(info["r2_train"])
    mse = float(info["final_training_mse"])
    pred = models.accuracy.predict_batch(state.probe)
    ok = math.isfinite(r2) and bool(np.all(np.isfinite(pred))) and bool(
        np.all((pred >= 0.0) & (pred <= 1.0))
    )
    samples = int(info["samples"])
    # quality is 1 - training MSE: R^2 also divides by the targets' variance,
    # which moves with the training seeds far more than the fit does
    return Outcome(
        op_ms=[busy * 1000.0],
        items=samples,
        busy_s=busy,
        attempted=1,
        failed=0 if ok else 1,
        quality=1.0 - mse,
        digest=digest,
        report={
            "train_s": (busy, "s"),
            "train_r2": (r2, "score"),
            "train_mse": (mse, "score"),
            "train_samples": (samples, "count"),
        },
    )


# -- loop ----------------------------------------------------------------------


@dataclasses.dataclass
class LoopState:
    seed: int
    scenario: simulator.ScenarioConfig
    system: simulator.SystemConfig


def setup_loop(seed: int) -> LoopState:
    models = load_checked_models()
    man = cli.load_manifest(MANIFEST)
    system = simulator.SystemConfig(
        branches=adapt(man.device, man.target_ms),
        device=man.device,
        capability=man.capability,
        models=models,
        target_ms=man.target_ms,
        alpha=man.alpha,
        latency_noise_sigma=man.latency_noise_sigma,
        sched_margin_ms=man.sched_margin_ms,
    )
    return LoopState(seed, man.scenario, system)


def warmup_loop(state: LoopState) -> None:
    simulator.run_episode(state.scenario, state.system, policy="adaptive")


def run_loop(state: LoopState, seconds: float) -> Outcome:
    """Adaptive episodes, each with its own scenario seed, until time is up."""
    deadline = time.perf_counter() + seconds
    op_ms: List[float] = []
    frames = attempted = failed = 0
    busy = 0.0
    ds: List[float] = []
    assignments = []
    scheduled = compliant = 0
    k = 0
    while k < LOOP_FIXED_EPISODES or time.perf_counter() < deadline:
        scenario = dataclasses.replace(
            state.scenario,
            seed=loop_seed(state.seed, k, state.scenario.seed),
            duration_s=LOOP_DURATION_S,
        )
        t0 = time.perf_counter()
        try:
            ep = simulator.run_episode(scenario, state.system, policy="adaptive")
        except Exception:
            log_failure(f"run_episode seed={scenario.seed}")
            attempted += scenario.frame_count
            failed += scenario.frame_count
            k += 1
            continue
        dt = time.perf_counter() - t0
        busy += dt
        frames += len(ep.frames)
        op_ms.append(dt * 1000.0 / len(ep.frames))
        attempted += len(ep.frames)
        over = sum(1 for f in ep.scheduled_frames if not f.compliant)
        failed += over
        if k < LOOP_FIXED_EPISODES:
            ds.append(float(ep.summary["DS"]))
            assignments.append([list(f.assignment) for f in ep.frames])
            scheduled += len(ep.scheduled_frames)
            compliant += len(ep.scheduled_frames) - over
        k += 1
    loop_ds = statistics.fmean(ds) if ds else 0.0
    return Outcome(
        op_ms=op_ms or [0.0],
        items=frames,
        busy_s=busy or 1.0,
        attempted=attempted,
        failed=failed,
        quality=loop_ds,
        digest=sha256_json(assignments),
        report={
            "loop_frames_per_s": (frames / busy if busy else 0.0, "1/s"),
            "loop_ds": (loop_ds, "score"),
            "loop_compliance": (compliant / scheduled if scheduled else 0.0, "share"),
            "loop_episodes": (k, "count"),
        },
    )


# -- plan and batched ------------------------------------------------------------


@dataclasses.dataclass
class PlanState:
    seed: int
    cases: Tuple[Tuple[int, float], ...]
    scenario: simulator.ScenarioConfig
    models: PerformanceModels
    device: DeviceProfile
    rig: CameraRig
    branches: Tuple[BranchConfig, ...]
    t_max_ms: Tuple[float, ...]  # per case, the budget `sched` must respect


def _setup_sched(seed: int, cases: Tuple[Tuple[int, float], ...]) -> PlanState:
    models = load_checked_models()
    device = default_device_profile()
    fixed_ms = fixed_latency(device)
    t_max = tuple(
        scheduler.effective_budget(PLAN_TARGET_MS, models.update_latency.predict(n), fixed_ms)
        for n, _ in cases
    )
    return PlanState(
        seed=seed,
        cases=cases,
        scenario=cli.load_manifest(MANIFEST).scenario,
        models=models,
        device=device,
        rig=CameraRig.default(),
        branches=enumerate_branches(),
        t_max_ms=t_max,
    )


def setup_plan(seed: int) -> PlanState:
    return _setup_sched(seed, PLAN_CASES)


def setup_batched(seed: int) -> PlanState:
    return _setup_sched(seed, BATCHED_CASES)


_EGO = EgoPose(0.0, 0.0, 0.0, 0.0)


def _sched(state: PlanState, tracks: List[TrackState], alpha: float):
    return scheduler.sched(
        tracks,
        PLAN_DT_S,
        _EGO,
        state.rig,
        state.branches,
        state.device,
        state.models,
        PLAN_TARGET_MS,
        None,
        alpha,
    )


def warmup_sched(state: PlanState) -> None:
    for ci, (n, alpha) in enumerate(state.cases):
        _sched(state, track_set(state.seed, ci, -1, n, state.scenario), alpha)


def run_sched(state: PlanState, seconds: float) -> Outcome:
    """Rounds of one `sched` call per case, each on a fresh track set.

    An operation is a round; its inputs are made before the timer starts.
    """
    deadline = time.perf_counter() + seconds
    views = state.rig.view_count
    per_case: List[List[float]] = [[] for _ in state.cases]
    op_ms: List[float] = []
    attempted = failed = 0
    busy = 0.0
    decisions = []
    objectives: List[float] = []
    k = 0
    while k < PLAN_FIXED_CALLS or time.perf_counter() < deadline:
        round_s = 0.0
        for ci, (n, alpha) in enumerate(state.cases):
            tracks = track_set(state.seed, ci, k, n, state.scenario)
            attempted += 1
            t0 = time.perf_counter()
            try:
                decision = _sched(state, tracks, alpha)
            except Exception:
                log_failure(f"sched case={ci} call={k}")
                failed += 1
                continue
            dt = time.perf_counter() - t0
            round_s += dt
            per_case[ci].append(dt * 1000.0)
            if (
                len(decision.assignment) != views
                or decision.predicted_latency_ms > state.t_max_ms[ci] + 1e-9
            ):
                failed += 1
            if k < PLAN_FIXED_CALLS:
                decisions.append([ci, k, list(decision.assignment)])
                objectives.append(decision.predicted_objective / views)
        busy += round_s
        op_ms.append(round_s * 1000.0)
        k += 1

    report: Dict[str, Tuple[float, str]] = {}
    for (n, alpha), times in zip(state.cases, per_case):
        name = f"sched_t{n}" if alpha == 1.0 else "sched_batched"
        for q in (50, 90, 99):
            report[f"{name}_ms_p{q}"] = (percentile(times, q) if times else 0.0, "ms")
        report[f"{name}_calls"] = (len(times), "count")
    return Outcome(
        op_ms=op_ms,
        items=sum(len(t) for t in per_case),
        busy_s=busy or 1.0,
        attempted=attempted,
        failed=failed,
        quality=statistics.fmean(objectives) if objectives else 0.0,
        digest=sha256_json(decisions),
        report=report,
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    warmup: Optional[Callable[[object], None]]
    run: Callable[[object, float], Outcome]


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    "train": Workload(setup_train, None, run_train),
    "loop": Workload(setup_loop, warmup_loop, run_loop),
    "plan": Workload(setup_plan, warmup_sched, run_sched),
    "batched": Workload(setup_batched, warmup_sched, run_sched),
}


# -- tracing -------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _add(key: str, amount: Callable[[tuple, dict, object], float]):
    def observe(tr: Tracer, args, kwargs, result) -> None:
        tr.counts[key] += amount(args, kwargs, result)

    return observe


def _observe_plan(tr: Tracer, args, kwargs, plan) -> None:
    tr.counts["detect_views"] += sum(1 for i in plan.branch_indices if i != 0)
    tr.counts["planned_views"] += len(plan.branch_indices)


def _observe_episode(tr: Tracer, args, kwargs, ep) -> None:
    for f in ep.scheduled_frames:
        tr.counts["frame_ms_abs_err_sum"] += abs(f.predicted_frame_ms - f.actual_ms)
        tr.counts["frame_ms_abs_err_n"] += 1


_count_tracks = _add("tracker.forecast_all.tracks", lambda a, k, r: len(_arg(a, k, 0, "tracks")))

# (owner, attribute, span name, observer); owners are the modules that look
# the function up, or the class that holds the method
TRACE_POINTS = [
    (scheduler, "distribution", "core.distribution", None),
    (simulator, "distribution", "core.distribution", None),
    (scheduler, "forecast_all", "tracker.forecast_all", _count_tracks),
    (simulator, "forecast_all", "tracker.forecast_all", _count_tracks),
    (tracker, "forecast_all", "tracker.forecast_all", _count_tracks),
    (
        MultiObjectTracker,
        "step",
        "tracker.step",
        _add("tracker.step.detections", lambda a, k, r: len(_arg(a, k, 1, "detections"))),
    ),
    (
        GBRTModel,
        "predict_batch",
        "predictors.predict_batch",
        _add("predictors.predict_batch.rows", lambda a, k, r: len(_arg(a, k, 1, "x"))),
    ),
    (
        cli,
        "train_gbrt",
        "predictors.train_gbrt",
        _add("predictors.train_gbrt.samples", lambda a, k, r: len(_arg(a, k, 1, "targets"))),
    ),
    (scheduler, "schedule_frame", "scheduler.schedule_frame", _observe_plan),
    (simulator, "schedule_frame", "scheduler.schedule_frame", _observe_plan),
    (scheduler, "solve", "scheduler.solve", None),
    (scheduler, "best_uniform", "scheduler.best_uniform", None),
    (scheduler, "normalize_scores", "scheduler.normalize_scores", None),
    (cli, "run_episode", "simulator.run_episode", _observe_episode),
    (simulator, "run_episode", "simulator.run_episode", _observe_episode),
    (simulator, "generate_scenario", "simulator.generate_scenario", None),
    (simulator, "synth_detect", "simulator.synth_detect", None),
    (cli, "synth_detect", "simulator.synth_detect", None),
    (simulator, "evaluate_frame", "metrics.evaluate_frame", None),
    (cli, "evaluate_frame", "metrics.evaluate_frame", None),
    (simulator, "summarize", "metrics.summarize", None),
    (cli, "summarize", "metrics.summarize", None),
    (metrics, "average_precision", "metrics.average_precision", None),
    (cli, "collect_training_episodes", "cli.collect_training_episodes", None),
    (
        cli,
        "build_training_set",
        "cli.build_training_set",
        _add("cli.build_training_set.samples", lambda a, k, r: len(r[1])),
    ),
]

# per-layer metric -> (unit, better, the end-to-end metric it should move and where)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "core.distribution.ms": ("ms", "lower", "op_ms_p50 on plan (200-track calls)"),
    "tracker.forecast_all.ms": ("ms", "lower", "op_ms_p50 on plan (200 tracks); throughput on loop"),
    "tracker.forecast_all.tracks": ("count", "lower", "op_ms_p50 on plan; throughput on loop"),
    "tracker.step.ms": ("ms", "lower", "throughput on loop"),
    "tracker.step.detections": ("count", "lower", "throughput on loop"),
    "predictors.predict_batch.ms": ("ms", "lower", "op_ms_p50 on plan and batched; throughput on loop"),
    "predictors.predict_batch.rows": ("count", "lower", "op_ms_p50 on plan; throughput on loop"),
    "predictors.train_gbrt.ms": ("ms", "lower", "op_ms_p50 on train only"),
    "predictors.train_gbrt.samples": ("count", "lower", "op_ms_p50 on train only"),
    "scheduler.schedule_frame.ms": ("ms", "lower", "op_ms_p50 on plan; throughput on loop"),
    "scheduler.solve.ms": ("ms", "lower", "op_ms_p50 on batched; op_ms_p50 on plan a little"),
    "scheduler.solve.calls": ("count", "lower", "op_ms_p50 on batched"),
    "scheduler.best_uniform.ms": ("ms", "lower", "op_ms_p50 on plan a little"),
    "scheduler.normalize_scores.ms": ("ms", "lower", "op_ms_p50 on plan a little"),
    "scheduler.detect_view_share": ("share", "higher", "quality on loop"),
    "simulator.run_episode.ms": ("ms", "lower", "throughput on loop; op_ms_p50 on train"),
    "simulator.generate_scenario.ms": ("ms", "lower", "throughput on loop; op_ms_p50 on train"),
    "simulator.synth_detect.ms": ("ms", "lower", "throughput on loop; op_ms_p50 on train"),
    "simulator.synth_detect.calls": ("count", "lower", "throughput on loop; op_ms_p50 on train"),
    "simulator.frame_ms_abs_err": ("ms", "lower", "loop_compliance (reported) on loop"),
    "metrics.evaluate_frame.ms": ("ms", "lower", "op_ms_p50 on train"),
    "metrics.evaluate_frame.calls": ("count", "lower", "op_ms_p50 on train"),
    "metrics.summarize.ms": ("ms", "lower", "op_ms_p50 on train"),
    "metrics.average_precision.ms": ("ms", "lower", "op_ms_p50 on train"),
    "metrics.average_precision.calls": ("count", "lower", "op_ms_p50 on train"),
    "cli.collect_training_episodes.ms": ("ms", "lower", "op_ms_p50 on train"),
    "cli.build_training_set.ms": ("ms", "lower", "op_ms_p50 on train"),
    "cli.build_training_set.samples": ("count", "lower", "op_ms_p50 on train"),
    "trace.overhead_pct": ("%", "lower", "none: time the wrappers add, over the untraced time"),
}


def install(tr: Tracer) -> None:
    for owner, attr, name, observe in TRACE_POINTS:
        tr.wrap(owner, attr, name, observe)


def per_layer(tr: Tracer, overhead_pct: float) -> Dict[str, float]:
    self_ms = tr.self_ms()
    calls = tr.calls()
    out: Dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "ms":
            out[metric] = self_ms.get(span, 0.0)
        elif kind == "calls":
            out[metric] = float(calls.get(span, 0))
        elif metric in tr.counts:
            out[metric] = tr.counts[metric]
        else:
            out[metric] = 0.0
    planned = tr.counts.get("planned_views", 0.0)
    out["scheduler.detect_view_share"] = tr.counts["detect_views"] / planned if planned else 0.0
    n_err = tr.counts.get("frame_ms_abs_err_n", 0.0)
    out["simulator.frame_ms_abs_err"] = (
        tr.counts["frame_ms_abs_err_sum"] / n_err if n_err else 0.0
    )
    out["trace.overhead_pct"] = overhead_pct
    return out
