"""Command-line entry points.

Four operations: `simulate` runs the closed loop under a policy, `train`
fits the accuracy and update-latency predictors from logged collection
episodes, `adapt` reports which branches a device/target can deploy, and
`compare` runs the scheduling policies side by side.

All inputs come from a run manifest (JSON). Every emitted artifact embeds
the tool version and a fingerprint of the fully resolved configuration, and
contains no timestamps or absolute paths, so a rerun with the same manifest
and seed is byte-identical.

Exit codes: 0 success, 2 invalid configuration or manifest, 3 runtime
failure (infeasible schedule, unwritable output, a training worker that
died).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass, replace
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .branches import (
    BranchConfig,
    DeviceProfile,
    ProfileError,
    adapt,
    branch_latency,
    enumerate_branches,
    fixed_latency,
    json_count,
    json_file,
    json_number,
    json_object,
)
from .core import BoxRows, CameraRig, category_levels
# evaluate_frame and summarize are not called here; perfbench's tracer wraps them as cli attributes
from .metrics import detection_scores, evaluate_frame, evaluate_pairs, summarize  # noqa: F401
from .predictors import (
    FEATURE_WIDTH,
    GBRTParams,
    PerformanceModels,
    accuracy_features,
    fit_update_latency,
    train_gbrt,
)
from .scheduler import InfeasibleError
from .simulator import (
    POLICY_USAGE,
    CapabilityError,
    CapabilityProfile,
    EpisodeLog,
    ScenarioConfig,
    SystemConfig,
    check_policy,
    check_timing,
    rng_stream,
    run_episode,
    synth_detect,
    true_update_model,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_BUILTIN_PREFIX = "builtin:"


class ConfigError(Exception):
    """Manifest or referenced configuration is invalid."""


def _setup_logging() -> None:
    # the environment variable controls verbosity and nothing else
    level_name = os.environ.get("VIEWSCHED_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_ref(ref: str, base_dir: str) -> dict:
    """Resolve a manifest reference: packaged name or path relative to it."""
    if not isinstance(ref, str):
        raise ConfigError(f"invalid configuration: reference {ref!r} is not a string")
    if ref.startswith(_BUILTIN_PREFIX):
        name = ref[len(_BUILTIN_PREFIX):]
        try:
            text = resources.files("viewsched").joinpath(f"data/{name}.json").read_text("utf-8")
        except FileNotFoundError as exc:
            raise ConfigError(f"unknown builtin {name!r}") from exc
    else:
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {ref!r}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{ref!r} is not valid JSON: {exc}") from exc


@dataclass
class RunManifest:
    name: str
    scenario: ScenarioConfig
    device: DeviceProfile
    capability: CapabilityProfile
    model_path: Optional[str]  # resolved; None means train in-process
    target_ms: float
    alpha: float
    latency_noise_sigma: float
    sched_margin_ms: float
    training: dict
    fingerprint: str  # sha256 over the fully resolved configuration


_MANIFEST_KEYS = frozenset((
    "version", "name", "scenario", "device", "capability", "model", "target_ms", "alpha",
    "latency_noise_sigma", "sched_margin_ms", "memory_limit_mb", "training",
))

_DEFAULT_TRAINING = {
    "seeds": [101, 202],
    "rounds": 80,
    "max_depth": 3,
    "learning_rate": 0.1,
    "min_samples_leaf": 5,
}
_TRAINING_KEYS = frozenset(_DEFAULT_TRAINING)


def _gbrt_params(training: dict) -> GBRTParams:
    return GBRTParams(
        rounds=json_count("training.rounds", training["rounds"]),
        max_depth=json_count("training.max_depth", training["max_depth"]),
        learning_rate=json_number("training.learning_rate", training["learning_rate"]),
        min_samples_leaf=json_count("training.min_samples_leaf", training["min_samples_leaf"]),
    )


def _check_seeds(seeds: object) -> None:
    if type(seeds) is not list or not seeds:
        raise ValueError(f"training seeds must be a non-empty list of integers, got {seeds!r}")
    for s in seeds:
        json_count("training seed", s)


def load_manifest(
    path: str,
    seed_override: Optional[int] = None,
    target_override: Optional[float] = None,
) -> RunManifest:
    """Parse and fully resolve a run manifest.

    CLI overrides are folded in before fingerprinting, so two runs hash
    equal exactly when every effective setting is equal.
    """
    if path.startswith(_BUILTIN_PREFIX):
        base_dir = "."
        data = _load_ref(path, base_dir)
    else:
        base_dir = os.path.dirname(os.path.abspath(path))
        data = _load_ref(os.path.abspath(path), base_dir)
    try:
        json_file("manifest", data, _MANIFEST_KEYS)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    try:
        scenario_dict = _load_ref(data["scenario"], base_dir)
        device_dict = _load_ref(data["device"], base_dir)
        capability_dict = _load_ref(data["capability"], base_dir)
    except KeyError as exc:
        raise ConfigError(f"manifest is missing required key {exc}") from exc

    try:
        memory_limit = data.get("memory_limit_mb")
        if memory_limit is not None:
            memory_limit = json_number("memory_limit_mb", memory_limit)
            device_dict = {**device_dict, "memory_limit_mb": memory_limit}
        scenario = ScenarioConfig.from_dict(scenario_dict)
        if seed_override is not None:
            scenario = replace(scenario, seed=int(seed_override))
        device = DeviceProfile.from_dict(device_dict)
        capability = CapabilityProfile.from_dict(capability_dict)
        target = data.get("target_ms", 33.0) if target_override is None else target_override
        target_ms = json_number("target_ms", target)
        alpha = json_number("alpha", data.get("alpha", 1.0))
        sigma = json_number("latency_noise_sigma", data.get("latency_noise_sigma", 0.0))
        margin = json_number("sched_margin_ms", data.get("sched_margin_ms", 0.0))
        check_timing(target_ms, alpha, sigma, margin)
        training = {
            **_DEFAULT_TRAINING,
            **json_object("training", data.get("training", {}), _TRAINING_KEYS),
        }
        _check_seeds(training["seeds"])
        _gbrt_params(training)
    except (ValueError, TypeError, KeyError, OverflowError, ProfileError, CapabilityError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    model_ref = data.get("model")
    model_path = None
    if model_ref is not None and not isinstance(model_ref, str):
        raise ConfigError(f"invalid configuration: model {model_ref!r} is not a string")
    if model_ref:
        model_path = (
            model_ref if os.path.isabs(model_ref) else os.path.join(base_dir, model_ref)
        )

    canonical = {
        "tool_version": __version__,
        "name": data.get("name", "unnamed"),
        "scenario": scenario.to_dict(),
        "device": device.canonical,
        "capability": capability.canonical,
        "target_ms": target_ms,
        "alpha": alpha,
        "latency_noise_sigma": sigma,
        "sched_margin_ms": margin,
        "training": training,
        "model": bool(model_ref),
    }
    fingerprint = hashlib.sha256(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    return RunManifest(
        name=data.get("name", "unnamed"),
        scenario=scenario,
        device=device,
        capability=capability,
        model_path=model_path,
        target_ms=target_ms,
        alpha=alpha,
        latency_noise_sigma=sigma,
        sched_margin_ms=margin,
        training=training,
        fingerprint=fingerprint,
    )


def _envelope(man: RunManifest, op: str) -> dict:
    return {
        "tool": {"name": "viewsched", "version": __version__},
        "manifest": {"name": man.name, "hash": man.fingerprint},
        "op": op,
    }


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _system(man: RunManifest, branches: Tuple[BranchConfig, ...], models) -> SystemConfig:
    return SystemConfig(
        branches=branches,
        device=man.device,
        capability=man.capability,
        models=models,
        target_ms=man.target_ms,
        alpha=man.alpha,
        latency_noise_sigma=man.latency_noise_sigma,
        sched_margin_ms=man.sched_margin_ms,
    )


# -- predictor training --------------------------------------------------------


def _offline_system(man: RunManifest, branches: Tuple[BranchConfig, ...], models) -> SystemConfig:
    # training episodes run offline: no execution noise, no guard band
    return replace(_system(man, branches, models), latency_noise_sigma=0.0, sched_margin_ms=0.0)


def collect_training_episodes(man: RunManifest) -> List[EpisodeLog]:
    system = _offline_system(man, enumerate_branches(), None)  # the full catalog
    episodes = []
    for s in man.training["seeds"]:
        scenario = replace(man.scenario, seed=int(s))
        episodes.append(run_episode(scenario, system, policy="round_robin"))
    return episodes


def build_training_set(
    episode: EpisodeLog,
    capability: CapabilityProfile,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score one episode's every (frame, view, branch) cell against per-view
    ground truth.

    Detection branches are re-synthesized from a dedicated rng stream (the
    logged detections only cover whichever branch the collection policy ran);
    the tracker branch is scored on the logged forecast boxes. Each view's
    boxes' levels are computed once for all its branches, and the episode's
    cells are scored together in one matcher call. Returns features and
    detection-score targets, frame by frame, view by view, then branch by
    branch, and the per-frame track counts for the latency fit.
    """
    rig = CameraRig.default()
    catalog = enumerate_branches()
    catalog_indices = [b.index for b in catalog]
    rng = rng_stream(episode.scenario.seed, "training")
    max_range = episode.scenario.despawn_radius_m
    feats: List[np.ndarray] = []
    pairs: List[Tuple[BoxRows, BoxRows]] = []  # (branch predictions, view ground truth)
    for log in episode.frames:
        fc_by_view = log.forecast.by_view(log.forecast_views, rig.view_count)
        frame_feats = accuracy_features(log.distributions, log.forecast_views,
                                        log.forecast.confidences, catalog_indices)
        # view by view, then branch by branch, like the targets below
        feats.append(frame_feats.transpose(1, 0, 2).reshape(-1, FEATURE_WIDTH))

        for j in range(rig.view_count):
            gts = log.gt_by_view[j]
            levels = category_levels(gts.rows)
            branch_preds = [
                fc_by_view[j]
                if branch.is_tracker
                else synth_detect(
                    branch, gts, capability, rng, rig.sectors[j], max_range, levels
                )
                for branch in catalog
            ]
            pairs.extend((preds, gts) for preds in branch_preds)

    counts = np.array([len(log.forecast) for log in episode.frames], dtype=np.float64)
    return np.concatenate(feats), detection_scores(evaluate_pairs(pairs)), counts


def _seed_rows(
    task: Tuple[ScenarioConfig, SystemConfig, str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One training seed's unit of work: its episode, then its rows."""
    scenario, system, policy = task
    episode = run_episode(scenario, system, policy=policy)
    return build_training_set(episode, system.capability)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _training_pool(tasks: int) -> Optional[Executor]:
    """A forked worker per seed, up to one per usable CPU; None for one worker."""
    workers = min(tasks, _usable_cpus())
    if workers < 2:
        return None
    # imported here: only training needs them, and they add about 0.7 MB
    # to the peak RSS of every other command. Forked workers inherit the
    # imported package; a fork pool starts them all at its first task,
    # before its own manager thread
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))


def train_models(man: RunManifest) -> Tuple[PerformanceModels, dict]:
    """Two-phase fit, deterministic for a fixed manifest.

    Phase one fits on rotating-coverage collection episodes. Those only
    exhibit short tracker dwells, so a provisional model overrates stale
    forecasts; phase two therefore re-collects under the provisional model's
    own closed-loop policy (long dwells included) and refits on the union.
    In both phases each seed's episode and rows are built on their own, in
    parallel with one worker process per usable CPU, and each episode's rows
    go into its own slot of one table, so the model bytes do not depend on
    the number of workers.
    """
    if man.scenario.frame_count < 2:
        # frame 0 is the warm-up and forecasts no track, so one frame leaves
        # the latency fit a single track count
        raise ConfigError("training needs scenarios of at least 2 frames")
    params = _gbrt_params(man.training)
    true_update = true_update_model(man.device)
    seeds = [int(s) for s in man.training["seeds"]]
    policy_seeds = [s + 50000 for s in seeds]

    # episode k (phase one's seeds, then phase two's) fills slot k: every
    # episode runs the scenario's every frame. The final fit is the memory
    # peak, and the table is all it needs alive
    episodes, frames = len(seeds + policy_seeds), man.scenario.frame_count
    cells = frames * CameraRig.default().view_count * len(enumerate_branches())
    x = np.empty((episodes, cells, FEATURE_WIDTH))
    y = np.empty((episodes, cells))
    counts = np.empty((episodes, frames))

    def collect(first: int, seeds_: Sequence[int], system: SystemConfig, policy: str) -> None:
        tasks = [(replace(man.scenario, seed=s), system, policy) for s in seeds_]
        rows = (map if pool is None else pool.map)(_seed_rows, tasks)
        for k, part in enumerate(rows, first):
            x[k], y[k], counts[k] = part

    def fit(k: int) -> PerformanceModels:
        """Both predictors on the first `k` episodes' rows, in episode order."""
        frame_counts = counts[:k].ravel()
        # labels: the simulated device's own update cost at each frame's track count
        update = [true_update.predict(n) for n in frame_counts]
        return PerformanceModels(
            accuracy=train_gbrt(x[:k].reshape(-1, FEATURE_WIDTH), y[:k].ravel(), params),
            update_latency=fit_update_latency(frame_counts.astype(int), update),
        )

    pool = _training_pool(len(seeds))
    try:
        collect(0, seeds, _offline_system(man, enumerate_branches(), None), "round_robin")
        provisional = fit(len(seeds))
        on_policy_system = _offline_system(man, adapt(man.device, man.target_ms), provisional)
        collect(len(seeds), policy_seeds, on_policy_system, "adaptive")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    models = fit(episodes)
    accuracy, y_all = models.accuracy, y.ravel()
    var = float(np.var(y_all))
    mse = accuracy.training_mse[-1] if accuracy.training_mse else var
    info = {
        "samples": int(len(y_all)),
        "episodes": episodes,
        "seeds": seeds,
        "on_policy_seeds": policy_seeds,
        "final_training_mse": mse,
        "r2_train": (1.0 - mse / var) if var > 0 else 1.0,
        "manifest_hash": man.fingerprint,
        "tool_version": __version__,
    }
    return models, info


def _get_models(man: RunManifest) -> PerformanceModels:
    if man.model_path and os.path.exists(man.model_path):
        try:
            return PerformanceModels.load(man.model_path)
        except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"model file {man.model_path!r} is invalid: {exc}") from exc
    if man.model_path:
        raise ConfigError(f"model file {man.model_path!r} does not exist")
    logger.info("no model in manifest; training in-process")
    return train_models(man)[0]


# -- operations ------------------------------------------------------------


def _episode_block(ep: EpisodeLog) -> dict:
    s = ep.summary
    return {
        "policy": ep.policy,
        "frames": len(ep.frames),
        "mAP": s["mAP"],
        "mATE": s["mATE"],
        "mAVE": s["mAVE"],
        "DS": s["DS"],
        "compliance": ep.compliance,
        "mean_actual_ms": s["latency"]["mean_actual_ms"],
    }


def cmd_simulate(man: RunManifest, out: Optional[str], policy: str = "adaptive") -> dict:
    branches = adapt(man.device, man.target_ms)
    try:
        needs_models = check_policy(policy, branches).needs_models
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    models = _get_models(man) if needs_models else None
    ep = run_episode(man.scenario, _system(man, branches, models), policy=policy)

    decisions = [
        {
            "frame": f.index,
            "assignment": list(f.assignment),
            "predicted_objective": f.predicted_objective,
            "predicted_latency_ms": f.predicted_marginal_ms,
            "t_max_ms": f.t_max_ms,
        }
        for f in ep.scheduled_frames
    ]
    histogram: Dict[str, int] = {}
    for f in ep.scheduled_frames:
        for idx in f.assignment:
            histogram[str(idx)] = histogram.get(str(idx), 0) + 1

    report = _envelope(man, "simulate")
    report.update(
        {
            "policy": policy,
            "target_ms": man.target_ms,
            "seed": ep.scenario.seed,
            "deployed_branches": [
                {"index": b.index, "label": b.label} for b in branches
            ],
            "summary": ep.summary,
            "decisions": decisions,
            "assignment_histogram": histogram,
        }
    )
    _emit(report, out)
    return report


def cmd_train_predictor(man: RunManifest, out: Optional[str]) -> dict:
    models, info = train_models(man)
    if out:
        models.save(out, training_info=info)
    report = _envelope(man, "train")
    report.update(
        {
            "samples": info["samples"],
            "episodes": info["episodes"],
            "seeds": info["seeds"],
            "final_training_mse": info["final_training_mse"],
            "r2_train": info["r2_train"],
            "update_model": {
                "slope_ms_per_track": models.update_latency.slope_ms_per_track,
                "intercept_ms": models.update_latency.intercept_ms,
            },
            "model_written": bool(out),
        }
    )
    # the model artifact goes to --out; the report always goes to stdout
    _emit(report, None)
    return report


def cmd_adapt(man: RunManifest, out: Optional[str]) -> dict:
    branches = adapt(man.device, man.target_ms)
    fixed_ms = fixed_latency(man.device)
    report = _envelope(man, "adapt")
    report.update(
        {
            "target_ms": man.target_ms,
            "memory_limit_mb": man.device.memory_limit_mb,
            "fixed_latency_ms": fixed_ms,
            "deployable": [
                {
                    "index": b.index,
                    "label": b.label,
                    "marginal_ms": branch_latency(b, man.device),
                }
                for b in branches
            ],
            "degenerate": len(branches) == 1,
        }
    )
    _emit(report, out)
    return report


def cmd_compare(man: RunManifest, out: Optional[str]) -> dict:
    branches = adapt(man.device, man.target_ms)
    models = _get_models(man)
    system = _system(man, branches, models)

    adaptive_ep = run_episode(man.scenario, system, policy="adaptive")
    runs = {"adaptive": _episode_block(adaptive_ep)}
    for policy in ("per_frame", "all_tracker"):
        runs[policy] = _episode_block(run_episode(man.scenario, system, policy=policy))

    checked = [
        f
        for f in adaptive_ep.scheduled_frames
        if f.predicted_objective is not None and f.uniform_objective is not None
    ]
    violations = sum(1 for f in checked if f.predicted_objective < f.uniform_objective)
    dominance = {"frames_checked": len(checked), "violations": violations}

    best = max(runs, key=lambda p: runs[p]["DS"])
    report = _envelope(man, "compare")
    report.update(
        {
            "target_ms": man.target_ms,
            "seed": man.scenario.seed,
            "policies": runs,
            "predicted_dominance": dominance,
            "best_policy_by_ds": best,
        }
    )
    _emit(report, out)
    return report


# -- argument handling -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewsched",
        description="Budgeted per-view detector scheduling over a simulated scene.",
    )
    sub = parser.add_subparsers(dest="op", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--manifest",
            default=_BUILTIN_PREFIX + "manifest_quickstart",
            help="run manifest path or builtin:<name>",
        )
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument(
            "--target-ms", type=float, default=None, help="override latency target"
        )
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_sim = sub.add_parser("simulate", help="run one closed-loop episode")
    common(p_sim)
    p_sim.add_argument(
        "--policy",
        default="adaptive",
        help=POLICY_USAGE,
    )

    p_train = sub.add_parser("train", help="fit accuracy and latency predictors")
    common(p_train)

    p_adapt = sub.add_parser("adapt", help="report the deployable branch set")
    common(p_adapt)

    p_cmp = sub.add_parser("compare", help="run scheduling policies side by side")
    common(p_cmp)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        man = load_manifest(args.manifest, args.seed, args.target_ms)
        if args.op == "simulate":
            cmd_simulate(man, args.out, policy=args.policy)
        elif args.op == "train":
            cmd_train_predictor(man, args.out)
        elif args.op == "adapt":
            cmd_adapt(man, args.out)
        else:
            cmd_compare(man, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, ProfileError, CapabilityError, BrokenExecutor) as exc:
        # a training worker's failure reaches here as itself or, if the
        # worker died, as a broken pool
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # e.g. a training table for more seeds or frames than memory holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        logger.debug("runtime failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
