"""Deterministic scene simulation and the synthetic detection oracle.

A scenario is a seeded world of point-ish objects with extent moving at
roughly constant velocity around a moving ego. Boxes are `BoxRows` from the
ground truth to the metrics: the live objects move as one array, each
frame's ground truth is their rows in the ego frame, placed in views by the
same function that places the forecast's, and the synthetic detector draws
its boxes from those rows. Detector branches are stood in
for by a capability profile: per (branch, object category) recall and noise
levels plus a false-positive rate, calibrated so the relative trends between
branches (far-object recall gap, fused-velocity error gap) match the system
being modeled while every absolute number stays synthetic.

`run_episode` closes the loop: forecast the tracks once, schedule, synthesize
detections for the views that got a detector, step the tracker on the same
forecast, account latency, evaluate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .branches import (
    BackboneKind,
    BranchConfig,
    DepthNetKind,
    DeviceProfile,
    branch_latency,
    fixed_latency,
    json_count,
    json_file,
    json_flag,
    json_number,
    json_object,
)
from .core import (
    CLASSES,
    GLOBAL_FRAME,
    NO_BOXES,
    NUM_DISTANCE_LEVELS,
    NUM_SIZE_LEVELS,
    NUM_VELOCITY_LEVELS,
    BoxRows,
    CameraRig,
    EgoPose,
    ObjectClass,
    category_levels,
    concat_boxes,
    distribution,  # not called here; perfbench traces calls under this name
    math_map,
    views_of,
    wrap_angle,
)
# evaluate_frame is not called here; perfbench's tracer wraps it as a simulator attribute
from .metrics import evaluate_frame, evaluate_pairs, summarize  # noqa: F401
from .predictors import LinearLatencyModel, PerformanceModels
from .scheduler import (
    FrameForecast,
    FramePlan,
    ScheduleDecision,
    assignment_latency,
    frame_forecast,
    most_powerful_row,
    schedule_frame,
)
# forecast_all is not called here; perfbench's tracer wraps it as a simulator attribute
from .tracker import MultiObjectTracker, forecast_all  # noqa: F401


def rng_stream(seed: int, *names: str) -> np.random.Generator:
    """Independent, named child stream of a root seed.

    Streams for different names never share draws, so adding a consumer (or
    changing how often one consumer draws) cannot perturb the others.
    """
    key = tuple(
        int.from_bytes(hashlib.sha256(str(n).encode("utf-8")).digest()[:4], "big")
        for n in names
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# -- scenario ----------------------------------------------------------------

CLASS_DIMS: Dict[ObjectClass, Tuple[float, float, float]] = {
    ObjectClass.CAR: (1.9, 1.6, 4.5),
    ObjectClass.TRUCK: (2.5, 3.0, 8.0),
    ObjectClass.BUS: (2.9, 3.3, 11.0),
    ObjectClass.PEDESTRIAN: (0.6, 1.7, 0.6),
    ObjectClass.MOTORCYCLE: (0.8, 1.4, 2.1),
    ObjectClass.BICYCLE: (0.6, 1.3, 1.7),
}

_DEFAULT_MIX = {
    ObjectClass.CAR: 0.40,
    ObjectClass.TRUCK: 0.12,
    ObjectClass.BUS: 0.06,
    ObjectClass.PEDESTRIAN: 0.25,
    ObjectClass.MOTORCYCLE: 0.08,
    ObjectClass.BICYCLE: 0.09,
}

_DEFAULT_SPEEDS = {
    ObjectClass.CAR: (0.0, 14.0),
    ObjectClass.TRUCK: (0.0, 10.0),
    ObjectClass.BUS: (0.0, 9.0),
    ObjectClass.PEDESTRIAN: (0.0, 1.8),
    ObjectClass.MOTORCYCLE: (0.0, 16.0),
    ObjectClass.BICYCLE: (0.0, 7.0),
}


@dataclass(frozen=True)
class EgoPath:
    """Ego trajectory: straight line, circle, or waypoint chain."""

    kind: str = "straight"
    speed_mps: float = 4.0
    heading_rad: float = 0.0  # straight only
    radius_m: float = 20.0  # circular only
    points: Tuple[Tuple[float, float], ...] = ()  # waypoints only

    def __post_init__(self) -> None:
        if self.kind not in ("straight", "circular", "waypoints"):
            raise ValueError(f"unknown ego path kind {self.kind!r}")
        if self.speed_mps < 0:
            raise ValueError("ego speed must be non-negative")
        if self.kind == "circular" and self.radius_m <= 0:
            raise ValueError("circular path needs a positive radius")
        if self.kind == "waypoints" and len(self.points) < 2:
            raise ValueError("waypoint path needs at least two points")

    def pose_at(self, t: float) -> EgoPose:
        if self.kind == "straight":
            c, s = math.cos(self.heading_rad), math.sin(self.heading_rad)
            d = self.speed_mps * t
            return EgoPose(c * d, s * d, self.heading_rad, t)
        if self.kind == "circular":
            omega = self.speed_mps / self.radius_m
            a = omega * t
            return EgoPose(
                self.radius_m * math.sin(a),
                self.radius_m * (1.0 - math.cos(a)),
                wrap_angle(a),
                t,
            )
        # waypoints, constant speed, stop at the end of the last segment
        pts = self.points
        dist = self.speed_mps * t
        last = len(pts) - 2
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(pts, pts[1:])):
            seg = math.hypot(x1 - x0, y1 - y0)
            heading = math.atan2(y1 - y0, x1 - x0)
            if dist <= seg or i == last:
                f = min(dist / seg, 1.0) if seg > 0 else 0.0
                return EgoPose(x0 + f * (x1 - x0), y0 + f * (y1 - y0), heading, t)
            dist -= seg

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "speed_mps": self.speed_mps}
        if self.kind == "straight":
            out["heading_rad"] = self.heading_rad
        elif self.kind == "circular":
            out["radius_m"] = self.radius_m
        else:
            out["points"] = [list(p) for p in self.points]
        return out

    @classmethod
    def from_dict(cls, data: object) -> "EgoPath":
        """Read an ego block: only known keys, every number finite; absent
        keys take the field defaults."""
        kwargs = dict(json_object("ego", data, frozenset(f.name for f in fields(cls))))
        for key, value in kwargs.items():
            if key == "points":
                kwargs[key] = tuple(_json_pair("ego.points", p) for p in value)
            elif key != "kind":
                kwargs[key] = json_number(f"ego.{key}", value)
        return cls(**kwargs)


def _json_pair(key: str, value: object) -> Tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{key} entries must be pairs of numbers, got {value!r}")
    return json_number(key, value[0]), json_number(key, value[1])


# a scenario's duration times its frame rate may be at most this many frames
# (2.8 h at 10 fps): every episode is generated, run and logged in memory
MAX_FRAME_COUNT = 100_000

# a scene starts at most this many objects and spawns at most this many a second
# (bundled: 12-16 and 2.5-4): association's tracks x detections cost matrix and
# solver, and the scorer's per-class claimed mask, grow with the square of a
# frame's objects
MAX_INITIAL_COUNT = 1_000
MAX_SPAWN_RATE_PER_S = 100.0


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration_s: float = 6.0
    fps: float = 10.0
    world_radius_m: float = 60.0
    despawn_radius_m: float = 60.0
    spawn_rate_per_s: float = 2.0
    initial_count: int = 12
    velocity_jitter: float = 0.3  # std of per-frame velocity increment is jitter*dt
    turn_rate_max_rps: float = 0.4  # objects hold a yaw rate drawn in +/- this
    class_mix: Mapping[ObjectClass, float] = field(
        default_factory=lambda: dict(_DEFAULT_MIX)
    )
    speed_ranges: Mapping[ObjectClass, Tuple[float, float]] = field(
        default_factory=lambda: dict(_DEFAULT_SPEEDS)
    )
    ego: EgoPath = field(default_factory=EgoPath)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (0 < self.fps < math.inf and 0 < self.duration_s < math.inf):
            raise ValueError("fps and duration must be positive and finite")
        if self.duration_s * self.fps > MAX_FRAME_COUNT:
            raise ValueError(f"duration times fps exceeds {MAX_FRAME_COUNT} frames")
        if self.world_radius_m <= 0 or self.despawn_radius_m < self.world_radius_m:
            raise ValueError("need 0 < world radius <= despawn radius")
        if self.spawn_rate_per_s < 0 or self.initial_count < 0:
            raise ValueError("spawn rate and initial count must be non-negative")
        if self.initial_count > MAX_INITIAL_COUNT or self.spawn_rate_per_s > MAX_SPAWN_RATE_PER_S:
            raise ValueError(f"initial count may be at most {MAX_INITIAL_COUNT} and spawn rate "
                             f"at most {MAX_SPAWN_RATE_PER_S:g} per s")
        if self.velocity_jitter < 0 or self.turn_rate_max_rps < 0:
            raise ValueError("velocity jitter and turn rate must be non-negative")
        if self.frame_count < 1:
            raise ValueError(f"duration {self.duration_s} s at {self.fps} fps makes no frame")
        if any(w < 0 for w in self.class_mix.values()):
            raise ValueError("class mix weights must be non-negative")
        total = sum(self.class_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class mix weights must sum to 1, got {total}")
        for cls_, rng_ in self.speed_ranges.items():
            if rng_[0] < 0 or rng_[1] < rng_[0]:
                raise ValueError(f"bad speed range for {cls_.value}: {rng_}")
        for cls_, weight in self.class_mix.items():
            if weight > 0 and cls_ not in self.speed_ranges:
                raise ValueError(f"{cls_.value} has a class_mix weight but no speed range")

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.fps))

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    def to_dict(self) -> dict:
        return {
            "version": 1,
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "class_mix": {c.value: w for c, w in self.class_mix.items()},
            "speed_ranges": {c.value: list(r) for c, r in self.speed_ranges.items()},
            "ego": self.ego.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioConfig":
        """Read a scenario file: only known keys, `seed` and `initial_count`
        JSON ints, every other number finite; absent keys take the field
        defaults."""
        kwargs: dict = {}
        known = frozenset(("version", *(f.name for f in fields(cls))))
        for key, value in json_file("scenario", data, known).items():
            if key in ("seed", "initial_count"):
                kwargs[key] = json_count(key, value)
            elif key in ("class_mix", "speed_ranges"):
                table = json_object(key, value, frozenset(c.value for c in ObjectClass))
                if table:  # an empty table keeps the default
                    read = json_number if key == "class_mix" else _json_pair
                    kwargs[key] = {ObjectClass(c): read(f"{key}.{c}", v) for c, v in table.items()}
            elif key == "ego":
                kwargs[key] = EgoPath.from_dict(value)
            elif key != "version":
                kwargs[key] = json_number(key, value)
        return cls(**kwargs)


@dataclass(frozen=True)
class GroundTruthFrame:
    """Frame `index`'s objects; its time is `ego.t`."""

    index: int
    ego: EgoPose
    gt: BoxRows  # ego frame


# A live object is one row: its global box row (x, y, z, vx, vy, vz, w, h, l)
# laid out like the tracker's state, then the yaw rate its velocity heading
# drifts at, then its class code.
_YAW_RATE, _CLASS = 9, 10


def _spawn_row(
    rng: np.random.Generator,
    config: ScenarioConfig,
    classes: Sequence[ObjectClass],
    probs: np.ndarray,
    center: EgoPose,
    radius: float,
    inward: bool,
) -> List[float]:
    cls = classes[int(rng.choice(len(classes), p=probs))]
    angle = rng.uniform(-math.pi, math.pi)
    r = radius if inward else radius * math.sqrt(rng.uniform(0.02, 1.0))
    x = center.x + r * math.cos(angle)
    y = center.y + r * math.sin(angle)
    lo, hi = config.speed_ranges[cls]
    speed = rng.uniform(lo, hi)
    if inward:
        heading = wrap_angle(angle + math.pi + rng.uniform(-1.0, 1.0))
    else:
        heading = rng.uniform(-math.pi, math.pi)
    scale = float(np.clip(1.0 + rng.normal(0.0, 0.06), 0.8, 1.25))
    w, h, l = (d * scale for d in CLASS_DIMS[cls])
    turn = config.turn_rate_max_rps
    yaw_rate = rng.uniform(-turn, turn) if turn > 0 else 0.0
    velocity = [speed * math.cos(heading), speed * math.sin(heading), 0.0]
    return [x, y, h / 2.0, *velocity, w, h, l, yaw_rate, CLASSES.index(cls)]


def generate_scenario(config: ScenarioConfig) -> List[GroundTruthFrame]:
    """Deterministic ground truth: same config (incl. seed) -> same frames.

    Objects hold velocity up to a seeded Gaussian per-frame perturbation,
    spawn at the world edge around the ego, and despawn once beyond the
    despawn radius from the ego. The live objects move as one array of rows.
    """
    rng = rng_stream(config.seed, "scenario")
    dt = config.dt
    classes = sorted(config.class_mix, key=lambda c: c.value)
    weights = np.array([config.class_mix[c] for c in classes])
    probs = weights / weights.sum()

    def spawn(count: int, center: EgoPose, radius: float, inward: bool) -> np.ndarray:
        rows = [_spawn_row(rng, config, classes, probs, center, radius, inward)
                for _ in range(count)]
        return np.array(rows, dtype=np.float64).reshape(count, _CLASS + 1)

    state = spawn(config.initial_count, config.ego.pose_at(0.0), config.world_radius_m * 0.92,
                  False)
    frames: List[GroundTruthFrame] = []
    for i in range(config.frame_count):
        t = i / config.fps
        pose = config.ego.pose_at(t)
        if i > 0:
            vx, vy, rate = state[:, 3], state[:, 4], state[:, _YAW_RATE]
            c, s = math_map(math.cos, rate * dt), math_map(math.sin, rate * dt)
            turned = [c * vx - s * vy, s * vx + c * vy]
            state[:, 3:5] = np.where(rate != 0.0, turned, [vx, vy]).T
            sigma = config.velocity_jitter * dt
            if sigma > 0:
                state[:, 3:5] += rng.normal(0.0, sigma, (len(state), 2))
            state[:, :3] += state[:, 3:6] * dt
            gap = math_map(math.hypot, state[:, 0] - pose.x, state[:, 1] - pose.y)
            born = spawn(int(rng.poisson(config.spawn_rate_per_s * dt)), pose,
                         config.world_radius_m * 0.999, True)
            state = np.vstack([state[gap <= config.despawn_radius_m], born])

        gt = BoxRows(state[:, :_YAW_RATE], state[:, _CLASS].astype(np.int64), np.ones(len(state)))
        frames.append(GroundTruthFrame(i, pose, gt.moved(GLOBAL_FRAME, pose)))
    return frames


# -- capability profile -------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceParams:
    tp_mean: float = 0.78
    tp_sd: float = 0.12
    fp_mean: float = 0.35
    fp_sd: float = 0.15
    clip_lo: float = 0.05
    clip_hi: float = 0.999


class CapabilityError(Exception):
    """Raised when a capability profile violates its ordering constraints."""


class DetectorRow(NamedTuple):
    """One detector branch's capability, indexed by `category_levels`' levels.
    `recall` is the profile's own list: nothing writes to a row."""

    recall: List[float]  # [distance level]
    sigma_pos: List[float]  # [distance level]
    sigma_vel: List[List[float]]  # [velocity level][distance level]
    sigma_size: List[float]  # [size level]
    fp_rate: float


_BACKBONES = tuple(b.value for b in BackboneKind)
_MODIFIER_KEYS = ("sparse_plain", "sparse_fused", "dense_plain", "dense_fused")
_CONFIDENCE_DEFAULTS = asdict(ConfidenceParams())

# The capability file: per block, the `synthetic` flag its canonical form
# states and each entry's shape: an int is a list of that many numbers,
# _BACKBONES one number per backbone, None a single number.
_CAPABILITY_LAYOUT: Dict[str, Tuple[bool, dict]] = {
    "recall_by_backbone": (True, dict.fromkeys(_BACKBONES, NUM_DISTANCE_LEVELS)),
    "position_sigma": (True, {"base_by_distance": NUM_DISTANCE_LEVELS,
                              "backbone_factor": _BACKBONES, "dense_factor": None}),
    "velocity_sigma": (True, {"base_by_vlevel": NUM_VELOCITY_LEVELS,
                              "distance_factor": NUM_DISTANCE_LEVELS}),
    "velocity_modifiers": (False, dict.fromkeys(_MODIFIER_KEYS)),
    "size_sigma": (True, {"base_by_slevel": NUM_SIZE_LEVELS, "backbone_factor": _BACKBONES}),
    "false_positives": (True, {"rate_by_backbone": _BACKBONES}),
    "confidence": (True, dict.fromkeys(_CONFIDENCE_DEFAULTS)),
    "ratio_anchors": (False, dict.fromkeys(("recall_far_ratio", "vel_fused_ratio"))),
}
_CAPABILITY_KEYS = frozenset(("version", "name", *_CAPABILITY_LAYOUT))
_BACKBONE_KEYS = frozenset(_BACKBONES)
_BLOCK_KEYS = {
    name: frozenset(("synthetic", *shapes)) for name, (_, shapes) in _CAPABILITY_LAYOUT.items()
}


def _read_numbers(key: str, value: object, shape: object) -> object:
    """One entry of a capability block, each number finite and non-negative."""
    if shape is None:
        return json_number(key, value, True)
    if type(shape) is int:
        if type(value) is not list or len(value) != shape:
            raise ValueError(f"{key} needs {shape} entries, got {value!r}")
        return [json_number(key, v, True) for v in value]
    if len(json_object(key, value, _BACKBONE_KEYS)) != len(_BACKBONES):
        raise ValueError(f"{key} needs an entry for each of {list(_BACKBONES)}")
    return {k: json_number(f"{key}.{k}", value[k], True) for k in _BACKBONES}


def _read_capability(data: object) -> dict:
    """The capability file's one reader: check `data` and return its
    canonical form. Absent confidence entries take `ConfidenceParams`'
    defaults; the ratio anchors are optional, and a block that names none
    pins nothing."""
    d = json_file("capability profile", data, _CAPABILITY_KEYS)
    out: dict = {"version": 1, "name": d["name"], "ratio_anchors": None}
    for name, (synthetic, shapes) in _CAPABILITY_LAYOUT.items():
        if name == "ratio_anchors" and d.get(name) is None:
            continue
        block = json_object(name, d[name], _BLOCK_KEYS[name])
        json_flag(f"{name}.synthetic", block.get("synthetic", synthetic))
        if name == "confidence":
            block = {**_CONFIDENCE_DEFAULTS, **block}
        entries = out[name] = {"synthetic": synthetic}
        for key, shape in shapes.items():
            if key in block:
                entries[key] = _read_numbers(f"{name}.{key}", block[key], shape)
            elif name != "ratio_anchors":
                raise ValueError(f"{name} is missing {key}")
    if out["ratio_anchors"] is not None and len(out["ratio_anchors"]) == 1:
        out["ratio_anchors"] = None
    _check_capability(out)
    return out


def _check_capability(c: dict) -> None:
    """The orderings and anchors a readable capability profile must obey."""
    recall = c["recall_by_backbone"]
    for k in _BACKBONES:
        if max(recall[k]) > 1.0:
            raise CapabilityError(f"recall out of [0,1] for {k}")
        # (a) recall never improves with distance
        if any(map(operator.lt, recall[k], recall[k][1:])):
            raise CapabilityError(f"recall must be non-increasing in distance for {k}")
    # (b) bigger backbone never worse, per distance level
    for small, big in zip(_BACKBONES, _BACKBONES[1:]):
        if any(map(operator.gt, recall[small], recall[big])):
            raise CapabilityError(f"backbone recall ordering violated: {small} beats {big}")
    # (e) dense never worse than sparse for position noise
    if c["position_sigma"]["dense_factor"] > 1.0:
        raise CapabilityError("dense depth head must not increase position noise")
    conf = c["confidence"]
    if not conf["clip_lo"] < conf["clip_hi"] <= 1.0:
        raise CapabilityError("confidence clip bounds must satisfy 0 <= lo < hi <= 1")

    anchors = c["ratio_anchors"] or {}
    want = anchors.get("recall_far_ratio")
    if want is not None:
        far = NUM_DISTANCE_LEVELS - 2  # the anchored far bin (one below open-ended)
        small, big = recall[_BACKBONES[0]][far], recall[_BACKBONES[-1]][far]
        if small <= 0 or abs(big / small - want) > 0.01:
            raise CapabilityError(f"far-bin recall ratio {big}/{small} misses anchor {want}")
    want = anchors.get("vel_fused_ratio")
    if want is not None:
        mods = c["velocity_modifiers"]
        fused = mods["dense_fused"]
        if fused <= 0 or abs(mods["sparse_plain"] / fused - want) > 0.01:
            raise CapabilityError(
                f"velocity modifier ratio {mods['sparse_plain']}/{fused} misses anchor {want}"
            )


class CapabilityProfile:
    """Synthetic detector capability, read from its file by `from_dict`.

    Recall depends on (backbone, distance level); noise sigmas factor into a
    per-level base times branch-family modifiers. Ordering constraints are
    checked on reading: recall never improves with distance, bigger
    backbones never have worse recall, and the dense depth head never has
    worse position noise than the sparse one. Profiles that declare ratio
    anchors additionally pin the far-distance recall ratio and the
    fused-vs-plain velocity-noise ratio. Each detector branch's products are
    built once, on first use, into the row `row` returns.
    """

    def __init__(self, canonical: dict):
        # `from_dict`'s reading of the file, shared and never changed: the
        # manifest fingerprint hashes it as is
        self.canonical = canonical
        c = canonical["confidence"]
        self.confidence = ConfidenceParams(**{k: c[k] for k in _CONFIDENCE_DEFAULTS})
        self._rows: Dict[int, DetectorRow] = {}

    def row(self, branch: BranchConfig) -> DetectorRow:
        """A detector branch's row, built on first use; the tracker branch
        has none."""
        row = self._rows.get(branch.index)
        if row is None:
            row = self._rows[branch.index] = self._build_row(branch)
        return row

    def _build_row(self, branch: BranchConfig) -> DetectorRow:
        if branch.is_tracker:
            raise ValueError("the tracker branch has no detector capability")
        c = self.canonical
        k = branch.backbone.value  # type: ignore[union-attr]
        dense = branch.depthnet is DepthNetKind.DENSE
        family = f"{branch.depthnet.value}_{'fused' if branch.temporal_fusion else 'plain'}"
        # each product in the noise model's order: position is base x backbone
        # factor (x dense factor), velocity (base x distance factor) x family
        # modifier, size base x backbone factor
        pos = c["position_sigma"]
        sigma_pos = [b * pos["backbone_factor"][k] for b in pos["base_by_distance"]]
        if dense:
            sigma_pos = [s * pos["dense_factor"] for s in sigma_pos]
        vel = c["velocity_sigma"]
        mod = c["velocity_modifiers"][family]
        sigma_vel = [[v * f * mod for f in vel["distance_factor"]] for v in vel["base_by_vlevel"]]
        size = c["size_sigma"]
        return DetectorRow(
            recall=c["recall_by_backbone"][k],
            sigma_pos=sigma_pos,
            sigma_vel=sigma_vel,
            sigma_size=[b * size["backbone_factor"][k] for b in size["base_by_slevel"]],
            fp_rate=c["false_positives"]["rate_by_backbone"][k],
        )

    @classmethod
    def from_dict(cls, data: object) -> "CapabilityProfile":
        """Read a capability file: only known keys, every number finite and
        non-negative, every table complete; then the orderings and anchors."""
        try:
            return cls(_read_capability(data))
        except (KeyError, TypeError, ValueError) as exc:
            raise CapabilityError(f"malformed capability profile: {exc}") from exc


def default_capability() -> CapabilityProfile:
    """The bundled capability profile (ratio anchors included)."""
    text = resources.files("viewsched").joinpath("data/capability_default.json").read_text("utf-8")
    return CapabilityProfile.from_dict(json.loads(text))


# -- synthetic detection -------------------------------------------------------


_FP_CLASSES = tuple(sorted(CLASS_DIMS, key=lambda c: c.value))  # a false positive's classes
_FP_CODES = tuple(CLASSES.index(c) for c in _FP_CLASSES)
_NO_SIZE_NOISE = (0.0, 0.0, 0.0)


def _confidence(rng: np.random.Generator, mean: float, sd: float, c: ConfidenceParams) -> float:
    """A detection's confidence: normal, clipped; no draw when `sd` is 0."""
    value = float(rng.normal(mean, sd)) if sd > 0 else mean
    return min(max(value, c.clip_lo), c.clip_hi)


def synth_detect(
    branch: BranchConfig,
    boxes: BoxRows,
    capability: CapabilityProfile,
    rng: np.random.Generator,
    sector: Tuple[float, float],
    max_range_m: float = 60.0,
    levels: Optional[np.ndarray] = None,
) -> BoxRows:
    """Stand-in for running one detector branch on one view.

    Each ground-truth box survives with its category recall, then gets
    position/velocity/size noise per the profile; Poisson false positives are
    placed uniformly over the sector's area. Draws go box by box, in a fixed
    order, so the output is deterministic given the rng stream. The tracker
    branch has no capability row: it raises ValueError. `levels` holds
    `category_levels(boxes.rows)`, for callers that draw several branches on
    one view; by default they are computed here.
    """
    row = capability.row(branch)
    c = capability.confidence
    rows: List[List[float]] = []
    classes: List[int] = []
    confidences: List[float] = []
    if levels is None:
        levels = category_levels(boxes.rows)
    for (x, y, z, vx, vy, vz, *size), (dist, vel, vol), cls in zip(
        boxes.rows.tolist(), levels.tolist(), boxes.classes.tolist()
    ):
        if rng.random() >= row.recall[dist]:
            continue
        sp = row.sigma_pos[dist]
        sv = row.sigma_vel[vel][dist]
        ss = row.sigma_size[vol]
        dx, dy = (rng.normal(0.0, sp, 2) if sp > 0 else (0.0, 0.0))
        dvx, dvy = (rng.normal(0.0, sv, 2) if sv > 0 else (0.0, 0.0))
        dsize = rng.normal(0.0, ss, 3) if ss > 0 else _NO_SIZE_NOISE
        rows.append([x + float(dx), y + float(dy), z, vx + float(dvx), vy + float(dvy), vz,
                     *(max(float(s + d), 0.05) for s, d in zip(size, dsize))])
        classes.append(cls)
        confidences.append(_confidence(rng, c.tp_mean, c.tp_sd, c))

    lam = row.fp_rate
    n_fp = int(rng.poisson(lam)) if lam > 0 else 0
    lo, hi = sector
    width = hi - lo
    if width <= 0:
        width += 2.0 * math.pi
    for _ in range(n_fp):
        r = math.sqrt(rng.uniform((2.0 / max_range_m) ** 2, 1.0)) * max_range_m
        theta = wrap_angle(lo + rng.uniform(0.0, width))
        k = int(rng.integers(0, len(_FP_CLASSES)))
        w, h, l = CLASS_DIMS[_FP_CLASSES[k]]
        heading = rng.uniform(-math.pi, math.pi)  # sets the velocity; the box keeps no heading
        speed = rng.uniform(0.0, 3.0)
        rows.append([r * math.cos(theta), r * math.sin(theta), h / 2.0,
                     speed * math.cos(heading), speed * math.sin(heading), 0.0, w, h, l])
        classes.append(_FP_CODES[k])
        confidences.append(_confidence(rng, c.fp_mean, c.fp_sd, c))
    return BoxRows.of(rows, classes, confidences) if rows else NO_BOXES


# -- closed loop ---------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """Everything the runtime loop needs besides the scenario.

    The loop always runs the default rig, tracker and evaluation settings.
    """

    branches: Tuple[BranchConfig, ...]
    device: DeviceProfile
    capability: CapabilityProfile
    models: Optional[PerformanceModels]
    target_ms: float
    alpha: float = 1.0
    latency_noise_sigma: float = 0.0
    sched_margin_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.branches or not self.branches[0].is_tracker:
            raise ValueError("branch set must start with the tracker branch")
        check_timing(self.target_ms, self.alpha, self.latency_noise_sigma, self.sched_margin_ms)


def check_timing(target_ms: float, alpha: float, noise_sigma: float, margin_ms: float) -> None:
    """The rule a run's timing numbers obey, for `SystemConfig` and manifests alike."""
    if not all(math.isfinite(v) for v in (target_ms, alpha, noise_sigma, margin_ms)):
        raise ValueError("target, alpha, noise sigma and margin must be finite")
    if target_ms <= 0:
        raise ValueError("target must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if noise_sigma < 0 or margin_ms < 0:
        raise ValueError("noise sigma and margin must be non-negative")
    if noise_sigma > 10.0:
        # NumPy's normal never draws |z| >= 14, and exp(10 * 14) is finite
        raise ValueError("noise sigma must be at most 10")
    if margin_ms >= target_ms:
        raise ValueError("margin must leave a positive scheduling target")


@dataclass
class FrameLog:
    """One frame of an episode. Frame 0 is the warm-up; `forecast` is the
    frame's own forecast record, kept whole: its ego-frame boxes, their views
    and the distributions."""

    index: int
    gt: BoxRows  # ego frame, in the scene's order
    forecast: FrameForecast
    assignment: Tuple[int, ...]  # catalog branch index per view
    predicted_objective: Optional[float]
    uniform_objective: Optional[float]  # best single-branch counterfactual
    predicted_marginal_ms: float
    t_max_ms: Optional[float]
    predicted_frame_ms: float
    actual_ms: float
    compliant: bool
    outputs: BoxRows  # what the system emitted downstream, ego frame

    @functools.cached_property
    def gt_by_view(self) -> Tuple[BoxRows, ...]:
        """`gt` split by view on the loop's rig, computed on first read: the
        loop reads it only on frames where a detector runs."""
        rig = CameraRig.default()
        return self.gt.by_view(views_of(self.gt.rows, rig), rig.view_count)


@dataclass
class EpisodeLog:
    scenario: ScenarioConfig
    policy: str
    frames: List[FrameLog]
    summary: dict

    @property
    def scheduled_frames(self) -> List[FrameLog]:
        """Every frame after the warm-up."""
        return self.frames[1:]

    @property
    def compliance(self) -> float:
        return self.summary["latency"]["compliance"]


def true_update_model(device: DeviceProfile) -> LinearLatencyModel:
    """The simulated device's own tracker-update cost."""
    return LinearLatencyModel(
        slope_ms_per_track=device.update_slope_ms_per_track,
        intercept_ms=device.update_intercept_ms,
    )


def realized_latency(
    marginal_ms: float,
    fixed_ms: float,
    update_ms: float,
    sigma: float,
    rng: Optional[np.random.Generator],
) -> float:
    """Simulated actual frame latency: the planner's price plus noise.

    `marginal_ms` is the assignment's price under the planner's one cost
    model, `scheduler.assignment_latency`; the fixed modules and the true
    update cost are added to it. With sigma > 0 each of the three terms draws one
    multiplicative lognormal factor, in that order. With sigma = 0 no draws
    happen at all, so enabling noise elsewhere never shifts streams, and the
    result is exactly `marginal_ms + fixed_ms + update_ms`.
    """

    def noise() -> float:
        if sigma <= 0 or rng is None:
            return 1.0
        return float(np.exp(sigma * rng.standard_normal()))

    return marginal_ms * noise() + fixed_ms * noise() + update_ms * noise()


# -- policies --------------------------------------------------------------------

# A chooser maps (system, frame index, forecast) to the frame's branch rows,
# one per view, and the plan and decision they came from, if any. It looks
# `schedule_frame` up at call time, so a test or a tracer may replace it.
# A chooser that returns a plan reads only the system and the forecast's
# `planning_inputs`, so `run_episode` reuses its choice on a frame whose
# inputs equal the previous frame's byte for byte.
Choice = Tuple[List[int], Optional[FramePlan], Optional[ScheduleDecision]]


def planning_inputs(forecast: FrameForecast) -> Tuple[bytes, bytes, bytes]:
    """The bytes of all `schedule_frame` reads of a forecast: they fix its
    features and its track count."""
    return (forecast.distributions.tobytes(), forecast.views.tobytes(),
            forecast.boxes.confidences.tobytes())


class Policy(NamedTuple):
    needs_models: bool
    choose: Callable[[SystemConfig, int, FrameForecast], Choice]


def _planned(uniform: bool) -> Callable[[SystemConfig, int, FrameForecast], Choice]:
    def choose(system: SystemConfig, index: int, forecast: FrameForecast) -> Choice:
        plan = schedule_frame(forecast, system.branches, system.device, system.models,
                              system.target_ms - system.sched_margin_ms, system.alpha)
        decision = plan.uniform_decision if uniform else plan.decision
        rows = list(decision.assignment) if decision else [0] * len(forecast.distributions)
        return rows, plan, decision

    return choose


def _round_robin(system: SystemConfig, index: int, forecast: FrameForecast) -> Choice:
    # rest each view on the tracker 5 frames out of 12 so collected forecast
    # samples span fresh through several-frames-stale tracks; the detection
    # branches take turns on the other frames
    det_rows = [r for r, b in enumerate(system.branches) if not b.is_tracker]
    rows = [
        det_rows[(index - 1 + 2 * j) % len(det_rows)]
        if det_rows and (index - 1 + 7 * j) % 12 >= 5
        else 0
        for j in range(len(forecast.distributions))
    ]
    return rows, None, None


def _fixed(row: int, system: SystemConfig, index: int, forecast: FrameForecast) -> Choice:
    return [row] * len(forecast.distributions), None, None


# Every policy `run_episode` runs: name -> (needs trained models, chooser). A name
# ending in ":" takes a deployed branch index, whose row `check_policy` binds first.
POLICIES: Dict[str, Policy] = {
    "adaptive": Policy(True, _planned(uniform=False)),  # solves the per-view problem
    "per_frame": Policy(True, _planned(uniform=True)),  # best single branch, all views
    "round_robin": Policy(False, _round_robin),  # rotates detectors, rests views (training)
    "all_tracker": Policy(False, functools.partial(_fixed, 0)),  # never detects (diagnostic)
    "fixed:": Policy(False, _fixed),  # pins one branch on every view
}
POLICY_USAGE = " | ".join(n + "<index>" if n.endswith(":") else n for n in POLICIES)


def check_policy(policy: str, branches: Sequence[BranchConfig], has_models: bool = True) -> Policy:
    """`POLICIES`' entry for `policy` over the deployed `branches`, its
    chooser ready to call. Raises ValueError for an unknown name, a prefix
    argument that is not a deployed branch index, or a policy that needs
    trained models when `has_models` is false."""
    name, sep, arg = policy.partition(":")
    entry = POLICIES.get(name + sep)
    if entry is None:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_USAGE}")
    if entry.needs_models and not has_models:
        raise ValueError(f"policy {policy!r} needs trained models")
    if not sep:
        return entry
    try:
        index = int(arg)
    except ValueError as exc:
        raise ValueError(f"policy {policy!r} needs an integer branch index") from exc
    rows = [r for r, b in enumerate(branches) if b.index == index]
    if not rows:
        raise ValueError(f"branch {index} is not in the deployed set")
    return entry._replace(choose=functools.partial(entry.choose, rows[0]))


def run_episode(
    scenario: ScenarioConfig,
    system: SystemConfig,
    policy: str = "adaptive",
) -> EpisodeLog:
    """Closed loop over one scenario.

    Frame 0 is a warmup (no tracks exist yet to forecast from): the heaviest
    deployed detection branch covers every view, and the frame is excluded
    from compliance statistics. From frame 1 on, the policy's chooser picks
    the assignment; `POLICIES` lists them, and `check_policy` rejects a name
    it cannot run before any frame is generated. A chooser that planned is
    not asked again while the planning inputs stay the same (see `Choice`).
    """
    choose = check_policy(policy, system.branches, system.models is not None).choose

    frames = generate_scenario(scenario)
    rig = CameraRig.default()
    branches = system.branches
    is_detector = np.array([not b.is_tracker for b in branches])

    lats = np.array([branch_latency(b, system.device) for b in branches])
    warm = functools.partial(_fixed, most_powerful_row(lats))
    tracker = MultiObjectTracker()
    true_update = true_update_model(system.device)
    fixed_ms = fixed_latency(system.device)
    lat_rng = rng_stream(scenario.seed, "latnoise") if system.latency_noise_sigma > 0 else None
    det_rngs = [rng_stream(scenario.seed, f"detect/view{j}") for j in range(rig.view_count)]

    dt = scenario.dt
    frame_logs: List[FrameLog] = []
    # the last scheduled frame's planning inputs and choice, while its chooser
    # returned a plan: a frame whose inputs equal them reuses that choice
    reusable: Optional[Tuple[Tuple[bytes, bytes, bytes], Choice]] = None

    for frame in frames:
        # the frame's one forecast, placed in views once: the plan, the log,
        # the outputs of the tracker-branch views and the tracker's miss
        # penalty all use it
        forecast = frame_forecast(tracker.forecast(dt), frame.ego, rig)
        if frame.index == 0:
            choice = warm(system, 0, forecast)
        else:
            inputs = planning_inputs(forecast)
            if reusable is not None and reusable[0] == inputs:
                choice = reusable[1]
            else:
                choice = choose(system, frame.index, forecast)
            reusable = (inputs, choice) if choice[1] is not None else None
        rows, plan, decision = choice

        # the planner's price of the frame that ran, which the device realizes;
        # without a plan, the true update cost stands in for the predicted one
        marginal = assignment_latency(rows, lats, system.alpha)
        update_true_ms = true_update.predict(len(forecast.boxes))
        actual = realized_latency(marginal, fixed_ms, update_true_ms,
                                  system.latency_noise_sigma, lat_rng)
        update_ms = plan.update_pred_ms if plan is not None else update_true_ms
        uniform = plan.uniform_decision if plan is not None else None
        log = FrameLog(
            index=frame.index,
            gt=frame.gt,
            forecast=forecast,
            assignment=tuple(branches[r].index for r in rows),
            predicted_objective=decision.predicted_objective if decision is not None else None,
            uniform_objective=uniform.predicted_objective if uniform is not None else None,
            predicted_marginal_ms=marginal,
            t_max_ms=plan.t_max_ms if plan is not None else None,
            predicted_frame_ms=marginal + fixed_ms + update_ms,
            actual_ms=actual,
            compliant=actual <= system.target_ms + 1e-9,
            outputs=forecast.boxes,  # a frame with no detector emits its forecast
        )
        frame_logs.append(log)

        detected = is_detector[rows]  # per view: did a detector run there
        observed = detected[forecast.views]
        detections = NO_BOXES
        if detected.any():
            detections = concat_boxes([
                synth_detect(branches[r], log.gt_by_view[j], system.capability, det_rngs[j],
                             rig.sectors[j], scenario.despawn_radius_m)
                if detected[j] else NO_BOXES
                for j, r in enumerate(rows)
            ])
            log.outputs = concat_boxes((detections, forecast.boxes.take(~observed)))
        tracker.step(detections.moved(frame.ego, GLOBAL_FRAME), observed)

    # every frame at once: its outputs against its ground truth in the scene's
    # order, not split by view, as that order breaks distance ties
    summary = summarize(evaluate_pairs([(log.outputs, log.gt) for log in frame_logs]))
    n_sched = max(len(frame_logs) - 1, 0)
    n_ok = sum(1 for f in frame_logs[1:] if f.compliant)
    summary["latency"] = {
        "frames": len(frame_logs),
        "scheduled_frames": n_sched,
        "compliant_frames": n_ok,
        "compliance": (n_ok / n_sched) if n_sched else 1.0,
        "mean_actual_ms": float(np.mean([f.actual_ms for f in frame_logs])),
        "target_ms": system.target_ms,
    }
    return EpisodeLog(
        scenario=scenario,
        policy=policy,
        frames=frame_logs,
        summary=summary,
    )
