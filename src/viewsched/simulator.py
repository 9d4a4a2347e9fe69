"""Deterministic scene simulation and the synthetic detection oracle.

A scenario is a seeded world of point-ish objects with extent moving at
roughly constant velocity around a moving ego. Detector branches are stood in
for by a capability profile: per (branch, object category) recall and noise
levels plus a false-positive rate, calibrated so the relative trends between
branches (far-object recall gap, fused-velocity error gap) match the system
being modeled while every absolute number stays synthetic.

`run_episode` closes the loop: forecast the tracks once, schedule, synthesize
detections for the views that got a detector, step the tracker on the same
forecast, account latency, evaluate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .branches import (
    BackboneKind,
    BranchConfig,
    DepthNetKind,
    DeviceProfile,
    branch_latency,
    fixed_latency,
)
from .core import (
    NUM_DISTANCE_LEVELS,
    NUM_SIZE_LEVELS,
    NUM_VELOCITY_LEVELS,
    Box3D,
    CameraRig,
    CategoryLevel,
    EgoPose,
    ObjectClass,
    box_to_ego,
    box_to_global,
    categorize,
    distribution,  # not called here; perfbench traces calls under this name
    view_of,
    wrap_angle,
)
from .metrics import FrameEval, evaluate_frame, summarize
from .predictors import LinearLatencyModel, PerformanceModels
from .scheduler import (
    FrameForecast,
    FramePlan,
    ScheduleDecision,
    assignment_latency,
    frame_forecast,
    schedule_frame,
)
from .tracker import MultiObjectTracker, forecast_all


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
        # waypoints, constant speed, stop at the end
        pts = self.points
        dist = self.speed_mps * t
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            seg = math.hypot(x1 - x0, y1 - y0)
            heading = math.atan2(y1 - y0, x1 - x0)
            if dist <= seg or (x1, y1) == pts[-1]:
                f = min(dist / seg, 1.0) if seg > 0 else 0.0
                return EgoPose(x0 + f * (x1 - x0), y0 + f * (y1 - y0), heading, t)
            dist -= seg
        x, y = pts[-1]
        return EgoPose(x, y, 0.0, t)

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
    def from_dict(cls, data: Mapping) -> "EgoPath":
        return cls(
            kind=data.get("kind", "straight"),
            speed_mps=float(data.get("speed_mps", 4.0)),
            heading_rad=float(data.get("heading_rad", 0.0)),
            radius_m=float(data.get("radius_m", 20.0)),
            points=tuple((float(x), float(y)) for x, y in data.get("points", [])),
        )


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
        if self.fps <= 0 or self.duration_s <= 0:
            raise ValueError("fps and duration must be positive")
        if self.world_radius_m <= 0 or self.despawn_radius_m < self.world_radius_m:
            raise ValueError("need 0 < world radius <= despawn radius")
        if self.spawn_rate_per_s < 0 or self.initial_count < 0:
            raise ValueError("spawn rate and initial count must be non-negative")
        if self.velocity_jitter < 0 or self.turn_rate_max_rps < 0:
            raise ValueError("velocity jitter and turn rate must be non-negative")
        total = sum(self.class_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class mix weights must sum to 1, got {total}")
        for cls_, rng_ in self.speed_ranges.items():
            if rng_[0] < 0 or rng_[1] < rng_[0]:
                raise ValueError(f"bad speed range for {cls_.value}: {rng_}")

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.fps))

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "fps": self.fps,
            "world_radius_m": self.world_radius_m,
            "despawn_radius_m": self.despawn_radius_m,
            "spawn_rate_per_s": self.spawn_rate_per_s,
            "initial_count": self.initial_count,
            "velocity_jitter": self.velocity_jitter,
            "turn_rate_max_rps": self.turn_rate_max_rps,
            "class_mix": {c.value: w for c, w in self.class_mix.items()},
            "speed_ranges": {c.value: list(r) for c, r in self.speed_ranges.items()},
            "ego": self.ego.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        return cls(
            seed=int(data["seed"]),
            duration_s=float(data.get("duration_s", 6.0)),
            fps=float(data.get("fps", 10.0)),
            world_radius_m=float(data.get("world_radius_m", 60.0)),
            despawn_radius_m=float(data.get("despawn_radius_m", 60.0)),
            spawn_rate_per_s=float(data.get("spawn_rate_per_s", 2.0)),
            initial_count=int(data.get("initial_count", 12)),
            velocity_jitter=float(data.get("velocity_jitter", 0.3)),
            turn_rate_max_rps=float(data.get("turn_rate_max_rps", 0.4)),
            class_mix={
                ObjectClass(k): float(v) for k, v in data.get("class_mix", {}).items()
            }
            or dict(_DEFAULT_MIX),
            speed_ranges={
                ObjectClass(k): (float(v[0]), float(v[1]))
                for k, v in data.get("speed_ranges", {}).items()
            }
            or dict(_DEFAULT_SPEEDS),
            ego=EgoPath.from_dict(data.get("ego", {})),
        )


@dataclass(frozen=True)
class GroundTruthFrame:
    index: int
    timestamp: float
    ego: EgoPose
    ids: Tuple[int, ...]
    boxes: Tuple[Box3D, ...]  # ego frame, parallel to ids


@dataclass
class _SimObject:
    obj_id: int
    cls: ObjectClass
    pos: np.ndarray  # (3,), global
    vel: np.ndarray  # (3,), global
    size: Tuple[float, float, float]
    yaw: float
    yaw_rate: float = 0.0  # velocity heading drifts at this rate


def _spawn_object(
    rng: np.random.Generator,
    config: ScenarioConfig,
    obj_id: int,
    center_xy: Tuple[float, float],
    radius: float,
    inward: bool,
) -> _SimObject:
    classes = sorted(config.class_mix, key=lambda c: c.value)
    weights = np.array([config.class_mix[c] for c in classes])
    cls = classes[int(rng.choice(len(classes), p=weights / weights.sum()))]
    angle = rng.uniform(-math.pi, math.pi)
    r = radius if inward else radius * math.sqrt(rng.uniform(0.02, 1.0))
    x = center_xy[0] + r * math.cos(angle)
    y = center_xy[1] + r * math.sin(angle)
    lo, hi = config.speed_ranges.get(cls, (0.0, 10.0))
    speed = rng.uniform(lo, hi)
    if inward:
        heading = wrap_angle(angle + math.pi + rng.uniform(-1.0, 1.0))
    else:
        heading = rng.uniform(-math.pi, math.pi)
    scale = float(np.clip(1.0 + rng.normal(0.0, 0.06), 0.8, 1.25))
    w, h, l = CLASS_DIMS[cls]
    size = (w * scale, h * scale, l * scale)
    yaw_rate = (
        rng.uniform(-config.turn_rate_max_rps, config.turn_rate_max_rps)
        if config.turn_rate_max_rps > 0
        else 0.0
    )
    return _SimObject(
        obj_id=obj_id,
        cls=cls,
        pos=np.array([x, y, size[1] / 2.0]),
        vel=np.array([speed * math.cos(heading), speed * math.sin(heading), 0.0]),
        size=size,
        yaw=heading,
        yaw_rate=yaw_rate,
    )


def generate_scenario(config: ScenarioConfig) -> List[GroundTruthFrame]:
    """Deterministic ground truth: same config (incl. seed) -> same frames.

    Objects hold velocity up to a seeded Gaussian per-frame perturbation,
    spawn at the world edge around the ego, and despawn once beyond the
    despawn radius from the ego.
    """
    rng = rng_stream(config.seed, "scenario")
    dt = config.dt
    objects: List[_SimObject] = []
    next_id = 1

    pose0 = config.ego.pose_at(0.0)
    for _ in range(config.initial_count):
        objects.append(
            _spawn_object(
                rng, config, next_id, (pose0.x, pose0.y), config.world_radius_m * 0.92, False
            )
        )
        next_id += 1

    frames: List[GroundTruthFrame] = []
    for i in range(config.frame_count):
        t = i / config.fps
        pose = config.ego.pose_at(t)
        if i > 0:
            sigma = config.velocity_jitter * dt
            for obj in objects:
                if obj.yaw_rate != 0.0:
                    a = obj.yaw_rate * dt
                    c, s = math.cos(a), math.sin(a)
                    vx, vy = obj.vel[0], obj.vel[1]
                    obj.vel[0] = c * vx - s * vy
                    obj.vel[1] = s * vx + c * vy
                if sigma > 0:
                    obj.vel[:2] += rng.normal(0.0, sigma, 2)
                obj.pos += obj.vel * dt
                sp = math.hypot(obj.vel[0], obj.vel[1])
                if sp > 0.1:
                    obj.yaw = math.atan2(obj.vel[1], obj.vel[0])
            objects = [
                o
                for o in objects
                if math.hypot(o.pos[0] - pose.x, o.pos[1] - pose.y) <= config.despawn_radius_m
            ]
            for _ in range(int(rng.poisson(config.spawn_rate_per_s * dt))):
                objects.append(
                    _spawn_object(
                        rng,
                        config,
                        next_id,
                        (pose.x, pose.y),
                        config.world_radius_m * 0.999,
                        True,
                    )
                )
                next_id += 1

        ids = []
        boxes = []
        for o in objects:
            global_box = Box3D(
                center=(float(o.pos[0]), float(o.pos[1]), float(o.pos[2])),
                size=o.size,
                velocity=(float(o.vel[0]), float(o.vel[1]), float(o.vel[2])),
                yaw=o.yaw,
                cls=o.cls,
                confidence=1.0,
            )
            ids.append(o.obj_id)
            boxes.append(box_to_ego(global_box, pose))
        frames.append(
            GroundTruthFrame(
                index=i, timestamp=t, ego=pose, ids=tuple(ids), boxes=tuple(boxes)
            )
        )
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


_MODIFIER_KEYS = ("sparse_plain", "sparse_fused", "dense_plain", "dense_fused")


class CapabilityProfile:
    """Synthetic detector capability tables, parameterized per branch family.

    Recall depends on (backbone, distance level); noise sigmas factor into a
    per-level base times branch-family modifiers. Ordering constraints are
    validated on construction: recall never improves with distance, bigger
    backbones never have worse recall, and the dense depth head never has
    worse position noise than the sparse one. Profiles that declare ratio
    anchors additionally pin the far-distance recall ratio and the
    fused-vs-plain velocity-noise ratio.
    """

    def __init__(
        self,
        name: str,
        recall_by_backbone: Mapping[str, Sequence[float]],
        pos_base: Sequence[float],
        pos_backbone_factor: Mapping[str, float],
        pos_dense_factor: float,
        vel_base: Sequence[float],
        vel_distance_factor: Sequence[float],
        vel_modifiers: Mapping[str, float],
        size_base: Sequence[float],
        size_backbone_factor: Mapping[str, float],
        fp_rate_by_backbone: Mapping[str, float],
        confidence: ConfidenceParams = ConfidenceParams(),
        ratio_anchors: Optional[Mapping[str, float]] = None,
    ):
        self.name = name
        self.recall_by_backbone = {k: tuple(float(x) for x in v) for k, v in recall_by_backbone.items()}
        self.pos_base = tuple(float(x) for x in pos_base)
        self.pos_backbone_factor = {k: float(v) for k, v in pos_backbone_factor.items()}
        self.pos_dense_factor = float(pos_dense_factor)
        self.vel_base = tuple(float(x) for x in vel_base)
        self.vel_distance_factor = tuple(float(x) for x in vel_distance_factor)
        self.vel_modifiers = {k: float(vel_modifiers[k]) for k in _MODIFIER_KEYS}
        self.size_base = tuple(float(x) for x in size_base)
        self.size_backbone_factor = {k: float(v) for k, v in size_backbone_factor.items()}
        self.fp_rate_by_backbone = {k: float(v) for k, v in fp_rate_by_backbone.items()}
        self.confidence = confidence
        self.ratio_anchors = dict(ratio_anchors) if ratio_anchors else None
        self.validate()

    # lookups take the real BranchConfig so callers cannot mix up families

    def recall(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        return self.recall_by_backbone[branch.backbone.key][level.distance_level]

    def sigma_pos(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        s = self.pos_base[level.distance_level] * self.pos_backbone_factor[branch.backbone.key]
        if branch.depthnet is DepthNetKind.DENSE:
            s *= self.pos_dense_factor
        return s

    def sigma_vel(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        key = ("dense" if branch.depthnet is DepthNetKind.DENSE else "sparse") + (
            "_fused" if branch.temporal_fusion else "_plain"
        )
        return (
            self.vel_base[level.velocity_level]
            * self.vel_distance_factor[level.distance_level]
            * self.vel_modifiers[key]
        )

    def sigma_size(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        return self.size_base[level.size_level] * self.size_backbone_factor[branch.backbone.key]

    def fp_rate(self, branch: BranchConfig) -> float:
        self._require_detection(branch)
        return self.fp_rate_by_backbone[branch.backbone.key]

    @staticmethod
    def _require_detection(branch: BranchConfig) -> None:
        if branch.is_tracker:
            raise ValueError("the tracker branch has no detector capability")

    def validate(self) -> None:
        keys = [b.key for b in BackboneKind]
        # the lookups below index every backbone and every level `categorize` returns
        by_backbone = {
            "recall_by_backbone": self.recall_by_backbone,
            "position_sigma.backbone_factor": self.pos_backbone_factor,
            "size_sigma.backbone_factor": self.size_backbone_factor,
            "false_positives.rate_by_backbone": self.fp_rate_by_backbone,
        }
        for table, values in by_backbone.items():
            missing = [k for k in keys if k not in values]
            if missing:
                raise CapabilityError(f"{table} is missing backbone {missing[0]}")
        by_level = {
            "position_sigma.base_by_distance": (self.pos_base, NUM_DISTANCE_LEVELS),
            "velocity_sigma.distance_factor": (self.vel_distance_factor, NUM_DISTANCE_LEVELS),
            "velocity_sigma.base_by_vlevel": (self.vel_base, NUM_VELOCITY_LEVELS),
            "size_sigma.base_by_slevel": (self.size_base, NUM_SIZE_LEVELS),
            **{f"recall_by_backbone.{k}": (self.recall_by_backbone[k], NUM_DISTANCE_LEVELS)
               for k in keys},
        }
        for table, (values, levels) in by_level.items():
            if len(values) != levels:
                raise CapabilityError(f"{table} needs {levels} entries, got {len(values)}")
        for k in keys:
            row = self.recall_by_backbone[k]
            if any(not 0.0 <= p <= 1.0 for p in row):
                raise CapabilityError(f"recall out of [0,1] for {k}")
            # (a) recall never improves with distance
            if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise CapabilityError(f"recall must be non-increasing in distance for {k}")
        # (b) bigger backbone never worse, per distance level
        for d in range(len(self.pos_base)):
            col = [self.recall_by_backbone[k][d] for k in keys]
            if any(col[i] > col[i + 1] for i in range(len(col) - 1)):
                raise CapabilityError(f"backbone recall ordering violated at distance level {d}")
        if any(s < 0 for s in self.pos_base + self.vel_base + self.size_base):
            raise CapabilityError("noise sigmas must be non-negative")
        if any(v < 0 for v in self.vel_distance_factor):
            raise CapabilityError("velocity distance factors must be non-negative")
        # (e) dense never worse than sparse for position noise
        if self.pos_dense_factor > 1.0:
            raise CapabilityError("dense depth head must not increase position noise")
        for k in _MODIFIER_KEYS:
            if self.vel_modifiers[k] < 0:
                raise CapabilityError("velocity modifiers must be non-negative")
        if any(self.fp_rate_by_backbone[k] < 0 for k in keys):
            raise CapabilityError("false-positive rates must be non-negative")
        c = self.confidence
        if not (0.0 <= c.clip_lo < c.clip_hi <= 1.0):
            raise CapabilityError("confidence clip bounds must satisfy 0 <= lo < hi <= 1")

        if self.ratio_anchors:
            far = len(self.pos_base) - 2  # the anchored far bin (one below open-ended)
            want = self.ratio_anchors.get("recall_far_ratio")
            if want is not None:
                small = self.recall_by_backbone[keys[0]][far]
                big = self.recall_by_backbone[keys[-1]][far]
                if small <= 0 or abs(big / small - want) > 0.01:
                    raise CapabilityError(
                        f"far-bin recall ratio {big}/{small} misses anchor {want}"
                    )
            want = self.ratio_anchors.get("vel_fused_ratio")
            if want is not None:
                got = self.vel_modifiers["sparse_plain"] / self.vel_modifiers["dense_fused"]
                if abs(got - want) > 0.01:
                    raise CapabilityError(
                        f"velocity modifier ratio {got:.3f} misses anchor {want}"
                    )

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "recall_by_backbone": {"synthetic": True, **{k: list(v) for k, v in self.recall_by_backbone.items()}},
            "position_sigma": {
                "synthetic": True,
                "base_by_distance": list(self.pos_base),
                "backbone_factor": dict(self.pos_backbone_factor),
                "dense_factor": self.pos_dense_factor,
            },
            "velocity_sigma": {
                "synthetic": True,
                "base_by_vlevel": list(self.vel_base),
                "distance_factor": list(self.vel_distance_factor),
            },
            "velocity_modifiers": {"synthetic": False, **dict(self.vel_modifiers)},
            "size_sigma": {
                "synthetic": True,
                "base_by_slevel": list(self.size_base),
                "backbone_factor": dict(self.size_backbone_factor),
            },
            "false_positives": {"synthetic": True, "rate_by_backbone": dict(self.fp_rate_by_backbone)},
            "confidence": {
                "synthetic": True,
                "tp_mean": self.confidence.tp_mean,
                "tp_sd": self.confidence.tp_sd,
                "fp_mean": self.confidence.fp_mean,
                "fp_sd": self.confidence.fp_sd,
                "clip_lo": self.confidence.clip_lo,
                "clip_hi": self.confidence.clip_hi,
            },
            "ratio_anchors": (
                {"synthetic": False, **self.ratio_anchors} if self.ratio_anchors else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CapabilityProfile":
        def block(name: str) -> dict:
            b = dict(data[name])
            b.pop("synthetic", None)
            return b

        try:
            conf = block("confidence")
            anchors = data.get("ratio_anchors")
            if anchors:
                anchors = {k: v for k, v in anchors.items() if k != "synthetic"}
            return cls(
                name=data["name"],
                recall_by_backbone=block("recall_by_backbone"),
                pos_base=data["position_sigma"]["base_by_distance"],
                pos_backbone_factor=data["position_sigma"]["backbone_factor"],
                pos_dense_factor=data["position_sigma"]["dense_factor"],
                vel_base=data["velocity_sigma"]["base_by_vlevel"],
                vel_distance_factor=data["velocity_sigma"]["distance_factor"],
                vel_modifiers=block("velocity_modifiers"),
                size_base=data["size_sigma"]["base_by_slevel"],
                size_backbone_factor=data["size_sigma"]["backbone_factor"],
                fp_rate_by_backbone=data["false_positives"]["rate_by_backbone"],
                confidence=ConfidenceParams(**conf),
                ratio_anchors=anchors,
            )
        except (KeyError, TypeError) as exc:
            raise CapabilityError(f"malformed capability profile: {exc}") from exc


def default_capability() -> CapabilityProfile:
    """The bundled capability profile (ratio anchors included)."""
    text = resources.files("viewsched").joinpath("data/capability_default.json").read_text("utf-8")
    return CapabilityProfile.from_dict(json.loads(text))


def perfect_capability() -> CapabilityProfile:
    """Recall 1, zero noise, no false positives; for oracle-bound tests."""
    ones = [1.0] * 5
    return CapabilityProfile(
        name="perfect",
        recall_by_backbone={b.key: ones for b in BackboneKind},
        pos_base=[0.0] * 5,
        pos_backbone_factor={b.key: 1.0 for b in BackboneKind},
        pos_dense_factor=1.0,
        vel_base=[0.0] * 4,
        vel_distance_factor=[1.0] * 5,
        vel_modifiers={k: 1.0 for k in _MODIFIER_KEYS},
        size_base=[0.0] * 4,
        size_backbone_factor={b.key: 1.0 for b in BackboneKind},
        fp_rate_by_backbone={b.key: 0.0 for b in BackboneKind},
        confidence=ConfidenceParams(tp_mean=0.9, tp_sd=0.0, fp_mean=0.3, fp_sd=0.0),
    )


# -- synthetic detection -------------------------------------------------------


def synth_detect(
    branch: BranchConfig,
    boxes: Sequence[Box3D],
    capability: CapabilityProfile,
    rng: np.random.Generator,
    sector: Tuple[float, float],
    max_range_m: float = 60.0,
) -> List[Box3D]:
    """Stand-in for running one detector branch on one view.

    Each ground-truth box survives with its category recall, then gets
    position/velocity/size noise per the profile; Poisson false positives are
    placed uniformly over the sector's area. Deterministic given the rng
    stream. The tracker branch detects nothing by definition.
    """
    if branch.is_tracker:
        raise ValueError("synth_detect is undefined for the tracker branch")
    out: List[Box3D] = []
    for box in boxes:
        level = categorize(box)
        if rng.random() >= capability.recall(branch, level):
            continue
        sp = capability.sigma_pos(branch, level)
        sv = capability.sigma_vel(branch, level)
        ss = capability.sigma_size(branch, level)
        dx, dy = (rng.normal(0.0, sp, 2) if sp > 0 else (0.0, 0.0))
        dvx, dvy = (rng.normal(0.0, sv, 2) if sv > 0 else (0.0, 0.0))
        dsize = rng.normal(0.0, ss, 3) if ss > 0 else np.zeros(3)
        size = tuple(max(float(s + d), 0.05) for s, d in zip(box.size, dsize))
        c = capability.confidence
        conf = float(np.clip(rng.normal(c.tp_mean, c.tp_sd) if c.tp_sd > 0 else c.tp_mean,
                             c.clip_lo, c.clip_hi))
        out.append(
            Box3D(
                center=(box.center[0] + float(dx), box.center[1] + float(dy), box.center[2]),
                size=size,  # type: ignore[arg-type]
                velocity=(box.velocity[0] + float(dvx), box.velocity[1] + float(dvy), box.velocity[2]),
                yaw=box.yaw,
                cls=box.cls,
                confidence=conf,
            )
        )

    lam = capability.fp_rate(branch)
    n_fp = int(rng.poisson(lam)) if lam > 0 else 0
    lo, hi = sector
    width = hi - lo
    if width <= 0:
        width += 2.0 * math.pi
    classes = sorted(CLASS_DIMS, key=lambda c_: c_.value)
    for _ in range(n_fp):
        r = math.sqrt(rng.uniform((2.0 / max_range_m) ** 2, 1.0)) * max_range_m
        theta = wrap_angle(lo + rng.uniform(0.0, width))
        cls_ = classes[int(rng.integers(0, len(classes)))]
        dims = CLASS_DIMS[cls_]
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.0, 3.0)
        c = capability.confidence
        conf = float(np.clip(rng.normal(c.fp_mean, c.fp_sd) if c.fp_sd > 0 else c.fp_mean,
                             c.clip_lo, c.clip_hi))
        out.append(
            Box3D(
                center=(r * math.cos(theta), r * math.sin(theta), dims[1] / 2.0),
                size=dims,
                velocity=(speed * math.cos(heading), speed * math.sin(heading), 0.0),
                yaw=heading,
                cls=cls_,
                confidence=conf,
            )
        )
    return out


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
    if margin_ms >= target_ms:
        raise ValueError("margin must leave a positive scheduling target")


@dataclass
class FrameLog:
    index: int
    timestamp: float
    warmup: bool
    ego: EgoPose
    gt_by_view: Tuple[Tuple[Box3D, ...], ...]  # ego frame
    forecast: FrameForecast  # the tracks forecast into this frame, placed in views
    assignment: Tuple[int, ...]  # catalog branch index per view
    predicted_objective: Optional[float]
    uniform_objective: Optional[float]  # best single-branch counterfactual
    predicted_marginal_ms: Optional[float]
    t_max_ms: Optional[float]
    update_pred_ms: Optional[float]
    predicted_frame_ms: Optional[float]
    actual_ms: float
    compliant: bool
    detections: Tuple[Tuple[Box3D, ...], ...]  # per view, ego frame
    outputs: Tuple[Box3D, ...]  # what the system emitted downstream
    track_ids: Tuple[int, ...]


@dataclass
class EpisodeLog:
    scenario: ScenarioConfig
    policy: str
    target_ms: float
    branch_indices: Tuple[int, ...]  # deployed catalog subset
    frames: List[FrameLog]
    summary: dict

    @property
    def scheduled_frames(self) -> List[FrameLog]:
        return [f for f in self.frames if not f.warmup]

    @property
    def compliance(self) -> float:
        return self.summary["latency"]["compliance"]


_POLICIES = ("adaptive", "per_frame", "round_robin", "all_tracker")


def _true_update_model(device: DeviceProfile) -> LinearLatencyModel:
    return LinearLatencyModel(
        slope_ms_per_track=device.update_slope_ms_per_track,
        intercept_ms=device.update_intercept_ms,
    )


def realized_latency(
    assignment_rows: Sequence[int],
    lats: np.ndarray,
    fixed_ms: float,
    update_ms: float,
    alpha: float,
    sigma: float,
    rng: Optional[np.random.Generator],
) -> float:
    """Simulated actual frame latency: the planner's price plus noise.

    The assignment is priced by `scheduler.assignment_latency`, the planner's
    one cost model, then the fixed modules and the true update cost are
    added. With sigma > 0 each of the three terms draws one multiplicative
    lognormal factor, in that order. With sigma = 0 no draws happen at all,
    so enabling noise elsewhere never shifts streams, and the result is
    exactly `predicted_marginal_ms + fixed_ms + update_ms`.
    """

    def noise() -> float:
        if sigma <= 0 or rng is None:
            return 1.0
        return float(np.exp(sigma * rng.standard_normal()))

    marginal = assignment_latency(assignment_rows, lats, alpha)
    return marginal * noise() + fixed_ms * noise() + update_ms * noise()


def run_episode(
    scenario: ScenarioConfig,
    system: SystemConfig,
    policy: str = "adaptive",
) -> EpisodeLog:
    """Closed loop over one scenario.

    Frame 0 is a warmup (no tracks exist yet to forecast from): the heaviest
    deployed detection branch covers every view, and the frame is excluded
    from compliance statistics. From frame 1 on, the configured policy picks
    the assignment: "adaptive" solves the per-view problem, "per_frame" takes
    the best single branch for all views, "fixed:<idx>" pins one branch,
    "round_robin" rotates detection branches while periodically resting views
    on the tracker (data collection sees fresh and stale forecasts), and
    "all_tracker" never detects (diagnostic).
    """
    fixed_idx: Optional[int] = None
    if policy.startswith("fixed:"):
        fixed_idx = int(policy.split(":", 1)[1])
    elif policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    needs_models = policy in ("adaptive", "per_frame")
    if needs_models and system.models is None:
        raise ValueError(f"policy {policy!r} needs trained models")

    frames = generate_scenario(scenario)
    rig = CameraRig.default()
    n_views = rig.view_count
    branches = system.branches
    det_rows = [r for r, b in enumerate(branches) if not b.is_tracker]
    row_by_index = {b.index: r for r, b in enumerate(branches)}
    if fixed_idx is not None and fixed_idx not in row_by_index:
        raise ValueError(f"branch {fixed_idx} is not in the deployed set")

    lats = np.array([branch_latency(b, system.device) for b in branches])
    heavy_row = max(det_rows, key=lambda r: lats[r]) if det_rows else 0
    tracker = MultiObjectTracker()
    true_update = _true_update_model(system.device)
    fixed_ms = fixed_latency(system.device)
    lat_rng = (
        rng_stream(scenario.seed, "latnoise") if system.latency_noise_sigma > 0 else None
    )
    det_rngs = [rng_stream(scenario.seed, f"detect/view{j}") for j in range(n_views)]

    dt = scenario.dt
    frame_logs: List[FrameLog] = []
    frame_evals: List[FrameEval] = []

    for frame in frames:
        # the frame's one forecast, placed in views once: the plan, the log,
        # the outputs of the tracker-branch views and the tracker's misses
        # all use it
        forecast = frame_forecast(forecast_all(tracker.tracks, dt, tracker.model), frame.ego, rig)
        plan: Optional[FramePlan] = None
        decision: Optional[ScheduleDecision] = None  # the plan's decision that runs
        warmup = frame.index == 0

        if warmup:
            rows = [heavy_row] * n_views
        elif policy == "adaptive" or policy == "per_frame":
            plan = schedule_frame(
                forecast,
                branches,
                system.device,
                system.models,
                system.target_ms - system.sched_margin_ms,
                system.alpha,
            )
            decision = plan.decision if policy == "adaptive" else plan.uniform_decision
            rows = list(decision.assignment) if decision is not None else [0] * n_views
        elif policy == "round_robin":
            # rest each view on the tracker 5 frames out of 12 so collected
            # forecast samples span fresh through several-frames-stale tracks
            rows = []
            for j in range(n_views):
                phase = (frame.index - 1 + 7 * j) % 12
                if phase < 5 or not det_rows:
                    rows.append(0)
                else:
                    rows.append(det_rows[(frame.index - 1 + 2 * j) % len(det_rows)])
        elif policy == "all_tracker":
            rows = [0] * n_views
        else:  # fixed branch
            rows = [row_by_index[fixed_idx]] * n_views

        assignment = tuple(branches[r].index for r in rows)
        covered = {j for j in range(n_views) if not branches[rows[j]].is_tracker}

        # ground truth per view (ego frame)
        gt_by_view: List[List[Box3D]] = [[] for _ in range(n_views)]
        for box in frame.boxes:
            gt_by_view[view_of(box.center, rig)].append(box)

        detections_by_view: List[Tuple[Box3D, ...]] = []
        for j in range(n_views):
            b = branches[rows[j]]
            if b.is_tracker:
                detections_by_view.append(())
                continue
            dets = synth_detect(
                b,
                gt_by_view[j],
                system.capability,
                det_rngs[j],
                rig.sectors[j],
                scenario.despawn_radius_m,
            )
            detections_by_view.append(tuple(dets))

        observed = np.isin(forecast.views, sorted(covered))
        outputs: List[Box3D] = []
        for dets in detections_by_view:
            outputs.extend(dets)
        outputs.extend(b for b, seen in zip(forecast.boxes(), observed) if not seen)

        detections_global = [
            box_to_global(d, frame.ego) for dets in detections_by_view for d in dets
        ]
        tracker.step(detections_global, dt, forecast.tracks, observed)

        update_true_ms = true_update.predict(len(forecast.tracks))
        actual = realized_latency(
            rows, lats, fixed_ms, update_true_ms, system.alpha, system.latency_noise_sigma, lat_rng
        )
        compliant = actual <= system.target_ms + 1e-9

        # the planner's view of the frame that ran; without a plan, the true
        # update cost stands in for the predicted one
        marginal = assignment_latency(rows, lats, system.alpha)
        update_ms = plan.update_pred_ms if plan is not None else update_true_ms
        uniform = plan.uniform_decision if plan is not None else None
        log = FrameLog(
            index=frame.index,
            timestamp=frame.timestamp,
            warmup=warmup,
            ego=frame.ego,
            gt_by_view=tuple(map(tuple, gt_by_view)),
            forecast=forecast,
            assignment=assignment,
            predicted_objective=decision.predicted_objective if decision is not None else None,
            uniform_objective=uniform.predicted_objective if uniform is not None else None,
            predicted_marginal_ms=marginal,
            t_max_ms=plan.t_max_ms if plan is not None else None,
            update_pred_ms=plan.update_pred_ms if plan is not None else None,
            predicted_frame_ms=marginal + fixed_ms + update_ms,
            actual_ms=actual,
            compliant=compliant,
            detections=tuple(detections_by_view),
            outputs=tuple(outputs),
            track_ids=tuple(t.track_id for t in tracker.tracks),
        )
        frame_logs.append(log)
        frame_evals.append(evaluate_frame(log.outputs, frame.boxes))

    summary = summarize(frame_evals)
    n_sched = max(len(frame_logs) - 1, 0)
    n_ok = sum(1 for f in frame_logs if not f.warmup and f.compliant)
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
        target_ms=system.target_ms,
        branch_indices=tuple(b.index for b in branches),
        frames=frame_logs,
        summary=summary,
    )
