"""Oracle for the row-array scenario generator.

`generate_scenario` moves every live object as one row of an array. The
functions in the first section are verbatim copies of the generator that came
before: one `_SimObject` per object, moved in a Python loop, and a global
`Box3D` per object per frame taken to the ego frame with `box_to_ego` (both
kept in `box_oracles`). They stay as the reference. Over seeds, jitter, turn
rates, ego paths and spawn rates, both must give the same ids, ego poses and
boxes, compared by `repr`, which also tells 0.0 from -0.0.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from box_oracles import Box3D, box_to_ego, to_boxes
from viewsched.core import EgoPose, ObjectClass, wrap_angle
from viewsched.simulator import (
    CLASS_DIMS,
    EgoPath,
    ScenarioConfig,
    generate_scenario,
    rng_stream,
)

# -- the earlier generator, verbatim -------------------------------------------


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
    lo, hi = config.speed_ranges[cls]
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


def _reference_generate_scenario(config: ScenarioConfig) -> List[GroundTruthFrame]:
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


# -- the oracle ---------------------------------------------------------------------

_EGO_PATHS = {
    "straight": EgoPath(kind="straight", speed_mps=6.0, heading_rad=0.7),
    "circular": EgoPath(kind="circular", speed_mps=8.0, radius_m=15.0),
    "waypoints": EgoPath(kind="waypoints", speed_mps=9.0,
                         points=((0.0, 0.0), (12.0, 0.0), (12.0, -20.0), (-5.0, 3.0))),
}


def _zero_or(positive):
    return st.one_of(st.just(0.0), positive)


@settings(max_examples=60, deadline=None)
@example(seed=0, jitter=0.0, turn=0.0, ego="straight", spawn=0.0, initial=0, parked=False)
@example(seed=3, jitter=0.3, turn=0.4, ego="waypoints", spawn=6.0, initial=0, parked=False)
@example(seed=1, jitter=0.0, turn=0.0, ego="circular", spawn=2.0, initial=12, parked=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    jitter=_zero_or(st.floats(0.05, 3.0)),
    turn=_zero_or(st.floats(0.01, 1.5)),
    ego=st.sampled_from(sorted(_EGO_PATHS)),
    spawn=_zero_or(st.floats(0.5, 12.0)),
    initial=st.integers(0, 20),
    parked=st.booleans(),
)
def test_row_generator_matches_the_per_object_generator(
    seed, jitter, turn, ego, spawn, initial, parked
):
    config = ScenarioConfig(
        seed=seed, duration_s=2.5, fps=10.0, world_radius_m=30.0, despawn_radius_m=32.0,
        spawn_rate_per_s=spawn, initial_count=initial, velocity_jitter=jitter,
        turn_rate_max_rps=turn, ego=_EGO_PATHS[ego],
    )
    if parked:  # every object starts with velocity components of +-0.0
        config = replace(config, speed_ranges={c: (0.0, 0.0) for c in ObjectClass})
    want = _reference_generate_scenario(config)
    got = generate_scenario(config)
    assert len(got) == len(want) == config.frame_count
    for g, w in zip(got, want):
        assert (g.index, g.ego.t, g.ids, g.ego) == (w.index, w.timestamp, w.ids, w.ego)
        assert repr(to_boxes(g.gt)) == repr(list(w.boxes))
        # the rows the views are placed from are the boxes' own numbers
        rows = [[*b.center, *b.velocity, *b.size] for b in w.boxes]
        assert repr(g.gt.rows.tolist()) == repr(rows)
