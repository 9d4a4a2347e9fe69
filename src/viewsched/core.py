"""Shared geometry and category types.

Everything downstream (tracker, simulator, metrics, scheduler features) speaks
in terms of the types defined here: 3D boxes with velocity, ego poses, the
camera rig's angular sectors, and the 80-bin object category grid
(5 distance x 4 velocity x 4 size levels).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Category bin edges. Intervals are half-open [lo, hi); the last bin is open-ended.
DISTANCE_EDGES_M = (10.0, 20.0, 30.0, 40.0)
VELOCITY_EDGES_MPS = (0.2, 1.0, 5.0)
SIZE_EDGES_M3 = (1.0, 5.0, 15.0)

NUM_DISTANCE_LEVELS = len(DISTANCE_EDGES_M) + 1
NUM_VELOCITY_LEVELS = len(VELOCITY_EDGES_MPS) + 1
NUM_SIZE_LEVELS = len(SIZE_EDGES_M3) + 1
NUM_CATEGORIES = NUM_DISTANCE_LEVELS * NUM_VELOCITY_LEVELS * NUM_SIZE_LEVELS


class ObjectClass(Enum):
    CAR = "car"
    TRUCK = "truck"
    BUS = "bus"
    PEDESTRIAN = "pedestrian"
    MOTORCYCLE = "motorcycle"
    BICYCLE = "bicycle"


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(angle, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class Box3D:
    """A 3D bounding box with velocity, in some ego (or global) frame.

    center : (x, y, z) m
    size   : (w, h, l) m, each > 0
    velocity : (vx, vy, vz) m/s, expressed in the same frame's axes
    yaw    : heading, radians in (-pi, pi]
    """

    center: Tuple[float, float, float]
    size: Tuple[float, float, float]
    velocity: Tuple[float, float, float]
    yaw: float
    cls: ObjectClass
    confidence: float

    def __post_init__(self) -> None:
        if min(self.size) <= 0.0:
            raise ValueError(f"box size must be positive, got {self.size}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def planar_distance(self) -> float:
        return math.hypot(self.center[0], self.center[1])

    @property
    def planar_speed(self) -> float:
        return math.hypot(self.velocity[0], self.velocity[1])

    @property
    def volume(self) -> float:
        w, h, l = self.size
        return w * h * l


@dataclass(frozen=True)
class EgoPose:
    """Planar ego pose in the global frame at time t."""

    x: float
    y: float
    yaw: float
    t: float


GLOBAL_FRAME = EgoPose(0.0, 0.0, 0.0, 0.0)


class CameraRig:
    """Angular sectors, one per camera view, partitioning [-pi, pi).

    Sectors are half-open [lo, hi) intervals; a sector with lo > hi wraps
    through +/-pi (the rear view of the default rig does).
    """

    def __init__(self, sectors: Sequence[Tuple[float, float]]):
        if not sectors:
            raise ValueError("rig needs at least one sector")
        self._sectors = tuple((float(lo), float(hi)) for lo, hi in sectors)
        self._validate_partition()
        lo, hi = np.array(self._sectors).T
        self._lo, self._hi = lo[:, None], hi[:, None]
        self._by_start = np.argsort(lo, kind="stable")
        self._starts = lo[self._by_start]

    @classmethod
    def default(cls, view_count: int = 6) -> "CameraRig":
        """Evenly split rig; view 0 is centered on the +x axis."""
        if view_count < 1:
            raise ValueError("view_count must be >= 1")
        width = TWO_PI / view_count
        sectors = []
        for k in range(view_count):
            lo = -width / 2.0 + k * width
            hi = lo + width
            # keep bounds inside [-pi, pi) so wrap handling stays localized
            lo_w = math.remainder(lo, TWO_PI)
            hi_w = math.remainder(hi, TWO_PI)
            if lo_w >= math.pi:
                lo_w -= TWO_PI
            if hi_w >= math.pi:
                hi_w -= TWO_PI
            sectors.append((lo_w, hi_w))
        return cls(sectors)

    @property
    def view_count(self) -> int:
        return len(self._sectors)

    @property
    def sectors(self) -> Tuple[Tuple[float, float], ...]:
        return self._sectors

    def _width(self, sector: Tuple[float, float]) -> float:
        lo, hi = sector
        w = hi - lo
        if w <= 0.0:
            w += TWO_PI
        return w

    def _validate_partition(self) -> None:
        total = sum(self._width(s) for s in self._sectors)
        if abs(total - TWO_PI) > 1e-9:
            raise ValueError(f"sectors must cover 2*pi, got total width {total}")
        # each angle must land in exactly one sector
        starts = sorted(self._sectors, key=lambda s: s[0])
        for (lo_a, hi_a), (lo_b, _) in zip(starts, starts[1:]):
            end = hi_a if hi_a > lo_a else hi_a + TWO_PI
            if abs(end - lo_b) > 1e-9:
                raise ValueError("sectors overlap or leave gaps")

    def view_of_angle(self, angle: float) -> int:
        a = wrap_angle(angle)
        if a == math.pi:  # sectors live on [-pi, pi)
            a = -math.pi
        for idx, (lo, hi) in enumerate(self._sectors):
            if lo < hi:
                if lo <= a < hi:
                    return idx
            else:  # wrapped sector
                if a >= lo or a < hi:
                    return idx
        # Partition validation tolerates 1e-9 of construction rounding between
        # adjacent edges, so an angle can fall into a float-width gap no sector
        # covers exactly. Claim the sector whose start is nearest at-or-below
        # the angle (wrapping below the smallest start), which agrees with the
        # exact rule everywhere else.
        order = sorted(range(len(self._sectors)), key=lambda i: self._sectors[i][0])
        best = order[-1]
        for i in order:
            if self._sectors[i][0] <= a:
                best = i
            else:
                break
        return best

    def views_of_angles(self, angles: np.ndarray) -> np.ndarray:
        """`view_of_angle` of every angle at once, float-gap fallback included."""
        a = np.fmod(np.asarray(angles, dtype=np.float64), TWO_PI)
        a = np.where(a <= -math.pi, a + TWO_PI, np.where(a > math.pi, a - TWO_PI, a))
        a[a == math.pi] = -math.pi
        lo, hi = self._lo, self._hi
        inside = np.where(lo < hi, (lo <= a) & (a < hi), (a >= lo) | (a < hi))
        below = self._by_start[np.searchsorted(self._starts, a, side="right") - 1]
        return np.where(inside.any(axis=0), inside.argmax(axis=0), below)


def view_of(center: Tuple[float, float, float], rig: CameraRig) -> int:
    """View index whose sector contains the box center's bearing."""
    return rig.view_of_angle(math.atan2(center[1], center[0]))


# Box rows: boxes as arrays, one row each, laid out as (x, y, z, vx, vy, vz,
# w, h, l) like the tracker's state. The functions below give the same bits
# as their per-box counterparts; bearings and planar norms go through `math`
# by `math_map`, as NumPy's atan2 and hypot do not always match `math`'s.


def math_map(fn, *columns: np.ndarray) -> np.ndarray:
    """A `math` function of array columns, element by element, as a float array."""
    return np.array(list(map(fn, *(c.tolist() for c in columns))), dtype=np.float64)


def views_of(rows: np.ndarray, rig: CameraRig) -> np.ndarray:
    """`view_of` of every row's center."""
    return rig.views_of_angles(math_map(math.atan2, rows[:, 1], rows[:, 0]))


def group_by_view(items: Sequence, views: np.ndarray, view_count: int) -> Tuple[tuple, ...]:
    """`items` split by their views (`views_of` of their rows), in order."""
    groups: List[list] = [[] for _ in range(view_count)]
    for item, view in zip(items, views.tolist()):
        groups[view].append(item)
    return tuple(map(tuple, groups))


@dataclass(frozen=True)
class CategoryLevel:
    """Discrete (distance, velocity, size) level triple."""

    distance_level: int
    velocity_level: int
    size_level: int

    def __post_init__(self) -> None:
        if not 0 <= self.distance_level < NUM_DISTANCE_LEVELS:
            raise ValueError(f"distance_level out of range: {self.distance_level}")
        if not 0 <= self.velocity_level < NUM_VELOCITY_LEVELS:
            raise ValueError(f"velocity_level out of range: {self.velocity_level}")
        if not 0 <= self.size_level < NUM_SIZE_LEVELS:
            raise ValueError(f"size_level out of range: {self.size_level}")

    @property
    def index(self) -> int:
        """Flat index into the 80-bin grid; distance varies fastest."""
        return (
            self.distance_level
            + NUM_DISTANCE_LEVELS * self.velocity_level
            + NUM_DISTANCE_LEVELS * NUM_VELOCITY_LEVELS * self.size_level
        )


def categorize(box: Box3D) -> CategoryLevel:
    """Assign a box to its category levels.

    Distance and speed are planar (x, y); size uses full box volume.
    Bin intervals are half-open, so a value exactly on an edge belongs to
    the higher bin (e.g. distance 10.0 -> level 1).
    """
    return CategoryLevel(
        distance_level=bisect_right(DISTANCE_EDGES_M, box.planar_distance),
        velocity_level=bisect_right(VELOCITY_EDGES_MPS, box.planar_speed),
        size_level=bisect_right(SIZE_EDGES_M3, box.volume),
    )


def category_indices(rows: np.ndarray) -> np.ndarray:
    """`categorize(box).index` of every box row."""
    distance = math_map(math.hypot, rows[:, 0], rows[:, 1])
    speed = math_map(math.hypot, rows[:, 3], rows[:, 4])
    volume = rows[:, 6] * rows[:, 7] * rows[:, 8]
    return (
        np.searchsorted(DISTANCE_EDGES_M, distance, side="right")
        + NUM_DISTANCE_LEVELS * np.searchsorted(VELOCITY_EDGES_MPS, speed, side="right")
        + NUM_DISTANCE_LEVELS
        * NUM_VELOCITY_LEVELS
        * np.searchsorted(SIZE_EDGES_M3, volume, side="right")
    )


def distribution(rows: np.ndarray, views: np.ndarray, view_count: int) -> np.ndarray:
    """Per-view category distributions for a set of box rows (one ego frame),
    as a (view_count, 80) array.

    `views` holds each row's view. A view with no boxes gets an all-zero row.
    Each object contributes 1/count to its category bin within its view, so
    every non-empty row sums to 1 exactly up to float rounding.
    """
    cells = np.asarray(views, dtype=np.int64) * NUM_CATEGORIES + category_indices(rows)
    counts = np.bincount(cells, minlength=view_count * NUM_CATEGORIES).astype(np.float64)
    counts = counts.reshape(view_count, NUM_CATEGORIES)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)


def ego_transform(box: Box3D, from_pose: EgoPose, to_pose: EgoPose) -> Box3D:
    """Re-express a box given in `from_pose`'s frame in `to_pose`'s frame.

    Planar rigid transform: center translates and rotates, velocity and yaw
    rotate (velocity is a free vector; no ego-motion subtraction), z and size
    pass through.
    """
    nx, ny, nvx, nvy = _planar_transform(
        box.center[0], box.center[1], box.velocity[0], box.velocity[1], from_pose, to_pose
    )
    return Box3D(
        center=(nx, ny, box.center[2]),
        size=box.size,
        velocity=(nvx, nvy, box.velocity[2]),
        yaw=wrap_angle(box.yaw + from_pose.yaw - to_pose.yaw),
        cls=box.cls,
        confidence=box.confidence,
    )


def _planar_transform(x, y, vx, vy, from_pose: EgoPose, to_pose: EgoPose):
    """`ego_transform`'s planar arithmetic, on floats or elementwise on arrays.

    Both evaluate the same float operations in the same order, so a box row
    and a `Box3D` move to the same bits.
    """
    cf, sf = math.cos(from_pose.yaw), math.sin(from_pose.yaw)
    gx = from_pose.x + cf * x - sf * y
    gy = from_pose.y + sf * x + cf * y
    gvx = cf * vx - sf * vy
    gvy = sf * vx + cf * vy

    ct, st = math.cos(to_pose.yaw), math.sin(to_pose.yaw)
    dx, dy = gx - to_pose.x, gy - to_pose.y
    nx = ct * dx + st * dy
    ny = -st * dx + ct * dy
    nvx = ct * gvx + st * gvy
    nvy = -st * gvx + ct * gvy
    return nx, ny, nvx, nvy


def rows_to_ego(rows: np.ndarray, pose: EgoPose) -> np.ndarray:
    """`box_to_ego` of every global-frame box row."""
    out = np.array(rows, dtype=np.float64)
    out[:, 0], out[:, 1], out[:, 3], out[:, 4] = _planar_transform(
        out[:, 0], out[:, 1], out[:, 3], out[:, 4], GLOBAL_FRAME, pose
    )
    return out


def ego_boxes(
    rows: np.ndarray,
    yaws: Iterable[float],
    classes: Iterable[ObjectClass],
    confidences: Iterable[float],
    pose: EgoPose,
) -> Tuple[Box3D, ...]:
    """The boxes of `rows_to_ego(global_rows, pose)`, each equal to `box_to_ego`
    of its global box; `yaws` are the global headings."""
    return tuple(
        Box3D(
            center=(x, y, z),
            size=(w, h, l),
            velocity=(vx, vy, vz),
            yaw=wrap_angle(wrap_angle(yaw) + GLOBAL_FRAME.yaw - pose.yaw),
            cls=cls,
            confidence=confidence,
        )
        for (x, y, z, vx, vy, vz, w, h, l), yaw, cls, confidence
        in zip(rows.tolist(), yaws, classes, confidences)
    )


def box_to_global(box: Box3D, pose: EgoPose) -> Box3D:
    """Lift an ego-frame box into the global frame."""
    return ego_transform(box, pose, GLOBAL_FRAME)


def box_to_ego(box: Box3D, pose: EgoPose) -> Box3D:
    """Project a global-frame box into an ego frame."""
    return ego_transform(box, GLOBAL_FRAME, pose)
