"""Shared geometry and category types.

Everything downstream (tracker, simulator, metrics, scheduler features) speaks
in terms of the types defined here: 3D boxes with velocity, ego poses, the
camera rig's angular sectors, and the 80-bin object category grid
(5 distance x 4 velocity x 4 size levels).

Boxes are rows, from the ground truth through detection and tracking to the
metrics: one (n, 9) float64 array laid out as (x, y, z, vx, vy, vz, w, h, l),
the tracker's state layout, with the class codes and confidences in parallel
arrays (`BoxRows`). Bearings and planar norms go through `math` by
`math_map`, as NumPy's atan2 and hypot do not always round as `math`'s do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Tuple

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
        # every sector test, and the fallback's search over starts, is
        # constant between consecutive bounds, so the view of each bound
        # holds up to the next
        lo, hi = np.array(self._sectors).T
        self._bounds = np.sort(np.concatenate([lo, hi, [-math.pi]]))
        self._bound_views = _views_by_rule(lo, hi, self._bounds)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def default(cls, view_count: int = 6) -> "CameraRig":
        """Evenly split rig; view 0 is centered on the +x axis. One rig per
        view count is built and shared."""
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

    def views_of_angles(self, angles: np.ndarray) -> np.ndarray:
        """The view of every angle: the sector that holds it, looked up in
        the bounds compiled at construction.

        Partition validation tolerates 1e-9 of construction rounding between
        adjacent edges, so an angle can fall into a float-width gap no sector
        covers exactly, or into an overlap two sectors cover. It goes to the
        first listed sector that holds it, else to the sector whose start is
        nearest at-or-below it (wrapping below the smallest start), which
        agrees with the exact rule everywhere else.
        """
        a = wrap_angles(angles)
        a[a == math.pi] = -math.pi  # sectors live on [-pi, pi)
        return self._bound_views.take(np.searchsorted(self._bounds, a, side="right") - 1)


def _views_by_rule(lo: np.ndarray, hi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """`CameraRig.views_of_angles`' rule, sector by sector, at every angle
    of `a` in [-pi, pi); sectors with lo > hi wrap through +/-pi."""
    by_start = np.argsort(lo, kind="stable")
    below = by_start[np.searchsorted(lo[by_start], a, side="right") - 1]
    lo, hi = lo[:, None], hi[:, None]
    inside = np.where(lo < hi, (lo <= a) & (a < hi), (a >= lo) | (a < hi))
    return np.where(inside.any(axis=0), inside.argmax(axis=0), below)


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """`wrap_angle` of every angle, bit for bit, as a new array."""
    a = np.fmod(np.asarray(angles, dtype=np.float64), TWO_PI)
    return np.where(a <= -math.pi, a + TWO_PI, np.where(a > math.pi, a - TWO_PI, a))


def math_map(fn, *columns: np.ndarray) -> np.ndarray:
    """A `math` function of 1-D array columns, element by element, as a float
    array; the values stream into it, with no list of results in between."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), dtype=np.float64,
                       count=len(columns[0]))


# -- boxes as rows ---------------------------------------------------------------

CLASSES = tuple(ObjectClass)  # a box's class code indexes this


def class_codes(classes: Iterable[ObjectClass]) -> np.ndarray:
    """The class code of each class."""
    return np.array([CLASSES.index(c) for c in classes], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class BoxRows:
    """Boxes in one frame (an ego frame or the global one), one row each.

    rows        : (n, 9) float64, (x, y, z, vx, vy, vz, w, h, l): center m,
                  velocity m/s along the frame's axes, size m
    classes     : (n,) int64 class codes, indices into `CLASSES`
    confidences : (n,) float64, each in [0, 1]
    """

    rows: np.ndarray
    classes: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.classes)

    @classmethod
    def of(cls, rows, classes, confidences) -> BoxRows:
        """Boxes from per-box sequences: rows of 9 numbers, class codes and
        confidences."""
        return cls(
            np.array(rows, dtype=np.float64).reshape(-1, 9),
            np.array(classes, dtype=np.int64),
            np.array(confidences, dtype=np.float64),
        )

    def take(self, index) -> BoxRows:
        """The boxes a boolean mask or an index array selects, in its order."""
        return BoxRows(self.rows[index], self.classes[index], self.confidences[index])

    def by_view(self, views: np.ndarray, view_count: int) -> Tuple[BoxRows, ...]:
        """The boxes split by their views (`views_of` their rows), in order."""
        ends = np.cumsum(np.bincount(views, minlength=view_count)).tolist()
        grouped = self.take(np.argsort(views, kind="stable"))
        columns = (grouped.rows, grouped.classes, grouped.confidences)
        return tuple(BoxRows(*(c[a:b] for c in columns)) for a, b in zip([0, *ends], ends))

    def moved(self, from_pose: EgoPose, to_pose: EgoPose) -> BoxRows:
        """The boxes re-expressed in `to_pose`'s frame (see `transform_rows`)."""
        if not len(self):
            return self
        return BoxRows(transform_rows(self.rows, from_pose, to_pose), self.classes,
                       self.confidences)


NO_BOXES = BoxRows.of((), (), ())


def concat_boxes(parts: Sequence[BoxRows]) -> BoxRows:
    """The boxes of every part, part after part."""
    return BoxRows(*(np.concatenate(column) for column in zip(*(
        (p.rows, p.classes, p.confidences) for p in parts))))


def views_of(rows: np.ndarray, rig: CameraRig) -> np.ndarray:
    """The view of every row's center: the sector holding its planar bearing."""
    return rig.views_of_angles(math_map(math.atan2, rows[:, 1], rows[:, 0]))


_LEVEL_EDGES = tuple(map(np.array, (DISTANCE_EDGES_M, VELOCITY_EDGES_MPS, SIZE_EDGES_M3)))
_LEVEL_STRIDES = np.array((1, NUM_DISTANCE_LEVELS, NUM_DISTANCE_LEVELS * NUM_VELOCITY_LEVELS))


def category_levels(rows: np.ndarray) -> np.ndarray:
    """Each box row's (distance, velocity, size) levels, as an (n, 3) int array.

    Distance and speed are planar (x, y); size uses full box volume. Bin
    intervals are half-open, so a value exactly on an edge belongs to the
    higher bin (e.g. distance 10.0 -> level 1).
    """
    values = (
        math_map(math.hypot, rows[:, 0], rows[:, 1]),
        math_map(math.hypot, rows[:, 3], rows[:, 4]),
        rows[:, 6] * rows[:, 7] * rows[:, 8],
    )
    return np.array([np.searchsorted(e, v, side="right") for e, v in zip(_LEVEL_EDGES, values)]).T


def category_indices(rows: np.ndarray) -> np.ndarray:
    """Each box row's flat index into the 80-bin grid; distance varies fastest."""
    return category_levels(rows) @ _LEVEL_STRIDES


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


def _planar_transform(x, y, vx, vy, from_pose: EgoPose, to_pose: EgoPose):
    """`transform_rows`' planar arithmetic, elementwise on arrays: through
    the global frame, in a fixed order of float operations."""
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


def transform_rows(rows: np.ndarray, from_pose: EgoPose, to_pose: EgoPose) -> np.ndarray:
    """Re-express box rows given in `from_pose`'s frame in `to_pose`'s frame.

    Planar rigid transform: center translates and rotates, velocity rotates
    (velocity is a free vector; no ego-motion subtraction), z and size pass
    through.
    """
    out = np.array(rows, dtype=np.float64)
    out[:, 0], out[:, 1], out[:, 3], out[:, 4] = _planar_transform(
        out[:, 0], out[:, 1], out[:, 3], out[:, 4], from_pose, to_pose
    )
    return out
