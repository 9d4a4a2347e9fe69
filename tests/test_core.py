"""Geometry, category grid, and frame-transform unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from box_oracles import (
    Box3D,
    CategoryLevel,
    box_to_ego,
    box_to_global,
    categorize,
    ego_transform,
    to_boxes,
    to_rows,
    view_of,
    view_of_angle,
)
from viewsched.core import (
    DISTANCE_EDGES_M,
    GLOBAL_FRAME,
    NUM_CATEGORIES,
    SIZE_EDGES_M3,
    VELOCITY_EDGES_MPS,
    BoxRows,
    CameraRig,
    EgoPose,
    ObjectClass,
    category_indices,
    category_levels,
    concat_boxes,
    distribution,
    transform_rows,
    views_of,
    wrap_angle,
    wrap_angles,
)


def box_rows(boxes):
    return to_rows(boxes).rows


def view_at(rig, angle):
    """The rig's view of one angle."""
    return int(rig.views_of_angles(np.array([angle]))[0])


def distribution_of(boxes, rig):
    rows = box_rows(boxes)
    return distribution(rows, views_of(rows, rig), rig.view_count)


def make_box(x=0.0, y=0.0, z=0.0, vx=0.0, vy=0.0, vz=0.0,
             w=1.9, h=1.6, l=4.5, cls=ObjectClass.CAR, conf=1.0):
    return Box3D(center=(x, y, z), size=(w, h, l), velocity=(vx, vy, vz), cls=cls,
                 confidence=conf)


# -- angles and boxes ---------------------------------------------------------


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # (-pi, pi]: -pi maps up
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.5) == pytest.approx(-0.5)
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi + 1e-12
        # same direction: difference is a multiple of 2*pi
        k = (a - w) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-9


def test_box_derived_quantities():
    b = make_box(x=3.0, y=4.0, z=10.0, vx=0.3, vy=0.4, vz=9.0, w=2.0, h=3.0, l=4.0)
    assert b.planar_distance == pytest.approx(5.0)  # z ignored
    assert b.planar_speed == pytest.approx(0.5)  # vz ignored
    assert b.volume == pytest.approx(24.0)


def test_box_validation():
    with pytest.raises(ValueError):
        make_box(w=0.0)
    with pytest.raises(ValueError):
        make_box(conf=1.5)


# -- camera rig ---------------------------------------------------------------


def test_default_rig_covers_the_full_circle():
    rig = CameraRig.default()
    assert rig.view_count == 6
    widths = [wrap_angle(hi - lo) if hi > lo else hi - lo + 2 * math.pi
              for lo, hi in rig.sectors]
    total = sum(w if w > 0 else w + 2 * math.pi for w in widths)
    assert total == pytest.approx(2 * math.pi)
    # every angle lands in exactly one view
    for a in np.linspace(-math.pi + 1e-6, math.pi, 720):
        views = [view_at(rig, float(a))]
        assert 0 <= views[0] < 6


def test_view_of_uses_planar_angle():
    rig = CameraRig.default()
    boxes = [make_box(x=10.0), make_box(x=-10.0), make_box(x=10.0, z=5.0)]
    front, back, raised = views_of(box_rows(boxes), rig).tolist()
    # straight ahead is the front view; directly behind is a different view
    assert front != back
    # z must not matter
    assert raised == front


def test_view_of_angle_is_stable_on_sector_edges():
    rig = CameraRig.default()
    for lo, hi in rig.sectors:
        v_lo = view_at(rig, lo)
        v_hi = view_at(rig, hi)
        assert 0 <= v_lo < rig.view_count
        assert 0 <= v_hi < rig.view_count
        # an edge belongs to exactly one of its two sectors, deterministically
        assert view_at(rig, lo) == v_lo


def _gapped_rig(view_count: int, gap: float, order=None) -> CameraRig:
    """The default rig with its first sector cut short by `gap` (|gap| < 1e-9;
    a negative gap overlaps the next sector), its sectors listed in `order`."""
    sectors = list(CameraRig.default(view_count).sectors)
    lo, hi = sectors[0]
    sectors[0] = (lo, hi - gap)
    return CameraRig([sectors[k] for k in (order or range(view_count))])


def _edge_angles(rig: CameraRig):
    out = [math.pi, -math.pi, 0.0, 3 * math.pi, -3 * math.pi, math.nan]
    for lo, hi in rig.sectors:
        for edge in (lo, hi):
            out += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf),
                    edge + 2 * math.pi, edge - 2 * math.pi]
    return out


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    view_count=st.integers(1, 24),
    gap=st.sampled_from((0.0, 1e-12, 5e-10, -1e-12, -5e-10)),
    shuffled=st.booleans(),
    angles=st.lists(st.floats(-10.0, 10.0), max_size=20),
)
def test_vectorised_view_assignment_matches_view_of_angle(data, view_count, gap, shuffled,
                                                         angles):
    if gap < 0:  # an overlap needs a second sector
        view_count = max(view_count, 2)
    order = data.draw(st.permutations(range(view_count))) if shuffled else None
    rig = _gapped_rig(view_count, gap, order) if gap or order else CameraRig.default(view_count)
    probe = angles + _edge_angles(rig)
    got = rig.views_of_angles(np.array(probe))
    assert got.tolist() == [view_of_angle(rig, a) for a in probe]
    assert repr(wrap_angles(np.array(probe)).tolist()) == repr([wrap_angle(a) for a in probe])


def test_the_default_rig_is_built_once_per_view_count():
    assert CameraRig.default(6) is CameraRig.default(6)
    assert CameraRig.default() is CameraRig.default()
    assert CameraRig.default(4) is not CameraRig.default(6)
    assert CameraRig.default(4).view_count == 4


@settings(max_examples=150, deadline=None)
@given(view_count=st.integers(1, 24), angle=st.floats(-10.0, 10.0))
def test_view_of_partitions_the_circle(view_count, angle):
    rig = CameraRig.default(view_count)
    a = wrap_angle(angle)
    a = -math.pi if a == math.pi else a

    def holds(sector):
        lo, hi = sector
        return lo <= a < hi if lo < hi else (a >= lo or a < hi)

    owners = [j for j, sector in enumerate(rig.sectors) if holds(sector)]
    view = view_at(rig, angle)
    assert 0 <= view < view_count
    if owners:
        assert view == owners[0]
    # only within float rounding of an edge can no sector, or two, hold it
    near_edge = any(abs(wrap_angle(a - edge)) < 1e-9 for sector in rig.sectors for edge in sector)
    assert len(owners) == 1 or near_edge


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(*[st.floats(-60.0, 60.0)] * 6, *[st.floats(0.05, 20.0)] * 3),
                  max_size=12),
    pose=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-7.0, 7.0)),
    edge=st.sampled_from(DISTANCE_EDGES_M + VELOCITY_EDGES_MPS + SIZE_EDGES_M3),
)
def test_box_rows_match_their_boxes(rows, pose, edge):
    rows = rows + [(edge, 0.0, 0.0, edge, 0.0, 0.0, 1.0, 1.0, edge),
                   (0.0, -edge, 1.0, 0.0, -edge, 0.0, edge, 1.0, 1.0)]
    boxes = [make_box(*r) for r in rows]
    ego = EgoPose(pose[0], pose[1], pose[2], 0.0)
    got = transform_rows(box_rows(boxes), GLOBAL_FRAME, ego)
    want = [box_to_ego(b, ego) for b in boxes]
    assert got.tolist() == box_rows(want).tolist()
    # every box moves as its row does, both ways
    moved = to_rows(boxes).moved(GLOBAL_FRAME, ego)
    assert repr(to_boxes(moved)) == repr(want)
    assert repr(to_boxes(moved.moved(ego, GLOBAL_FRAME))) == repr(
        [box_to_global(b, ego) for b in want])
    rig = CameraRig.default()
    assert views_of(got, rig).tolist() == [view_of(b.center, rig) for b in want]
    assert category_indices(got).tolist() == [categorize(b).index for b in want]
    assert category_levels(got).tolist() == [
        [lv.distance_level, lv.velocity_level, lv.size_level] for lv in map(categorize, want)]
    assert np.array_equal(
        distribution(got, views_of(got, rig), rig.view_count), _reference_distribution(want, rig)
    )


def _reference_distribution(boxes, rig):
    """The per-box histogram the vectorised `distribution` replaced."""
    counts = np.zeros((rig.view_count, NUM_CATEGORIES))
    for box in boxes:
        counts[view_of(box.center, rig), categorize(box).index] += 1.0
    return np.array([row / row.sum() if row.sum() > 0 else row for row in counts])


def test_category_indices_use_the_planar_norm_of_categorize():
    # on each of these points one of math.hypot and np.hypot rounds onto the
    # bin edge and the other just below it
    points = [(9.024162999888578, -4.308652010947504), (-17.548947426218696, 9.593458408301572),
              (12.907580171135162, -27.08125503232297), (-26.10183275729099, 30.30997074743575)]
    speeds = [(-0.1907123036906222, -0.06023966484813714), (0.3216371079295338, 0.9468630158595938),
              (-4.871980240549672, -1.1241923926506316)]
    boxes = [make_box(x=x, y=y) for x, y in points] + [
        make_box(x=5.0, vx=vx, vy=vy) for vx, vy in speeds]
    assert category_indices(box_rows(boxes)).tolist() == [categorize(b).index for b in boxes]


def test_box_rows_split_and_join_in_order():
    boxes = [make_box(x=15.0, conf=0.9), make_box(x=-15.0, cls=ObjectClass.BUS, conf=0.5),
             make_box(x=16.0, y=0.5, conf=0.7)]
    rows = to_rows(boxes)
    assert len(rows) == 3 and len(BoxRows.of((), (), ())) == 0
    rig = CameraRig.default()
    views = views_of(rows.rows, rig)
    parts = rows.by_view(views, rig.view_count)
    assert [len(p) for p in parts] == [2, 0, 0, 1, 0, 0]
    assert repr(to_boxes(parts[0])) == repr([boxes[0], boxes[2]])
    assert repr(to_boxes(concat_boxes(parts))) == repr([boxes[0], boxes[2], boxes[1]])
    assert repr(to_boxes(rows.take(np.array([2, 0])))) == repr([boxes[2], boxes[0]])


# -- category grid ------------------------------------------------------------


def test_category_edges_are_half_open_upward():
    # distance exactly on an edge goes to the higher level
    b = make_box(x=DISTANCE_EDGES_M[0], y=0.0)
    assert categorize(b).distance_level == 1
    b = make_box(x=DISTANCE_EDGES_M[0] - 1e-9)
    assert categorize(b).distance_level == 0
    b = make_box(x=5.0, vx=VELOCITY_EDGES_MPS[0])
    assert categorize(b).velocity_level == 1
    # size: volume exactly on an edge
    b = make_box(x=5.0, w=1.0, h=1.0, l=SIZE_EDGES_M3[1])
    assert categorize(b).size_level == 2


def test_category_levels_span_the_grid():
    far_fast_big = make_box(x=100.0, vx=50.0, w=3.0, h=3.0, l=12.0)
    lv = categorize(far_fast_big)
    assert (lv.distance_level, lv.velocity_level, lv.size_level) == (4, 3, 3)
    assert lv.index == NUM_CATEGORIES - 1


def test_category_index_layout_distance_fastest():
    assert CategoryLevel(0, 0, 0).index == 0
    assert CategoryLevel(1, 0, 0).index == 1
    assert CategoryLevel(0, 1, 0).index == 5
    assert CategoryLevel(0, 0, 1).index == 20
    # bijective over the whole grid
    seen = {CategoryLevel(d, v, s).index
            for d in range(5) for v in range(4) for s in range(4)}
    assert seen == set(range(NUM_CATEGORIES))


def test_category_level_validation():
    with pytest.raises(ValueError):
        CategoryLevel(5, 0, 0)
    with pytest.raises(ValueError):
        CategoryLevel(0, 4, 0)
    with pytest.raises(ValueError):
        CategoryLevel(0, 0, -1)


# -- distributions ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 200), view_count=st.integers(1, 24))
def test_distribution_rows_are_ratios_or_zero(data, n, view_count):
    rows = data.draw(arrays(np.float64, (n, 9), elements=st.floats(-60.0, 60.0)))
    views = data.draw(arrays(np.int64, n, elements=st.integers(0, view_count - 1)))
    got = distribution(rows, views, view_count)
    assert got.shape == (view_count, NUM_CATEGORIES)
    assert np.all((got >= 0.0) & (got <= 1.0))
    totals = got.sum(axis=1)
    empty = ~np.isin(np.arange(view_count), views)
    assert np.all(got[empty] == 0.0)
    assert np.all(np.abs(totals[~empty] - 1.0) <= 1e-9)


def test_distribution_splits_mass_per_view():
    rig = CameraRig.default()
    # two identical-category boxes straight ahead, one behind
    front_a = make_box(x=15.0, y=0.0)
    front_b = make_box(x=16.0, y=0.1)
    rear = make_box(x=-15.0, y=0.0)
    dists = distribution_of([front_a, front_b, rear], rig)
    assert len(dists) == rig.view_count
    front_view = view_of(front_a.center, rig)
    rear_view = view_of(rear.center, rig)
    assert dists[front_view].sum() == pytest.approx(1.0)
    assert dists[rear_view].sum() == pytest.approx(1.0)
    for j, d in enumerate(dists):
        if j not in (front_view, rear_view):
            assert not d.any()
    # both front boxes share a category bin -> single bin holds all the mass
    assert categorize(front_a).index == categorize(front_b).index
    assert dists[front_view][categorize(front_a).index] == pytest.approx(1.0)


def test_distribution_mixed_categories_sum_to_one():
    rig = CameraRig.default()
    boxes = [make_box(x=5.0), make_box(x=15.0), make_box(x=35.0, vx=7.0)]
    # force them into one view
    view = view_of(boxes[0].center, rig)
    assert all(view_of(b.center, rig) == view for b in boxes)
    d = distribution_of(boxes, rig)[view]
    assert d.sum() == pytest.approx(1.0)
    assert np.count_nonzero(d) == 3
    assert np.all((d == 0) | np.isclose(d, 1 / 3))


# -- frame transforms ---------------------------------------------------------


def test_global_ego_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pose = EgoPose(x=float(rng.normal(0, 30)), y=float(rng.normal(0, 30)),
                       yaw=float(rng.uniform(-math.pi, math.pi)), t=0.0)
        b = make_box(x=float(rng.normal(0, 20)), y=float(rng.normal(0, 20)),
                     z=float(rng.uniform(0, 3)), vx=float(rng.normal(0, 5)),
                     vy=float(rng.normal(0, 5)))
        back = box_to_ego(box_to_global(b, pose), pose)
        assert np.allclose(back.center, b.center, atol=1e-9)
        assert np.allclose(back.velocity, b.velocity, atol=1e-9)
        assert back.size == b.size


def test_ego_transform_velocity_rotates_but_does_not_translate():
    # ego moving does not change the object's velocity vector, only the frame
    pose = EgoPose(x=100.0, y=-50.0, yaw=math.pi / 2, t=0.0)
    b = make_box(x=10.0, y=0.0, vx=2.0, vy=0.0)
    g = box_to_global(b, pose)
    # +x in ego frame is +y in global frame after a 90 degree yaw
    assert g.center[0] == pytest.approx(100.0)
    assert g.center[1] == pytest.approx(-40.0)
    assert g.velocity[0] == pytest.approx(0.0, abs=1e-12)
    assert g.velocity[1] == pytest.approx(2.0)
    assert g.planar_speed == pytest.approx(b.planar_speed)


def test_ego_transform_between_two_poses_matches_composition():
    a = EgoPose(x=3.0, y=4.0, yaw=0.3, t=0.0)
    c = EgoPose(x=-7.0, y=2.0, yaw=-1.2, t=1.0)
    b = make_box(x=5.0, y=-1.0, vx=1.0, vy=0.5)
    direct = ego_transform(b, a, c)
    via_global = box_to_ego(box_to_global(b, a), c)
    assert np.allclose(direct.center, via_global.center, atol=1e-12)
    assert np.allclose(direct.velocity, via_global.velocity, atol=1e-12)
