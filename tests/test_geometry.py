import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sembox import geometry
from sembox.geometry import (BevGridSpec, Box3D, PointCloud, Pose,
                             bev_iou, bev_intersection_area, grid_indices,
                             iou_3d, points_in_box)

from conftest import monte_carlo_bev_iou, random_box


def make_cloud(xyz, cls=None):
    xyz = np.asarray(xyz, dtype=float)
    if cls is None:
        cls = np.ones(len(xyz), dtype=np.int32)
    return PointCloud(xyz, cls)


angles = st.floats(-math.pi, math.pi)


def pose_strategy():
    return st.builds(
        Pose.from_xyz_yaw,
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-5, 5), angles)


class TestTransform:
    def test_identity(self):
        cloud = make_cloud([[1, 2, 3], [4, 5, 6]])
        out = cloud.transformed(Pose(np.eye(3), np.zeros(3)))
        np.testing.assert_array_equal(out.xyz, cloud.xyz)
        np.testing.assert_array_equal(out.class_id, cloud.class_id)

    def test_quarter_turn(self):
        pose = Pose.from_xyz_yaw(0, 0, 0, math.pi / 2)
        out = make_cloud([[1, 0, 0]]).transformed(pose)
        np.testing.assert_allclose(out.xyz[0], [0, 1, 0], atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(pose=pose_strategy())
    def test_inverse_composition(self, pose):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng.uniform(-30, 30, (40, 3)))
        back = cloud.transformed(pose).transformed(pose.inverse())
        np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-6)

    def test_tags_preserved(self):
        cloud = PointCloud(np.ones((3, 3)), np.array([0, 1, 2]))
        out = cloud.transformed(Pose.from_xyz_yaw(1, 2, 3, 0.5))
        np.testing.assert_array_equal(out.class_id, [0, 1, 2])
        assert len(out) == 3

    @settings(max_examples=100, deadline=None)
    @given(pose=pose_strategy(), roll=angles, seed=st.integers(0, 2**32 - 1))
    def test_apply_works_row_by_row(self, pose, roll, seed):
        # Any subset of rows, one row included, gets the bulk call's bytes.
        c, s = math.cos(roll), math.sin(roll)
        pose = pose.compose(Pose(np.array([[1, 0, 0], [0, c, -s], [0, s, c]]),
                                 np.zeros(3)))
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(-100, 100, (300, 3))
        bulk = pose.apply(xyz)
        for idx in ([rng.integers(300)], rng.integers(0, 300, 2),
                    rng.integers(0, 300, 17), rng.permutation(300)):
            assert pose.apply(xyz[idx]).tobytes() == bulk[idx].tobytes()
        assert pose.apply(xyz[5]).tobytes() == bulk[5].tobytes()

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError, match=r"determinant -1\.00000000 != \+1"):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestPointInBox:
    def test_center_inside(self):
        b = Box3D(1, 2, 3, 4, 2, 1.5, 0.3)
        assert points_in_box(np.array([[1, 2, 3]]), b)[0]

    def test_boundary_inclusive(self):
        b = Box3D(0, 0, 0, 4, 2, 2, 0.0)
        assert points_in_box(np.array([[2.0, 0, 0]]), b)[0]
        assert not points_in_box(np.array([[2.0 + 1e-9, 0, 0]]), b)[0]

    @settings(max_examples=100, deadline=None)
    @given(l=st.floats(0.5, 5), w=st.floats(0.5, 5), yaw=angles,
           seed=st.integers(0, 2**32 - 1))
    def test_canonicalization_preserves_containment(self, l, w, yaw, seed):
        # Same physical box entered with swapped extents and rotated yaw.
        a = Box3D(1, -2, 0.5, l, w, 2.0, yaw)
        b = Box3D(1, -2, 0.5, w, l, 2.0, yaw + math.pi / 2)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-6, 6, (100, 3))
        np.testing.assert_array_equal(points_in_box(pts, a), points_in_box(pts, b))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1e-9, 1, 1, 0)

    def test_canonical_invariants(self):
        b = Box3D(0, 0, 0, 1.0, 3.0, 1.0, 0.0)  # w > l at input
        assert b.l >= b.w
        assert -math.pi <= b.yaw < math.pi
        assert b.l == 3.0 and b.w == 1.0


class TestBevIou:
    def test_identical(self):
        b = Box3D(3, -1, 0, 4.2, 1.7, 1.5, 0.7)
        assert bev_iou(b, b) == 1.0

    def test_equal_footprints_read_exactly_one(self, rng):
        # The polygon clip alone reads about a third of these below 1.0.
        for _ in range(2000):
            b = random_box(rng, span=6)
            raised = Box3D(b.cx, b.cy, b.cz + 1.0, b.l, b.w, 2 * b.h, b.yaw,
                           class_id=b.class_id + 1)
            assert bev_iou(b, b) == bev_iou(b, raised) == 1.0

    def test_offset_unit_squares(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert bev_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_disjoint(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(10, 0, 0, 1, 1, 1, 0.3)
        assert bev_iou(a, b) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_exact_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box(rng, span=3), random_box(rng, span=3)
        assert bev_iou(a, b) == bev_iou(b, a)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_self_iou_is_one(self, seed):
        b = random_box(np.random.default_rng(seed))
        assert bev_iou(b, b) == 1.0

    def test_monte_carlo_oracle_large_samples(self, rng):
        # A handful of pairs against a 10^6-sample plain uniform estimate.
        for _ in range(5):
            a, b = random_box(rng, span=2.5), random_box(rng, span=2.5)
            est = monte_carlo_bev_iou(a, b, n_side=1000, rng=rng)
            assert bev_iou(a, b) == pytest.approx(est, abs=0.01)


def clip_only_area(a: Box3D, b: Box3D) -> float:
    """bev_intersection_area without its disjointness reject: every pair
    goes through the polygon clip."""
    if (b.cx, b.cy, b.l, b.w, b.yaw) < (a.cx, a.cy, a.l, a.w, a.yaw):
        a, b = b, a
    poly = [(x, y) for x, y in a.corners_bev()]
    return geometry._polygon_area(geometry._clip_polygon(poly, b.corners_bev()))


extents = st.one_of(st.floats(2e-6, 1e-3), st.floats(0.1, 50.0))


@st.composite
def box_pairs(draw):
    """Pairs that are identical, nested, random neighbours, edge to edge
    or corner to corner; the last two apart by gaps from -1e-6 to 1e-6 m,
    or by about the reject's margin."""
    cx, cy = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
    l, w, yaw = draw(extents), draw(extents), draw(angles)
    a = Box3D(cx, cy, 0.0, l, w, 1.0, yaw)
    kind = draw(st.sampled_from(["identical", "nested", "random", "edge",
                                 "corner"]))
    if kind == "identical":
        return a, a
    if kind == "nested":
        s = draw(st.floats(0.01, 1.0))
        f = draw(st.floats(-1.0, 1.0)) * (1.0 - s) / 2.0
        return a, Box3D(a.cx + f * a.l * math.cos(a.yaw),
                        a.cy + f * a.l * math.sin(a.yaw), 0.0,
                        max(a.l * s, 2e-6), max(a.w * s, 2e-6), 1.0, a.yaw)
    l2, w2 = draw(extents), draw(extents)
    if kind == "random":
        d = draw(st.floats(0.0, 2.0)) * (a.l + max(l2, w2))
        t = draw(angles)
        return a, Box3D(a.cx + d * math.cos(t), a.cy + d * math.sin(t), 0.0,
                        l2, w2, 1.0, draw(angles))
    scale = abs(cx) + abs(cy) + a.l + l2 + w2
    gap = draw(st.one_of(
        st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]),
        st.floats(1e-12, 1e-6), st.floats(-1e-6, -1e-12),
        st.floats(0.5, 4.0).map(lambda k: k * geometry._DISJOINT_MARGIN * scale)))
    if kind == "edge":
        d = (a.l + l2) / 2.0 + gap
        return a, Box3D(a.cx + d * math.cos(a.yaw), a.cy + d * math.sin(a.yaw),
                        0.0, l2, w2, 1.0, a.yaw)
    # Corner to corner: both diagonals on the line through the centres.
    t = draw(angles)
    d = math.hypot(l, w) / 2.0 + math.hypot(l2, w2) / 2.0 + gap
    return (Box3D(cx, cy, 0.0, l, w, 1.0, t - math.atan2(w, l)),
            Box3D(cx + d * math.cos(t), cy + d * math.sin(t), 0.0, l2, w2,
                  1.0, t + math.pi - math.atan2(w2, l2)))


class TestIntersectionArea:
    @settings(max_examples=1500, deadline=None)
    @given(pair=box_pairs())
    def test_equals_clip_only_oracle(self, pair):
        a, b = pair
        assert bev_intersection_area(a, b) == clip_only_area(a, b)
        assert bev_intersection_area(b, a) == clip_only_area(a, b)


@st.composite
def indexed_queries(draw):
    """A box at any yaw with |cx|, |cy| up to 1e6, and up to 30 points on
    its corners, edges and faces, inside it and around it; some are
    duplicated and some share another point's x. The cloud may be empty."""
    box = Box3D(draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6)),
                draw(st.floats(-10.0, 10.0)), draw(extents), draw(extents),
                draw(extents), draw(angles))
    corners = box.corners_bev()
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    unit = st.floats(0.0, 1.0)
    rows = []
    for kind, k, t, u, zk in draw(st.lists(st.tuples(
            st.sampled_from(["corner", "edge", "inside", "around"]),
            st.integers(0, 3), unit, unit,
            st.sampled_from(["bottom", "top", "middle", "any"])), max_size=30)):
        if kind == "corner":
            x, y = corners[k]
        elif kind == "edge":
            x, y = corners[k] + t * (corners[(k + 1) % 4] - corners[k])
        else:
            grow = 1.0 if kind == "inside" else 3.0
            du, dv = (t - 0.5) * box.l * grow, (u - 0.5) * box.w * grow
            x, y = box.cx + c * du - s * dv, box.cy + s * du + c * dv
        z = {"bottom": box.cz - box.h / 2.0, "top": box.cz + box.h / 2.0,
             "middle": box.cz, "any": box.cz + (u - 0.5) * 3.0 * box.h}[zk]
        rows.append((x, y, z))
    xyz = np.array(rows, dtype=np.float64).reshape(-1, 3)
    if len(xyz):
        at = st.integers(0, len(xyz) - 1)
        xyz = np.concatenate([xyz, xyz[draw(st.lists(at, max_size=5))]])
        for i, j in draw(st.lists(st.tuples(at, at), max_size=5)):
            xyz[i, 0] = xyz[j, 0]
    return box, xyz


_SIXTH_TURN = Box3D(0.0, 0.0, 0.0, 4.0, 1.5, 1.0, math.pi / 6)
# One ulp beyond its corner of greatest x, corners_bev()[1].
_NEAR_CORNER = np.array([[2.1070508075688776, 0.35048094716167066, 0.0]])

# Points of equal x, each twice: a vertical stack through the box's top and
# bottom, and a row along y into and out of it at the corner's x.
_TIED_X = np.tile(np.r_[np.c_[np.full(9, 0.5), np.zeros(9), np.linspace(-2, 2, 9)],
                        np.c_[np.full(9, _SIXTH_TURN.corners_bev()[1][0]),
                              np.linspace(-1, 1.5, 9), np.zeros(9)]], (2, 1))


class TestPointIndex:
    # This point lies above cx + |cos yaw| l/2 + |sin yaw| w/2 in float,
    # yet points_in_box accepts it: only the pad keeps it.
    @example(case=(_SIXTH_TURN, np.r_[_NEAR_CORNER, np.c_[_SIXTH_TURN.corners_bev(),
                                                          np.zeros(4)]]))
    # Ties in x: the slab holds them in any order, the result ascends.
    @example(case=(_SIXTH_TURN, _TIED_X))
    @settings(max_examples=500, deadline=None)
    @given(case=indexed_queries())
    def test_equals_points_in_box(self, case):
        box, xyz = case
        cloud = make_cloud(xyz, np.arange(len(xyz)) % 3)
        got = cloud.inside(box)
        np.testing.assert_array_equal(got, np.flatnonzero(points_in_box(xyz, box)))
        np.testing.assert_array_equal(cloud.class_id[got], got % 3)
        hits, p = cloud.inside_frame(box)
        np.testing.assert_array_equal(hits, got)
        assert p.tobytes() == box.to_frame(xyz[got]).tobytes()

    def test_unpadded_slab_would_drop_a_corner(self):
        # Pins the premise of the @example above.
        corner = _SIXTH_TURN.corners_bev()[1]
        assert _NEAR_CORNER[0, 0] == np.nextafter(corner[0], np.inf)
        assert _NEAR_CORNER[0, 1] == corner[1]
        half = (abs(math.cos(_SIXTH_TURN.yaw)) * _SIXTH_TURN.l
                + abs(math.sin(_SIXTH_TURN.yaw)) * _SIXTH_TURN.w) / 2.0
        assert _NEAR_CORNER[0, 0] > _SIXTH_TURN.cx + half
        assert points_in_box(_NEAR_CORNER, _SIXTH_TURN)[0]

    def test_empty_cloud(self):
        got = make_cloud(np.zeros((0, 3))).inside(_SIXTH_TURN)
        assert got.size == 0 and got.dtype == np.intp

    def test_frozen_and_sorted_once(self):
        cloud = make_cloud(_TIED_X)
        assert cloud.x_order is cloud.x_order
        with pytest.raises(FrozenInstanceError):
            cloud.xyz = _NEAR_CORNER


class TestIou3d:
    def test_identical(self):
        b = Box3D(1, 1, 1, 3, 2, 1.4, -0.4)
        assert iou_3d(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_z(self):
        a = Box3D(0, 0, 0, 2, 2, 1, 0)
        b = Box3D(0, 0, 5, 2, 2, 1, 0)
        assert iou_3d(a, b) == 0.0

    def test_half_z_overlap(self):
        a = Box3D(0, 0, 0.0, 2, 2, 1, 0)
        b = Box3D(0, 0, 0.5, 2, 2, 1, 0)
        assert iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box(rng, span=3), random_box(rng, span=3)
        v = iou_3d(a, b)
        assert v == iou_3d(b, a)
        assert 0.0 <= v <= 1.0


class TestGrid:
    SPEC = BevGridSpec(0.0, 0.0, 0.5, 10, 10)

    def cell(self, x, y):
        return tuple(grid_indices(np.array([[x, y]]), self.SPEC)[0])

    def test_floor_arithmetic(self):
        assert self.cell(0.7, 1.2) == (1, 2)

    def test_origin(self):
        assert self.cell(0.0, 0.0) == (0, 0)

    def test_out_of_range(self):
        assert self.cell(-0.1, 0.0) == (-1, -1)
        assert self.cell(5.0, 0.0) == (-1, -1)  # right edge exclusive

    def test_far_points_are_off_grid_without_a_cast(self):
        # Their cells lie past int64's range, where a cast is undefined.
        xy = np.array([[1e150, 1.0], [0.7, 1.2], [-3e18, 0.0], [1.0, 3e18],
                       [4.9, 4.9], [-1e150, -1e150]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ij = grid_indices(xy, self.SPEC)
        assert ij.dtype == np.int64
        assert ij.tolist() == [[-1, -1], [1, 2], [-1, -1], [-1, -1], [9, 9], [-1, -1]]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BevGridSpec(0, 0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            BevGridSpec(0, 0, 1.0, 0, 10)
