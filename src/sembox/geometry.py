"""Core geometric types and predicates.

Conventions used throughout the package:

* Coordinates are metric. The BEV (bird's-eye view) plane is xy; z is up.
* Box yaw is the heading of the length axis, in radians, canonicalized to
  [-pi, pi). Orientation-only comparisons fold modulo pi.
* Point containment is boundary-inclusive: LiDAR returns concentrate on
  object surfaces, so surface points must count as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Boxes with any extent below this are degenerate and rejected at
# construction (downstream scores divide by footprint area).
MIN_EXTENT = 1e-6

# Vertex dedup tolerance for polygon clipping, in meters.
_CLIP_EPS = 1e-9

# Relative gap beyond which two BEV footprints count as disjoint without
# clipping (see bev_intersection_area).
_DISJOINT_MARGIN = 1e-9


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def fold_orientation(a: float) -> float:
    """Fold an angle to the orientation range [0, pi)."""
    return a % math.pi


def orientation_distance(a: float, b: float) -> float:
    """Distance between two orientations (angles modulo pi), in [0, pi/2]."""
    d = abs(fold_orientation(a) - fold_orientation(b))
    return min(d, math.pi - d)


def rotate(xyz: np.ndarray, r: np.ndarray) -> np.ndarray:
    """xyz @ r.T for points (3,) or (N, 3): column i is x r[i, 0] + y r[i, 1] +
    z r[i, 2], element-wise, so each row's bytes depend on it alone, on any CPU."""
    x, y, z = xyz.reshape(-1, 3).T
    return (x * r[:, :1] + y * r[:, 1:2] + z * r[:, 2:]).T.reshape(xyz.shape)


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping sensor coordinates to a shared global frame.
    Its rotation acts through rotate, so apply works row by row on any CPU."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise ValueError("pose contains non-finite values")
        err = np.abs(rotate(r, r) - np.eye(3)).max()
        if err > 1e-6:
            raise ValueError(f"pose rotation not orthonormal (max error {err:.2e})")
        # The rows are orthonormal, so the determinant is their triple product.
        det = float((np.cross(r[0], r[1]) * r[2]).sum())
        if abs(det - 1.0) > 1e-6:
            raise ValueError(f"pose rotation determinant {det:.8f} != +1")

    @staticmethod
    def from_xyz_yaw(x: float, y: float, z: float, yaw: float) -> "Pose":
        c, s = math.cos(yaw), math.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Pose(r, np.array([x, y, z]))

    @property
    def yaw(self) -> float:
        """Heading extracted from the xy block of the rotation."""
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        return rotate(np.asarray(xyz, dtype=np.float64), self.rotation) + self.translation

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rotate(self.translation, rt))

    def compose(self, other: "Pose") -> "Pose":
        """Returns the pose equivalent to applying `other` first, then `self`."""
        # rotate(o.T, s) is o.T @ s.T, the transpose of s @ o.
        return Pose(rotate(other.rotation.T, self.rotation).T, self.apply(other.translation))


@dataclass(frozen=True)
class PointCloud:
    """Columnar batch of semantic points.

    Each row of `xyz` is one point; `class_id` holds its semantic class
    (0 = background, 1..K = foreground classes).
    """

    xyz: np.ndarray  # (N, 3) float64
    class_id: np.ndarray  # (N,) int32

    def __post_init__(self) -> None:
        object.__setattr__(self, "xyz", np.ascontiguousarray(self.xyz, np.float64).reshape(-1, 3))
        object.__setattr__(self, "class_id", np.asarray(self.class_id, dtype=np.int32).reshape(-1))
        if len(self.xyz) != len(self.class_id):
            raise ValueError("point cloud columns have mismatched lengths")

    def __len__(self) -> int:
        return len(self.xyz)

    def validate(self, num_classes: int) -> None:
        """Check invariants: finite coordinates, class ids in [0, K]."""
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("point coordinates contain non-finite values")
        if len(self.class_id) and (self.class_id.min() < 0 or self.class_id.max() > num_classes):
            raise ValueError(f"class_id outside [0, {num_classes}]")

    def select(self, mask: np.ndarray) -> "PointCloud":
        return PointCloud(self.xyz[mask], self.class_id[mask])

    def transformed(self, pose: Pose) -> "PointCloud":
        """Apply a rigid transform; class tags are preserved."""
        return PointCloud(pose.apply(self.xyz), self.class_id)

    @property
    def foreground(self) -> np.ndarray:
        return self.class_id > 0

    @staticmethod
    def concatenate(clouds: list["PointCloud"]) -> "PointCloud":
        if not clouds:
            return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int32))
        return PointCloud(
            np.concatenate([c.xyz for c in clouds]),
            np.concatenate([c.class_id for c in clouds]),
        )

    @cached_property
    def x_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The points' order by x and their x in that order, which every box
        query reads: computed on the first and kept, so a cloud is sorted
        at most once. Points of equal x may rank in any order: a slab is a
        range of x values, so it holds the same points whatever their
        order, and inside_frame sorts them by index."""
        order = np.argsort(self.xyz[:, 0])
        return order, self.xyz[order, 0]

    def inside(self, box: Box3D) -> np.ndarray:
        """Ascending indices of the points inside box."""
        return self.inside_frame(box)[0]

    def inside_frame(self, box: Box3D) -> tuple[np.ndarray, np.ndarray]:
        """inside(box), equal to np.flatnonzero(points_in_box(xyz, box)), and
        those points in the box frame: the rows of box.to_frame(xyz[inside(box)]),
        since to_frame works row by row. A query, of any class, tests only
        the x-slab under the box.

        The slab is cx +- (|cos yaw| l/2 + |sin yaw| w/2), the x half-extent
        of the BEV footprint, widened by _DISJOINT_MARGIN times the box's
        coordinates' magnitude, as bev_candidate_pairs widens. An accepted
        point may lie outside the unpadded slab only by the rounding of
        to_frame, which is far below the pad, so the slab loses no point
        and the containment test alone decides every result."""
        order, x = self.x_order
        half = (abs(math.cos(box.yaw)) * box.l + abs(math.sin(box.yaw)) * box.w) / 2.0
        reach = half + _DISJOINT_MARGIN * (abs(box.cx) + abs(box.cy) + box.l + box.w)
        lo = np.searchsorted(x, box.cx - reach, side="left")
        hi = np.searchsorted(x, box.cx + reach, side="right")
        slab = np.sort(order[lo:hi])
        p = box.to_frame(self.xyz[slab])
        keep = in_box_frame(p, box)
        return slab[keep], p[keep]


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center, extents (length >= width), yaw heading.

    Construction canonicalizes the representation: if l < w, length and
    width are swapped and yaw rotated by pi/2; yaw is wrapped to [-pi, pi).
    Degenerate extents are rejected.
    """

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float
    class_id: int = 1

    def __post_init__(self) -> None:
        l, w, yaw = float(self.l), float(self.w), float(self.yaw)
        if l < w:
            l, w = w, l
            yaw += math.pi / 2.0
        object.__setattr__(self, "cx", float(self.cx))
        object.__setattr__(self, "cy", float(self.cy))
        object.__setattr__(self, "cz", float(self.cz))
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "yaw", wrap_angle(yaw))
        object.__setattr__(self, "class_id", int(self.class_id))
        for name in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} is not finite")
        if self.l < MIN_EXTENT or self.w < MIN_EXTENT or self.h < MIN_EXTENT:
            raise ValueError(f"degenerate box extents ({self.l}, {self.w}, {self.h})")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz])

    @property
    def bev_area(self) -> float:
        return self.l * self.w

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    def corners_bev(self) -> np.ndarray:
        """BEV footprint corners, counter-clockwise, (4, 2), in Python float arithmetic."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        dx, dy = self.l / 2.0, self.w / 2.0
        return np.array([(self.cx + (c * x - s * y), self.cy + (s * x + c * y))
                         for x, y in ((-dx, -dy), (dx, -dy), (dx, dy), (-dx, dy))])

    def to_frame(self, xyz: np.ndarray) -> np.ndarray:
        """Express points in the box frame (translate to center, rotate by -yaw)."""
        p = np.asarray(xyz, dtype=np.float64).reshape(-1, 3) - self.center
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        out = np.empty_like(p)
        out[:, 0] = c * p[:, 0] + s * p[:, 1]
        out[:, 1] = -s * p[:, 0] + c * p[:, 1]
        out[:, 2] = p[:, 2]
        return out


def points_in_box(xyz: np.ndarray, box: Box3D) -> np.ndarray:
    """Boundary-inclusive containment mask for an array of points."""
    return in_box_frame(box.to_frame(xyz), box)


def in_box_frame(p: np.ndarray, box: Box3D) -> np.ndarray:
    """points_in_box for points already in the box frame (box.to_frame)."""
    return (
        (np.abs(p[:, 0]) <= box.l / 2.0)
        & (np.abs(p[:, 1]) <= box.w / 2.0)
        & (np.abs(p[:, 2]) <= box.h / 2.0)
    )


def transform_box(box: Box3D, pose: Pose) -> Box3D:
    """Transform a box by a pose, assuming a planar (heading-only) rotation.

    The center moves rigidly and the yaw advances by the heading of the
    pose's rotation. Poses with significant roll or pitch would tilt the
    box, which this representation cannot express.
    """
    c = pose.apply(box.center)
    return Box3D(c[0], c[1], c[2], box.l, box.w, box.h,
                 box.yaw + pose.yaw, box.class_id)


def _clip_polygon(poly: list[tuple[float, float]],
                  rect: np.ndarray) -> list[tuple[float, float]]:
    """Clip a convex polygon by the half-planes of a CCW rectangle."""
    for i in range(4):
        if len(poly) < 3:
            return []
        ax, ay = rect[i]
        bx, by = rect[(i + 1) % 4]
        ex, ey = bx - ax, by - ay
        # side(p) >= 0 means p is on the interior side of edge a->b.
        vals = [ex * (py - ay) - ey * (px - ax) for px, py in poly]
        out: list[tuple[float, float]] = []
        n = len(poly)
        for j in range(n):
            k = (j + 1) % n
            pj, vj = poly[j], vals[j]
            pk, vk = poly[k], vals[k]
            if vj >= 0.0:
                out.append(pj)
            if (vj > 0.0 and vk < 0.0) or (vj < 0.0 and vk > 0.0):
                t = vj / (vj - vk)
                out.append((pj[0] + t * (pk[0] - pj[0]), pj[1] + t * (pk[1] - pj[1])))
        poly = _dedup_vertices(out)
    return poly


def _dedup_vertices(poly: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in poly:
        if not out or abs(p[0] - out[-1][0]) > _CLIP_EPS or abs(p[1] - out[-1][1]) > _CLIP_EPS:
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= _CLIP_EPS and abs(out[0][1] - out[-1][1]) <= _CLIP_EPS:
        out.pop()
    return out


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Area of intersection of the two yaw-rotated BEV footprints."""
    # Footprints whose circumscribed circles lie apart are disjoint. The
    # margin, relative to the coordinates' magnitude, is far above the
    # rounding of corners and clipping, so the clip would return exactly 0.
    reach = math.hypot(a.l, a.w) / 2.0 + math.hypot(b.l, b.w) / 2.0
    scale = reach + abs(a.cx) + abs(a.cy) + abs(b.cx) + abs(b.cy)
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > reach + _DISJOINT_MARGIN * scale:
        return 0.0
    # Canonical argument order makes the result exactly symmetric despite
    # the asymmetry of sequential clipping.
    ka = (a.cx, a.cy, a.l, a.w, a.yaw)
    kb = (b.cx, b.cy, b.l, b.w, b.yaw)
    if kb < ka:
        a, b = b, a
    poly = [(x, y) for x, y in a.corners_bev()]
    clipped = _clip_polygon(poly, b.corners_bev())
    return _polygon_area(clipped)


def bev_iou(a: Box3D, b: Box3D) -> float:
    """BEV IoU of two boxes: rotated-rectangle intersection over union,
    exactly 1.0 for equal footprints, which the polygon clip's rounding
    can read just below 1."""
    if (a.cx, a.cy, a.l, a.w, a.yaw) == (b.cx, b.cy, b.l, b.w, b.yaw):
        return 1.0
    inter = bev_intersection_area(a, b)
    union = a.bev_area + b.bev_area - inter
    if union <= MIN_EXTENT * MIN_EXTENT:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def bev_candidate_pairs(boxes: list[Box3D]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), each unordered pair of distinct boxes at most
    once, that hold every pair whose BEV footprints overlap.

    A sweep along x over the footprints' corner bounding boxes: two boxes
    pair when their bounding boxes meet, edges included, after widening
    by the disjointness margin of bev_intersection_area. It can only
    over-select, so bev_iou on the pairs alone finds every overlap.
    """
    corners = np.array([b.corners_bev() for b in boxes]).reshape(-1, 4, 2)
    pad = _DISJOINT_MARGIN * float(np.abs(corners).max(initial=0.0))
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    # Box k pairs with the boxes after it whose x range starts by hi_x + pad.
    count = np.searchsorted(lo[:, 0], hi[:, 0] + pad, side="right") \
        - np.arange(len(order)) - 1
    a = np.repeat(np.arange(len(order)), count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    meet = (lo[b, 1] <= hi[a, 1] + pad) & (lo[a, 1] <= hi[b, 1] + pad)
    return order[a[meet]], order[b[meet]]


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU: BEV intersection area times z overlap, over the volume union."""
    inter_bev = bev_intersection_area(a, b)
    z_lo = max(a.cz - a.h / 2.0, b.cz - b.h / 2.0)
    z_hi = min(a.cz + a.h / 2.0, b.cz + b.h / 2.0)
    inter = inter_bev * max(0.0, z_hi - z_lo)
    union = a.volume + b.volume - inter
    if union <= MIN_EXTENT ** 3:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


@dataclass(frozen=True)
class BevGridSpec:
    """Uniform BEV grid: origin corner, square cell size, cell counts."""

    x0: float
    y0: float
    cell_size: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError("grid cell counts must be > 0")

    @staticmethod
    def centered(half_extent: float, cell_size: float) -> "BevGridSpec":
        n = int(math.ceil(2.0 * half_extent / cell_size))
        return BevGridSpec(-half_extent, -half_extent, cell_size, n, n)

    @staticmethod
    def covering(x_min: float, y_min: float, x_max: float, y_max: float,
                 cell_size: float) -> "BevGridSpec":
        nx = max(1, int(math.ceil((x_max - x_min) / cell_size)))
        ny = max(1, int(math.ceil((y_max - y_min) / cell_size)))
        return BevGridSpec(x_min, y_min, cell_size, nx, ny)


def grid_indices(xy: np.ndarray, spec: BevGridSpec) -> np.ndarray:
    """Cell coordinates of BEV points: (N, 2) int array, -1 rows off-grid."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    ij = np.floor((xy - np.array([spec.x0, spec.y0])) / spec.cell_size)
    ok = (ij[:, 0] >= 0) & (ij[:, 0] < spec.nx) & (ij[:, 1] >= 0) & (ij[:, 1] < spec.ny)
    ij[~ok] = -1  # before the cast: a float past int64's range has no defined cast
    return ij.astype(np.int64)
