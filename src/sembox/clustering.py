"""Density clustering of foreground points and oriented-box fitting.

Proposals are generated per class at several clustering radii: a small
radius separates adjacent objects, a large one bridges gaps in truncated
or sparse objects. All resulting candidates are pooled; score-based
selection downstream keeps the best per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, PointCloud

# Absolute safety margin added to fitted spans so that cluster points stay
# inside the box under floating-point round-trip, not a geometric padding.
_SPAN_GUARD = 1e-9

# Spans below this are inflated to keep fitted boxes non-degenerate.
_SPAN_FLOOR = 1e-3


@dataclass(frozen=True)
class ClusterParams:
    """Per-class clustering configuration.

    radii must be positive, strictly ascending and free of duplicates;
    min_pts is the DBSCAN core threshold (neighborhood size including the
    point itself); clusters smaller than min_cluster_size are discarded.
    """

    radii: tuple[float, ...]
    min_pts: int = 5
    min_cluster_size: int = 5

    def __post_init__(self) -> None:
        if not self.radii:
            raise ValueError("radii must be non-empty")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be > 0")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly ascending without duplicates")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be >= 1")


@dataclass(frozen=True)
class BoxCandidate:
    """A fitted proposal plus its provenance. cluster_point_indices index
    the cloud given to multi_scale_cluster; in generate that is the
    foreground-only dense cloud of pipeline.aggregate_window."""

    box: Box3D
    radius_used: float
    cluster_point_indices: np.ndarray


class _Members:
    """Some points of a _CellGrid, grouped by cell: cell k holds
    order[start[k]:start[k] + length[k]]. lo and hi bound each cell's
    members per axis (+inf and -inf for a cell with none)."""

    def __init__(self, pts: np.ndarray, order: np.ndarray, cell_of: np.ndarray,
                 ncells: int):
        self.order = order
        self.length = np.bincount(cell_of[order], minlength=ncells)
        self.start = np.r_[0, np.cumsum(self.length)[:-1]]
        d = pts.shape[1]
        self.lo = np.full((ncells, d), np.inf)
        self.hi = np.full((ncells, d), -np.inf)
        full = self.length > 0
        if full.any():
            self.lo[full] = np.minimum.reduceat(pts[order], self.start[full])
            self.hi[full] = np.maximum.reduceat(pts[order], self.start[full])

    def extremes(self, pts: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """(ncells, ndirs) point of each cell furthest along each direction,
        ties to the first in `order`; -1 where the cell has no members."""
        proj = pts[self.order] @ dirs.T
        full = self.length > 0
        seg = np.repeat(np.arange(int(full.sum())), self.length[full])
        top = np.maximum.reduceat(proj, self.start[full])
        pos = np.where(proj == top[seg], np.arange(len(proj))[:, None],
                       len(proj))
        out = np.full((len(self.length), len(dirs)), -1)
        out[full] = self.order[np.minimum.reduceat(pos, self.start[full])]
        return out


class _CellGrid:
    """Points bucketed into square cells of side eps / sqrt(d).

    The side is chosen so that any two points sharing a cell are within eps
    of each other (the cell diagonal is exactly eps), and any two points
    within eps sit in cells no more than `reach` apart per axis. Along each
    axis, a step longer than reach + 1 between consecutive occupied cell
    coordinates shrinks to reach + 1: no neighbourhood changes, and the
    packed cell keys cannot overflow however far apart the points lie.
    """

    def __init__(self, pts: np.ndarray, eps: float):
        n, d = pts.shape
        self.pts = pts
        self.reach = r = math.ceil(math.sqrt(d))
        ij = np.empty((n, d), dtype=np.int64)
        for axis in range(d):
            rows, at = np.unique(np.floor(pts[:, axis] / (eps / math.sqrt(d))),
                                 return_inverse=True)
            steps = np.minimum(np.diff(rows), r + 1).astype(np.int64)
            ij[:, axis] = np.r_[r, r + np.cumsum(steps)][at.reshape(-1)]
        self.strides = np.cumprod([1, *(ij.max(axis=0) + r + 1)][:d])
        keys = ij @ self.strides
        self.order = np.argsort(keys, kind="stable")  # points grouped by cell
        sorted_keys = keys[self.order]
        opens = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        self.keys = sorted_keys[opens]  # ascending, one per cell
        self.cell_of = np.empty(n, dtype=np.int64)
        self.cell_of[self.order] = np.cumsum(opens) - 1

    def members(self, mask: np.ndarray) -> _Members:
        """The points where mask holds, grouped by cell."""
        return _Members(self.pts, self.order[mask[self.order]], self.cell_of,
                        len(self.keys))

    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, neighbour, offset) for every ordered pair of cells no more
        than `reach` apart per axis, each cell paired with itself too."""
        d = len(self.strides)
        span = np.arange(-self.reach, self.reach + 1)
        offsets = np.stack(np.meshgrid(*[span] * d, indexing="ij"),
                           -1).reshape(-1, d)
        target = self.keys[:, None] + offsets @ self.strides
        pos = np.minimum(np.searchsorted(self.keys, target), len(self.keys) - 1)
        cell, k = np.nonzero(self.keys[pos] == target)
        return cell, pos[cell, k], offsets[k]


# Point pairs a cross-product chunk holds: bounds the memory of a step.
_PAIR_CHUNK = 1 << 20


def _pair_chunks(a: _Members, b: _Members, ca: np.ndarray, cb: np.ndarray):
    """Yield (k, i, j) over every member i of cell ca[k] in `a` times every
    member j of cell cb[k] in `b`, in chunks of about _PAIR_CHUNK pairs; a
    larger product is split by rows."""
    a_len, b_len = a.length[ca], b.length[cb]
    rows = np.maximum(1, _PAIR_CHUNK // np.maximum(b_len, 1))
    pieces = -(-a_len // rows)
    k = np.repeat(np.arange(len(ca)), pieces)
    skip = (np.arange(len(k)) - np.repeat(np.cumsum(pieces) - pieces, pieces)) * rows[k]
    a_at = a.start[ca[k]] + skip
    size = np.minimum(rows[k], a_len[k] - skip) * b_len[k]
    chunk = (np.cumsum(size) - size) // _PAIR_CHUNK
    bounds = np.r_[0, np.flatnonzero(np.diff(chunk)) + 1, len(size)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece = np.repeat(np.arange(lo, hi), size[lo:hi])
        r = np.arange(len(piece)) - np.repeat(np.cumsum(size[lo:hi]) - size[lo:hi],
                                             size[lo:hi])
        width = b_len[k[piece]]
        yield (k[piece], a.order[a_at[piece] + r // width],
               b.order[b.start[cb[k[piece]]] + r % width])


def connected_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per node 0..n-1 of the graph with edges a[k]-b[k], the smallest node
    of its connected component: hook each root to the smaller root across
    an edge, then jump pointers until every node points at a root."""
    root = np.arange(n)
    while True:
        low = np.minimum(root[a], root[b])
        hooked = root.copy()
        np.minimum.at(hooked, root[a], low)
        np.minimum.at(hooked, root[b], low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            return root
        root = hooked


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN cluster labels per point; -1 marks noise.

    Semantics: a point is core when its eps-neighborhood (inclusive,
    counting itself) holds at least min_pts points; clusters are maximal
    density-connected sets of cores; a border point joins the cluster of
    its nearest core within eps (exact ties to the smaller cluster id), a
    distance-based rule that keeps the partition invariant under input
    permutation. Cluster ids follow each component's smallest point index.

    Exact grid implementation (Gunawan 2013; Gan & Tao, SIGMOD 2015),
    vectorised over all cells at once: cells whose population reaches
    min_pts are wholly core (their diagonal is eps); points of sparse cells
    count their neighbours over the 5x5 (2D) neighbourhood; clusters are
    connected components of core cells, with cell pairs linked when their
    closest core points are within eps. A cell pair whose member bounding
    boxes lie further apart than eps is never expanded into point pairs.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2D array of positions")
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels

    grid = _CellGrid(pts, eps)
    cell, nbr, off = grid.neighbor_pairs()
    eps2 = eps * eps

    def d2(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return ((pts[i] - pts[j]) ** 2).sum(-1)

    def near(a: _Members, b: _Members, ca: np.ndarray,
             cb: np.ndarray) -> np.ndarray:
        # Exact reject: the box gap never exceeds the distance of any
        # member pair, rounding included.
        gap = np.maximum(np.maximum(b.lo[cb] - a.hi[ca], a.lo[ca] - b.hi[cb]), 0.0)
        return (gap ** 2).sum(-1) <= eps2

    # Core points: every point of a cell holding min_pts points; a point of
    # a sparse cell counts its eps-neighbours in the neighbouring cells.
    every = grid.members(np.ones(n, dtype=bool))
    core = np.zeros(n, dtype=bool)
    core[every.order] = np.repeat(every.length >= min_pts, every.length)
    sel = (every.length[cell] < min_pts) & near(every, every, cell, nbr)
    count = np.zeros(n, dtype=np.int64)
    for _, i, j in _pair_chunks(every, every, cell[sel], nbr[sel]):
        count += np.bincount(i[d2(i, j) <= eps2], minlength=n)
    core |= count >= min_pts
    if not core.any():
        return labels

    # Link core cells. The two points furthest towards each other along the
    # cells' offset settle most linked pairs at once; the full cross
    # product then runs only for pairs still in different components.
    cores = grid.members(core)
    sel = (nbr > cell) & near(cores, cores, cell, nbr)
    ca, cb = cell[sel], nbr[sel]
    dirs, dir_of = np.unique(off[sel], axis=0, return_inverse=True)
    dir_of = dir_of.reshape(-1)
    dirs = dirs.astype(np.float64)
    linked = d2(cores.extremes(pts, dirs)[ca, dir_of],
                cores.extremes(pts, -dirs)[cb, dir_of]) <= eps2
    root = connected_components(len(grid.keys), ca[linked], cb[linked])
    todo = np.flatnonzero(root[ca] != root[cb])
    for k, i, j in _pair_chunks(cores, cores, ca[todo], cb[todo]):
        linked[todo[k[d2(i, j) <= eps2]]] = True
    root = connected_components(len(grid.keys), ca[linked], cb[linked])

    # Components numbered by their smallest core point index: the order in
    # which ascending-seed expansion would discover them.
    comp = root[grid.cell_of[cores.order]]
    first = np.full(len(grid.keys), n)
    np.minimum.at(first, comp, cores.order)
    found = np.flatnonzero(first < n)
    cluster = np.empty(len(grid.keys), dtype=np.int64)
    cluster[found[np.argsort(first[found])]] = np.arange(len(found))
    labels[cores.order] = cluster[comp]

    # Border points: non-core, adopted by the cluster of their nearest
    # core within eps (exact ties to the smaller cluster id); else noise. A
    # border point has fewer than min_pts such cores, so all hits fit.
    borders = grid.members(~core)
    sel = near(borders, cores, cell, nbr)
    hit_i, hit_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for _, i, j in _pair_chunks(borders, cores, cell[sel], nbr[sel]):
        keep = d2(i, j) <= eps2
        hit_i.append(i[keep])
        hit_j.append(j[keep])
    i, j = np.concatenate(hit_i), np.concatenate(hit_j)
    pick = np.lexsort((labels[j], d2(i, j), i))
    _, first = np.unique(i[pick], return_index=True)
    labels[i[pick[first]]] = labels[j[pick[first]]]
    return labels


# Distance floor for the closeness criterion: points closer to an edge
# than this count as on it, capping their vote.
_CLOSENESS_FLOOR = 0.01


def fit_box(xyz: np.ndarray, class_id: int, yaw_step_deg: float = 1.0,
            criterion: str = "area") -> Box3D:
    """Fit an oriented box to a cluster by exhaustive yaw search.

    The yaw is searched over [0, 90) degrees at the given step: for each
    angle the points are rotated into the candidate frame and the
    axis-aligned BEV rectangle measured. With criterion "area" the
    smallest-area rotation wins; with "closeness" the rotation whose
    points hug the rectangle edges most tightly wins (sum of inverse
    point-to-nearest-edge distances), which is markedly more stable for
    sparse surface returns where the area landscape is nearly flat. Ties
    go to the smaller yaw. Extents are the min/max spans (no padding),
    height and vertical center come from the z range, and the result is
    canonical (l >= w). All input points are inside the returned box.
    """
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    if len(xyz) == 0:
        raise ValueError("cannot fit a box to an empty cluster")
    if yaw_step_deg <= 0:
        raise ValueError("yaw_step_deg must be > 0")
    if criterion not in ("area", "closeness"):
        raise ValueError(f"unknown fit criterion {criterion!r}")

    angles = np.deg2rad(np.arange(0.0, 90.0, yaw_step_deg))
    c, s = np.cos(angles), np.sin(angles)
    x, y = xyz[:, 0:1], xyz[:, 1:2]
    # Coordinates of every point in every candidate frame, shape (N, A).
    u = x * c + y * s
    v = -x * s + y * c
    u_min, u_max = u.min(axis=0), u.max(axis=0)
    v_min, v_max = v.min(axis=0), v.max(axis=0)
    if criterion == "area":
        areas = (u_max - u_min) * (v_max - v_min)
        best = int(np.argmin(areas))
    else:
        edge = np.minimum(np.minimum(u - u_min, u_max - u),
                          np.minimum(v - v_min, v_max - v))
        score = (1.0 / np.maximum(edge, _CLOSENESS_FLOOR)).sum(axis=0)
        best = int(np.argmax(score))

    span_u = max(float(u_max[best] - u_min[best]), _SPAN_FLOOR) + 2 * _SPAN_GUARD
    span_v = max(float(v_max[best] - v_min[best]), _SPAN_FLOOR) + 2 * _SPAN_GUARD
    mid_u = (u_max[best] + u_min[best]) / 2.0
    mid_v = (v_max[best] + v_min[best]) / 2.0
    yaw = float(angles[best])
    cb, sb = math.cos(yaw), math.sin(yaw)
    cx = cb * mid_u - sb * mid_v
    cy = sb * mid_u + cb * mid_v

    z_min, z_max = float(xyz[:, 2].min()), float(xyz[:, 2].max())
    h = max(z_max - z_min, _SPAN_FLOOR) + 2 * _SPAN_GUARD
    cz = (z_min + z_max) / 2.0
    return Box3D(cx, cy, cz, span_u, span_v, h, yaw, class_id)


def multi_scale_cluster(dense: PointCloud, params: dict[int, ClusterParams],
                        yaw_step_deg: float = 1.0,
                        fit_criterion: str = "area") -> list[BoxCandidate]:
    """Cluster each class at every candidate radius and fit all proposals.

    Clustering distance is BEV (xy only). The union of per-radius fits is
    returned; every candidate records the radius that produced it and the
    dense-cloud indices of its cluster. A cluster whose members a smaller
    radius already found is a candidate again, with the box fitted then.
    """
    candidates: list[BoxCandidate] = []
    for class_id in sorted(params):
        p = params[class_id]
        sel = np.flatnonzero(dense.class_id == class_id)
        if len(sel) == 0:
            continue
        xy = dense.xyz[sel, :2]
        fitted: dict[bytes, Box3D] = {}  # member indices -> box
        for radius in p.radii:
            labels = dbscan(xy, eps=radius, min_pts=p.min_pts)
            n_clusters = int(labels.max()) + 1 if len(labels) else 0
            for k in range(n_clusters):
                member = labels == k
                if int(member.sum()) < p.min_cluster_size:
                    continue
                idx = sel[member]
                key = idx.tobytes()
                if key not in fitted:
                    fitted[key] = fit_box(dense.xyz[idx], class_id,
                                          yaw_step_deg, fit_criterion)
                candidates.append(BoxCandidate(fitted[key], radius, idx))
    return candidates
