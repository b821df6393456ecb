"""Density clustering of foreground points and oriented-box fitting.

Proposals are generated per class at several clustering radii: a small
radius separates adjacent objects, a large one bridges gaps in truncated
or sparse objects. All resulting candidates are pooled; score-based
selection downstream keeps the best per instance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    connected components of core cells, with cell pairs linked when some
    pair of their cores is within eps. A cell pair whose member bounding
    boxes lie further apart than eps is never expanded into point pairs.
    The link tests run in three tiers, cheapest first: each cell's first
    core, then each cell's core furthest along the pair's offset, then
    every core pair. A later tier sees only pairs still in different
    components; the components, and so the labels, are the same whichever
    tier finds a link.
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

    # Link core cells in three tiers of exact tests, each later tier only
    # for pairs still in different components: the first core of each cell
    # against the other's; the two cores furthest towards each other along
    # the cells' offset; the full cross product. Every link is a core pair
    # within eps, and a true link a tier skips joins cells already
    # connected, so the components are those of all core pairs within eps.
    cores = grid.members(core)
    sel = (nbr > cell) & near(cores, cores, cell, nbr)
    ca, cb, off = cell[sel], nbr[sel], off[sel]
    linked = d2(cores.order[cores.start[ca]], cores.order[cores.start[cb]]) <= eps2
    root = connected_components(len(grid.keys), ca[linked], cb[linked])
    todo = np.flatnonzero(root[ca] != root[cb])
    if len(todo):
        need = np.zeros(len(grid.keys), dtype=bool)
        need[ca[todo]] = need[cb[todo]] = True
        part = grid.members(core & need[grid.cell_of])
        dirs, dir_of = np.unique(off[todo], axis=0, return_inverse=True)
        dir_of = dir_of.reshape(-1)
        dirs = dirs.astype(np.float64)
        linked[todo] = d2(part.extremes(pts, dirs)[ca[todo], dir_of],
                          part.extremes(pts, -dirs)[cb[todo], dir_of]) <= eps2
        root = connected_components(len(grid.keys), ca[linked], cb[linked])
        todo = todo[root[ca[todo]] != root[cb[todo]]]
        if len(todo):
            for k, i, j in _pair_chunks(part, part, ca[todo], cb[todo]):
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


def _yaw_angles(yaw_step_deg: float) -> np.ndarray:
    """Candidate yaws of the box fit: [0, 90) degrees at the given step."""
    if yaw_step_deg <= 0:
        raise ValueError("yaw_step_deg must be > 0")
    return np.deg2rad(np.arange(0.0, 90.0, yaw_step_deg))


# Points projected at once by _yaw_extents: bounds its (yaws x points)
# arrays, and keeps each block's rows in cache for the reductions.
_EXTENT_BLOCK = 1024


def _yaw_extents(xyz: np.ndarray, group: np.ndarray, n_groups: int,
                 angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per group of points, the least and greatest coordinate in every
    candidate frame: (lo, hi), each (n_groups, 2A + 1) holding u at each
    of the A yaws, then v at each yaw, then z.

    Points must be grouped by ascending group id. Each point is projected
    once, in blocks of _EXTENT_BLOCK points, by the same element-wise
    expressions at every call, and min/max do not round: the extents of a
    union of groups are exactly the element-wise min/max of theirs.
    """
    a = len(angles)
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    lo = np.full((2 * a + 1, n_groups), np.inf)
    hi = np.full((2 * a + 1, n_groups), -np.inf)
    for at in range(0, len(xyz), _EXTENT_BLOCK):
        block, g = xyz[at:at + _EXTENT_BLOCK], group[at:at + _EXTENT_BLOCK]
        x, y = block[:, 0], block[:, 1]
        coords = np.empty((2 * a + 1, len(block)))
        coords[:a] = x * c + y * s
        coords[a:2 * a] = -x * s + y * c
        coords[2 * a] = block[:, 2]
        start = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        ids = g[start]
        lo[:, ids] = np.minimum(lo[:, ids], np.minimum.reduceat(coords, start, axis=1))
        hi[:, ids] = np.maximum(hi[:, ids], np.maximum.reduceat(coords, start, axis=1))
    return lo.T, hi.T


def _box_from_extents(lo: np.ndarray, hi: np.ndarray, angles: np.ndarray,
                      class_id: int, best: int | None = None) -> Box3D:
    """The box of one point set from its _yaw_extents row: at yaw index
    best, by default the smallest-area yaw (ties to the smaller yaw)."""
    a = len(angles)
    u_min, u_max = lo[:a], hi[:a]
    v_min, v_max = lo[a:2 * a], hi[a:2 * a]
    if best is None:
        best = int(np.argmin((u_max - u_min) * (v_max - v_min)))

    span_u = max(float(u_max[best] - u_min[best]), _SPAN_FLOOR) + 2 * _SPAN_GUARD
    span_v = max(float(v_max[best] - v_min[best]), _SPAN_FLOOR) + 2 * _SPAN_GUARD
    mid_u = (u_max[best] + u_min[best]) / 2.0
    mid_v = (v_max[best] + v_min[best]) / 2.0
    yaw = float(angles[best])
    cb, sb = math.cos(yaw), math.sin(yaw)
    cx = cb * mid_u - sb * mid_v
    cy = sb * mid_u + cb * mid_v

    z_min, z_max = float(lo[2 * a]), float(hi[2 * a])
    h = max(z_max - z_min, _SPAN_FLOOR) + 2 * _SPAN_GUARD
    cz = (z_min + z_max) / 2.0
    return Box3D(cx, cy, cz, span_u, span_v, h, yaw, class_id)


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
    angles = _yaw_angles(yaw_step_deg)
    if criterion not in ("area", "closeness"):
        raise ValueError(f"unknown fit criterion {criterion!r}")
    if criterion == "area":
        lo, hi = _yaw_extents(xyz, np.zeros(len(xyz), dtype=np.int64), 1, angles)
        return _box_from_extents(lo[0], hi[0], angles, class_id)

    c, s = np.cos(angles), np.sin(angles)
    x, y = xyz[:, 0:1], xyz[:, 1:2]
    # Coordinates of every point in every candidate frame, shape (N, A).
    u = x * c + y * s
    v = -x * s + y * c
    u_min, u_max = u.min(axis=0), u.max(axis=0)
    v_min, v_max = v.min(axis=0), v.max(axis=0)
    edge = np.minimum(np.minimum(u - u_min, u_max - u),
                      np.minimum(v - v_min, v_max - v))
    score = (1.0 / np.maximum(edge, _CLOSENESS_FLOOR)).sum(axis=0)
    return _box_from_extents(np.r_[u_min, v_min, xyz[:, 2].min()],
                             np.r_[u_max, v_max, xyz[:, 2].max()],
                             angles, class_id, int(np.argmax(score)))


def _atom_fitter(xyz: np.ndarray, labels: np.ndarray, angles: np.ndarray,
                 class_id: int) -> Callable[[np.ndarray], Box3D]:
    """A function from a cluster's members (column indices of labels,
    radii x points, -1 for no cluster) to its area-criterion box, built
    from the yaw extents of its atoms (see multi_scale_cluster). Each
    point of some cluster is projected once, here."""
    clustered = np.flatnonzero((labels >= 0).any(axis=0))
    atom = np.zeros(len(clustered), dtype=np.int64)
    for lab in labels[:, clustered]:
        atom = np.unique(atom * (int(lab.max()) + 2) + lab + 1,
                         return_inverse=True)[1].reshape(-1)
    order = clustered[np.argsort(atom, kind="stable")]
    atom_of = np.full(labels.shape[1], -1)
    atom_of[clustered] = atom
    lo, hi = _yaw_extents(xyz[order], atom_of[order], int(atom.max()) + 1,
                          angles)

    def box(member: np.ndarray) -> Box3D:
        atoms = np.unique(atom_of[member])
        return _box_from_extents(lo[atoms].min(axis=0), hi[atoms].max(axis=0),
                                 angles, class_id)
    return box


def multi_scale_cluster(dense: PointCloud, params: dict[int, ClusterParams],
                        yaw_step_deg: float = 1.0,
                        fit_criterion: str = "area") -> list[BoxCandidate]:
    """Cluster each class at every candidate radius and fit all proposals.

    Clustering distance is BEV (xy only). The union of per-radius fits is
    returned; every candidate records the radius that produced it and the
    dense-cloud indices of its cluster. A cluster whose members a smaller
    radius already found is a candidate again, with the box fitted then.

    Under the "area" criterion each class's points are split into atoms,
    the points that share a cluster at every radius (clusters below
    min_cluster_size counting as noise). Each atom's yaw extents are
    computed once, and a cluster's box comes from the min/max over its
    atoms' extents: exactly fit_box's box, with every point projected once
    per class rather than once per radius. "closeness" sums over every
    point, so it fits each distinct member set with fit_box.
    """
    angles = _yaw_angles(yaw_step_deg)
    candidates: list[BoxCandidate] = []
    for class_id in sorted(params):
        p = params[class_id]
        sel = np.flatnonzero(dense.class_id == class_id)
        if len(sel) == 0:
            continue
        xy = dense.xyz[sel, :2]
        # Per radius, each point's cluster; -1 for noise and small clusters.
        labels = np.empty((len(p.radii), len(sel)), dtype=np.int64)
        for r, radius in enumerate(p.radii):
            lab = dbscan(xy, eps=radius, min_pts=p.min_pts)
            big = np.bincount(lab + 1)[lab + 1] >= p.min_cluster_size
            labels[r] = np.where((lab >= 0) & big, lab, -1)
        if not (labels >= 0).any():
            continue
        if fit_criterion == "area":
            fit = _atom_fitter(dense.xyz[sel], labels, angles, class_id)
        else:
            def fit(member: np.ndarray) -> Box3D:
                return fit_box(dense.xyz[sel[member]], class_id, yaw_step_deg,
                               fit_criterion)
        fitted: dict[bytes, Box3D] = {}  # member indices -> box
        for radius, lab in zip(p.radii, labels):
            for k in np.unique(lab[lab >= 0]):
                member = np.flatnonzero(lab == k)
                idx = sel[member]
                key = idx.tobytes()
                if key not in fitted:
                    fitted[key] = fit(member)
                candidates.append(BoxCandidate(fitted[key], radius, idx))
    return candidates
