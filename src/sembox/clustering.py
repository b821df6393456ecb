"""Density clustering of foreground points and oriented-box fitting.

Proposals are generated per class at several clustering radii: a small
radius separates adjacent objects, a large one bridges gaps in truncated
or sparse objects. All resulting candidates are pooled; score-based
selection downstream keeps the best per instance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, PointCloud

# Safety margin added to each side of a fitted span so that cluster points
# stay inside the box under floating-point round-trip, not a geometric
# padding: 1e-9 m, or _GUARD_PER_METRE times the summed magnitudes of the
# extents (both BEV spans' ends, or z's) where that is larger, past ~7e4 m,
# since the rounding of the extents, the centre and to_frame grows with them.
_SPAN_GUARD = 1e-9
_GUARD_PER_METRE = 2.0 ** -46

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
            raise ValueError("radii: must be non-empty")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii: must be > 0")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii: must be strictly ascending without duplicates")
        if self.min_pts < 1:
            raise ValueError("min_pts: must be >= 1")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size: must be >= 1")


@dataclass(frozen=True)
class BoxCandidate:
    """A fitted proposal plus its provenance. cluster_point_indices index
    the cloud given to multi_scale_cluster; in generate that is the
    foreground-only dense cloud of pipeline.aggregate_window."""

    box: Box3D
    radius_used: float
    cluster_point_indices: np.ndarray


def _offset_digits(floor: np.ndarray, reach: int, n_groups: int,
                   bits: int) -> tuple[np.ndarray, list[int]] | None:
    """Per axis, each floor's offset from the axis' least floor, plus
    reach, and the radix, the axis' span plus 2 * reach; None when a key of
    these digits would not fit in an int64: when a floor lies beyond
    +-2**53, past which floats no longer hold every integer, or when G
    times the radices' product, shifted by the `bits` index bits, reaches
    2**63."""
    lo, hi = floor.min(axis=1), floor.max(axis=1)
    if max(-lo.min(), hi.max()) > 2.0 ** 53:
        return None
    radices = [int(b) - int(a) + 1 + 2 * reach for a, b in zip(lo, hi)]
    if n_groups * math.prod(radices) << bits >= 1 << 63:
        return None
    return floor.astype(np.int64) - (lo.astype(np.int64) - reach)[:, None], radices


def _ranked_digits(floor: np.ndarray, reach: int) -> tuple[list, list[int]]:
    """Per axis, each floor's digit and the radix, from the axis' distinct
    floors in order: the least is digit reach, and each next one steps up
    by its distance from the last, capped at reach + 1. Floors within
    reach of each other keep their distance; others stay beyond reach."""
    digits, radices = [], []
    for row in floor:
        rows, at = np.unique(row, return_inverse=True)
        steps = np.minimum(np.diff(rows), reach + 1).astype(np.int64)
        ranks = np.r_[reach, reach + np.cumsum(steps)]
        digits.append(ranks[at])
        radices.append(int(ranks[-1]) + reach + 1)
    return digits, radices


class _CellGrid:
    """Points sorted into square cells of side eps_g / sqrt(d), eps_g the
    radius of the point's own group g.

    The side is chosen so that any two points sharing a cell are within eps
    of each other (the cell diagonal is exactly eps), and any two points
    within eps sit in cells no more than `reach` apart per axis. The points
    are ordered by group, then by floored coordinate (the last axis most
    significant), and by index within a cell, as lexsort((*floor, group))
    orders them: cell k, of group group[k], holds
    pts[start[k]:start[k] + length[k]], with bounds lo[k] and hi[k] per
    axis.

    One int64 key per point both orders the points and finds neighbour
    cells. From most to least significant it holds the group, one digit
    per axis (the last axis most significant) and, where it fits, the
    point's index in the low bits. An axis' digits lie in
    [reach, radix - reach), so an offset of at most reach per axis never
    carries into the next digit, and a neighbour is always a cell of the
    same group. Cell k's key without the index is keys[k], and strides
    holds the products of the lower radices.

    A digit is the floor's offset from its axis' least floor, plus reach,
    in a radix of the axis' span plus 2 * reach, and one np.sort of the
    keys gives the order. That key fits when every floor lies within
    +-2**53 and G times the radices' product, shifted by the index bits,
    is below 2**63 (_offset_digits). Otherwise, as for points 1e18 apart,
    each digit is a rank of the axis' distinct floors, with steps capped
    at reach + 1 (_ranked_digits), and a stable argsort of the key
    without index bits keeps index order within a cell. With m distinct
    floors on an axis that radix is below (reach + 1) * (m + 1): the key
    fits for any 2D input of under ~1e9 / sqrt(G) distinct floors per
    axis.
    """

    def __init__(self, points: np.ndarray, eps: np.ndarray, group: np.ndarray):
        n, d = points.shape
        self.reach = r = math.ceil(math.sqrt(d))
        floor = np.divide(points.T, (eps / math.sqrt(d))[group], order="C")
        np.floor(floor, out=floor)  # (d, n), each axis contiguous
        bits = (n - 1).bit_length()
        packed = _offset_digits(floor, r, len(eps), bits)
        digits, radices = packed or _ranked_digits(floor, r)
        key = group.astype(np.int64)
        for axis in reversed(range(d)):
            key = key * radices[axis] + digits[axis]
        if packed:
            key = np.sort((key << bits) | np.arange(n))
            self.order, key = key & ((1 << bits) - 1), key >> bits
        else:
            self.order = np.argsort(key, kind="stable")
            key = key[self.order]
        self.strides = np.cumprod([1, *radices[:-1]])
        self.pts = np.take(points, self.order, axis=0)
        opens = np.r_[True, key[1:] != key[:-1]]
        self.start = np.flatnonzero(opens)
        self.keys = key[self.start]  # ascending: the cells' sort order
        self.length = np.diff(np.r_[self.start, n])
        self.group = group[self.order[self.start]]
        self.cell_of = np.cumsum(opens) - 1
        self.lo = np.minimum.reduceat(self.pts, self.start)
        self.hi = np.maximum.reduceat(self.pts, self.start)

    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, neighbour, offset) for every ordered pair of cells no more
        than `reach` apart per axis, each cell paired with itself too."""
        d = len(self.strides)
        span = np.arange(-self.reach, self.reach + 1)
        offsets = np.stack(np.meshgrid(*[span] * d, indexing="ij"),
                           -1).reshape(-1, d)
        target = self.keys[:, None] + (offsets * self.strides).sum(1)
        pos = np.minimum(np.searchsorted(self.keys, target), len(self.keys) - 1)
        cell, k = np.nonzero(self.keys[pos] == target)
        return cell, pos[cell, k], offsets[k]


# Point pairs a cross-product chunk holds: bounds the memory of a step.
_PAIR_CHUNK = 1 << 20


def _pair_chunks(grid: _CellGrid, ca: np.ndarray, cb: np.ndarray):
    """Yield (k, i, j) over every point i of cell ca[k] times every point j
    of cell cb[k], as positions in grid.pts, in chunks of about
    _PAIR_CHUNK pairs; a larger product is split by rows."""
    a_len, b_len = grid.length[ca], grid.length[cb]
    rows = np.maximum(1, _PAIR_CHUNK // b_len)
    pieces = -(-a_len // rows)
    k = np.repeat(np.arange(len(ca)), pieces)
    skip = (np.arange(len(k)) - np.repeat(np.cumsum(pieces) - pieces, pieces)) * rows[k]
    a_at = grid.start[ca[k]] + skip
    size = np.minimum(rows[k], a_len[k] - skip) * b_len[k]
    chunk = (np.cumsum(size) - size) // _PAIR_CHUNK
    bounds = np.r_[0, np.flatnonzero(np.diff(chunk)) + 1, len(size)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece = np.repeat(np.arange(lo, hi), size[lo:hi])
        r = np.arange(len(piece))
        r -= np.repeat(np.cumsum(size[lo:hi]) - size[lo:hi], size[lo:hi])
        k_at = k[piece]
        i, j = np.divmod(r, b_len[k_at])
        i += a_at[piece]
        j += grid.start[cb[k_at]]
        del piece, r  # only the yielded arrays stay alive while the caller works
        yield k_at, i, j


def _facing_cores(grid: _CellGrid, core: np.ndarray, ca: np.ndarray,
                  cb: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell pair k, the positions in grid.pts of the core of ca[k]
    furthest along off[k] and of the core of cb[k] furthest along
    -off[k], ties to the first; every cell must hold a core. Only the
    points of the given pairs' cells are projected."""
    cells, dirs = np.r_[ca, cb], np.r_[off, -off].astype(np.float64)
    length = grid.length[cells]
    seg = np.repeat(np.arange(len(cells)), length)
    first = np.cumsum(length) - length
    pos = grid.start[cells][seg] + np.arange(len(seg)) - first[seg]
    proj = np.where(core[pos], (np.take(grid.pts, pos, axis=0) * dirs[seg]).sum(1),
                    -np.inf)
    top = np.maximum.reduceat(proj, first)[seg]
    far = np.minimum.reduceat(np.where(proj == top, pos, len(core)), first)
    return far[:len(ca)], far[len(ca):]


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


def dbscan(points: np.ndarray, eps: float | Sequence[float],
           min_pts: int | Sequence[int], group: np.ndarray | None = None
           ) -> np.ndarray:
    """DBSCAN cluster labels per point; -1 marks noise.

    Semantics: a point is core when its eps-neighborhood (inclusive,
    counting itself) holds at least min_pts points; clusters are maximal
    density-connected sets of cores; a border point joins the cluster of
    its nearest core within eps (exact ties to the smaller cluster id), a
    distance-based rule that keeps the partition invariant under input
    permutation. Cluster ids follow each component's smallest point index.

    Groups: with group, an int per point in [0, G), and eps and min_pts as
    sequences of G values, the call clusters G independent point sets at
    once, group g with eps[g] and min_pts[g]; no point is ever a neighbour
    of another group's point, even at equal coordinates. Clusters are
    numbered per group, from 0, by smallest point index, so the labels of
    group g equal those of a lone call on points[group == g]. Scalar eps
    and min_pts with no group are the case G = 1.

    Exact grid implementation (Gunawan 2013; Gan & Tao, SIGMOD 2015),
    vectorised over all cells at once on one copy of the points sorted by
    cell, so every cell is a contiguous segment: cells whose population
    reaches min_pts are wholly core (their diagonal is eps); points of
    sparse cells count their neighbours over the 5x5 (2D) neighbourhood;
    clusters are connected components of core cells, with cell pairs
    linked when some pair of their cores is within eps. A cell pair whose
    bounding boxes lie further apart than eps is never expanded into point
    pairs; the bounds of a whole cell hold its cores and its borders, so
    the reject is exact for both. The link tests run in three tiers,
    cheapest first: each cell's first core, then each cell's core furthest
    along the pair's offset, then every core pair. A later tier sees only
    pairs still in different components; the components, and so the
    labels, are the same whichever tier finds a link. Each group's cells,
    and so its tests, are those a lone call builds.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    min_pts = np.atleast_1d(np.asarray(min_pts))
    if eps.ndim != 1 or eps.shape != min_pts.shape:
        raise ValueError("eps and min_pts must hold one value per group")
    if not (eps > 0).all():
        raise ValueError("eps must be > 0")
    if not (min_pts >= 1).all():
        raise ValueError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2D array of positions")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    n = len(pts)
    if group is None:
        group = np.zeros(n, dtype=np.int64)
    group = np.asarray(group)
    if group.shape != (n,) or group.dtype.kind not in "iu":
        raise ValueError(f"group must hold one integer id per point: "
                         f"{group.dtype} {group.shape} for {n} points")
    if n and not (group.min() >= 0 and group.max() < len(eps)):
        raise ValueError(f"group ids must lie in [0, {len(eps)})")
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels

    grid = _CellGrid(pts, eps, group)
    cell, nbr, off = grid.neighbor_pairs()
    p = grid.pts
    # Each cell's, and each sorted point's, group parameters.
    cell_eps2, cell_min_pts = (eps * eps)[grid.group], min_pts[grid.group]
    eps2 = cell_eps2[grid.cell_of]

    def d2(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        diff = np.take(p, i, axis=0)
        diff -= np.take(p, j, axis=0)
        diff *= diff
        return diff.sum(-1)

    # Exact reject: the gap between two cells' bounds never exceeds the
    # distance of any pair of their points, rounding included.
    gap = np.maximum(np.maximum(grid.lo[nbr] - grid.hi[cell],
                                grid.lo[cell] - grid.hi[nbr]), 0.0)
    near = (gap ** 2).sum(-1) <= cell_eps2[cell]

    # Core points: every point of a cell holding min_pts points; a point of
    # a sparse cell counts its eps-neighbours in the neighbouring cells.
    core = np.repeat(grid.length >= cell_min_pts, grid.length)
    sel = (grid.length[cell] < cell_min_pts[cell]) & near
    count = np.zeros(n, dtype=np.int64)
    for _, i, j in _pair_chunks(grid, cell[sel], nbr[sel]):
        count += np.bincount(i[d2(i, j) <= eps2[i]], minlength=n)
    core |= count >= cell_min_pts[grid.cell_of]
    if not core.any():
        return labels
    at = np.flatnonzero(core)
    opens = np.diff(grid.cell_of[at], prepend=-1) != 0
    first = np.full(len(grid.start), -1)  # each cell's first core
    first[grid.cell_of[at[opens]]] = at[opens]

    # Link core cells in three tiers of exact tests, each later tier only
    # for pairs still in different components: the first core of each cell
    # against the other's; the two cores furthest towards each other along
    # the cells' offset; the full cross product. Every link is a core pair
    # within eps, and a true link a tier skips joins cells already
    # connected, so the components are those of all core pairs within eps.
    sel = (nbr > cell) & (first[cell] >= 0) & (first[nbr] >= 0) & near
    ca, cb, off = cell[sel], nbr[sel], off[sel]
    linked = d2(first[ca], first[cb]) <= cell_eps2[ca]
    root = connected_components(len(first), ca[linked], cb[linked])
    todo = np.flatnonzero(root[ca] != root[cb])
    if len(todo):
        linked[todo] = d2(*_facing_cores(grid, core, ca[todo], cb[todo],
                                         off[todo])) <= cell_eps2[ca[todo]]
        root = connected_components(len(first), ca[linked], cb[linked])
        todo = todo[root[ca[todo]] != root[cb[todo]]]
        if len(todo):
            for k, i, j in _pair_chunks(grid, ca[todo], cb[todo]):
                linked[todo[k[core[i] & core[j] & (d2(i, j) <= eps2[i])]]] = True
            root = connected_components(len(first), ca[linked], cb[linked])

    # Components numbered per group by their smallest core point index, the
    # order in which ascending-seed expansion would discover them: within a
    # cell the points keep ascending index, so the first core is the cell's
    # least. A component's root is one of its cells, so holds its group.
    full = np.flatnonzero(first >= 0)
    least = np.full(len(first), n)
    np.minimum.at(least, root[full], grid.order[first[full]])
    found = np.flatnonzero(least < n)
    found = found[np.lexsort((least[found], grid.group[found]))]
    g = grid.group[found]
    cluster = np.empty(len(first), dtype=np.int64)
    cluster[found] = np.arange(len(found)) - np.searchsorted(g, g)
    sorted_labels = np.where(core, cluster[root[grid.cell_of]], -1)

    # Border points: non-core, adopted by the cluster of their nearest
    # core within eps (exact ties to the smaller cluster id); else noise.
    # Only a sparse cell holds one, and a border point has fewer than
    # min_pts such cores, so all hits fit.
    sel = ~np.logical_and.reduceat(core, grid.start)[cell] & (first[nbr] >= 0) & near
    hit_i, hit_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for _, i, j in _pair_chunks(grid, cell[sel], nbr[sel]):
        keep = ~core[i] & core[j] & (d2(i, j) <= eps2[i])
        hit_i.append(i[keep])
        hit_j.append(j[keep])
    i, j = np.concatenate(hit_i), np.concatenate(hit_j)
    pick = np.lexsort((sorted_labels[j], d2(i, j), i))
    i, j = i[pick], j[pick]
    adopt = np.diff(i, prepend=-1) != 0
    sorted_labels[i[adopt]] = sorted_labels[j[adopt]]
    labels[grid.order] = sorted_labels
    return labels


# Distance floor for the closeness criterion: points closer to an edge
# than this count as on it, capping their vote.
_CLOSENESS_FLOOR = 0.01


def _yaw_angles(yaw_step_deg: float) -> np.ndarray:
    """Candidate yaws of the box fit: [0, 90) degrees at the given step."""
    if yaw_step_deg <= 0:
        raise ValueError("yaw_step_deg must be > 0")
    return np.deg2rad(np.arange(0.0, 90.0, yaw_step_deg))


# Points projected at once by _yaw_extents: its two (yaws x points)
# buffers, allocated once per call, stay in cache for the reductions.
_EXTENT_BLOCK = 256


def _staircases(x: np.ndarray, y: np.ndarray,
                group: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positions of the points that can set each BEV extent of their group,
    for points sorted by (group, x, y): the lower-left, upper-right,
    lower-right and upper-left staircases, which hold the min u, max u,
    min v and max v at every yaw in [0, 90) degrees.

    A run is the points of one group with one x; only its lowest point can
    set a min and only its highest a max. A run's point is kept when it
    lies strictly beyond every run before it (min u: lower; max v: higher)
    or after it (max u: higher; min v: lower) in its group. Every dropped
    point has a kept point of its group that is at least as far left or
    right and at least as low or high, so its projections never beat that
    point's (see _yaw_extents). The scans run over integer keys, a group
    rank above a y rank, so no group's values reach the next.
    """
    opens = np.r_[True, (group[1:] != group[:-1]) | (x[1:] != x[:-1])]
    first = np.flatnonzero(opens)
    last = np.r_[first[1:], len(x)] - 1
    g = group[first]
    m = len(first)
    up, down = g * m, (g[-1] - g) * m  # a later group ranks higher / lower
    low = np.unique(y[first], return_inverse=True)[1]
    high = np.unique(y[last], return_inverse=True)[1]

    def record(key: np.ndarray, beats) -> np.ndarray:
        """Whether each key beats every key before it."""
        best = (np.minimum if beats is np.less else np.maximum).accumulate(key)
        return np.r_[True, beats(key[1:], best[:-1])]

    return (first[record(down + low, np.less)],
            last[record((down + high)[::-1], np.greater)[::-1]],
            first[record((up + low)[::-1], np.less)[::-1]],
            last[record(up + high, np.greater)])


def _yaw_extents(xyz: np.ndarray, group: np.ndarray, n_groups: int,
                 angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per group of points, the least and greatest coordinate in every
    candidate frame: (lo, hi), each (n_groups, 2A + 1) holding u at each
    of the A yaws, then v at each yaw, then z.

    Points must be finite, at least one, and grouped by ascending group
    id. Each extent is reduced over its staircase alone (_staircases),
    projected in blocks of _EXTENT_BLOCK points by the same element-wise
    expressions at every call, u = x c + y s and v = -x s + y c. Every yaw
    lies in [0, 90) degrees, so c > 0 and s >= 0: a product by a
    non-negative constant and a rounded sum are monotone, so u never falls
    as x or y grows, and v never falls as y grows nor rises as x grows. A
    dropped point thus never beats the point that dominates it, and every
    extent is exactly the min/max over all points. Zero extents read +0.0,
    whatever the points' signs of zero or their order. min/max do not
    round: the extents of a union of groups are exactly the element-wise
    min/max of theirs.
    """
    a = len(angles)
    c, s = (np.array([f(t) for t in angles])[:, None] for f in (math.cos, math.sin))
    lo = np.full((2 * a + 1, n_groups), np.inf)
    hi = np.full((2 * a + 1, n_groups), -np.inf)
    start = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    lo[2 * a, group[start]] = np.minimum.reduceat(xyz[:, 2], start)
    hi[2 * a, group[start]] = np.maximum.reduceat(xyz[:, 2], start)

    order = np.lexsort((xyz[:, 1], xyz[:, 0], group))
    x, y, g = xyz[order, 0], xyz[order, 1], group[order]
    min_u, max_u, min_v, max_v = _staircases(x, y, g)
    neg_x = -x
    proj = np.empty((a, _EXTENT_BLOCK))
    term = np.empty((a, _EXTENT_BLOCK))
    # Per staircase: its points, the factors p, q and constants cp, cq of
    # p cp + q cq (u = x c + y s, v = (-x) s + y c), its reduction, its rows.
    for at, p, q, cp, cq, reduce, rows in (
            (min_u, x, y, c, s, np.minimum, lo[:a]),
            (max_u, x, y, c, s, np.maximum, hi[:a]),
            (min_v, neg_x, y, s, c, np.minimum, lo[a:2 * a]),
            (max_v, neg_x, y, s, c, np.maximum, hi[a:2 * a])):
        for b in range(0, len(at), _EXTENT_BLOCK):
            sel = at[b:b + _EXTENT_BLOCK]
            u, t = proj[:, :len(sel)], term[:, :len(sel)]
            np.multiply(p[sel], cp, out=u)
            np.multiply(q[sel], cq, out=t)
            np.add(u, t, out=u)
            gb = g[sel]
            seg = np.flatnonzero(np.r_[True, gb[1:] != gb[:-1]])
            ids = gb[seg]
            rows[:, ids] = reduce(rows[:, ids], reduce.reduceat(u, seg, axis=1))
    lo += 0.0
    hi += 0.0
    return lo.T, hi.T


def _span_guard(*ends: float) -> float:
    """The margin on each side of the spans with these ends (see _SPAN_GUARD)."""
    return max(_SPAN_GUARD, _GUARD_PER_METRE * float(sum(map(abs, ends))))


def _box_from_extents(lo: np.ndarray, hi: np.ndarray, angles: np.ndarray,
                      class_id: int, best: int | None = None) -> Box3D:
    """The box of one point set from its _yaw_extents row: at yaw index
    best, by default the smallest-area yaw (ties to the smaller yaw)."""
    a = len(angles)
    u_min, u_max = lo[:a], hi[:a]
    v_min, v_max = lo[a:2 * a], hi[a:2 * a]
    if best is None:
        best = int(np.argmin((u_max - u_min) * (v_max - v_min)))

    guard = _span_guard(u_min[best], u_max[best], v_min[best], v_max[best])
    span_u = max(float(u_max[best] - u_min[best]), _SPAN_FLOOR) + 2 * guard
    span_v = max(float(v_max[best] - v_min[best]), _SPAN_FLOOR) + 2 * guard
    mid_u = (u_max[best] + u_min[best]) / 2.0
    mid_v = (v_max[best] + v_min[best]) / 2.0
    yaw = float(angles[best])
    cb, sb = math.cos(yaw), math.sin(yaw)
    cx = cb * mid_u - sb * mid_v
    cy = sb * mid_u + cb * mid_v

    z_min, z_max = float(lo[2 * a]), float(hi[2 * a])
    h = max(z_max - z_min, _SPAN_FLOOR) + 2 * _span_guard(z_min, z_max)
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
    canonical (l >= w). All input points are inside the returned box,
    at any distance from the origin: each span gains a guard on both
    sides that grows with its ends' magnitude (see _SPAN_GUARD).
    """
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    if len(xyz) == 0:
        raise ValueError("cannot fit a box to an empty cluster")
    if not np.isfinite(xyz).all():
        raise ValueError("points must be finite")
    angles = _yaw_angles(yaw_step_deg)
    if criterion not in ("area", "closeness"):
        raise ValueError(f"unknown fit criterion {criterion!r}")
    if criterion == "area":
        lo, hi = _yaw_extents(xyz, np.zeros(len(xyz), dtype=np.int64), 1, angles)
        return _box_from_extents(lo[0], hi[0], angles, class_id)

    c, s = (np.array([f(t) for t in angles]) for f in (math.cos, math.sin))
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


def multi_scale_cluster(dense: PointCloud, params: dict[int, ClusterParams],
                        yaw_step_deg: float = 1.0,
                        fit_criterion: str = "area") -> list[BoxCandidate]:
    """Cluster each class at every candidate radius and fit all proposals.

    Clustering distance is BEV (xy only). The union of per-radius fits is
    returned; every candidate records the radius that produced it and the
    dense-cloud indices of its cluster, ascending. A cluster whose members
    a smaller radius already found is a candidate again.

    Run k is the k-th pair of a class with points and one of its radii,
    classes ascending, then radii ascending. One grouped dbscan call
    clusters every run as its own group, with that radius and the class's
    min_pts, so each run's labels are those of a lone call on its points.
    Cluster l of run k is id first_id[k] + l, first_id the runs' cluster
    counts summed before k: the clusters of every class and radius share
    one id space, and ascending ids are the candidate order (class, radius,
    cluster). One bincount of the ids drops every cluster below its
    class's min_cluster_size, and one stable argsort of the ids gives
    every cluster's members.

    Under the "area" criterion each dense point holds its id at every
    radius index, -1 where its class has no cluster or no such radius. One
    lexsort of those columns splits the clustered points into atoms, the
    points that share a cluster at every radius; ids of two classes never
    meet, so no atom spans two classes. One _yaw_extents call gives every
    atom's extents. Per radius index, one reduceat over the atoms gives
    every cluster's extents by id, exactly the min/max over its points,
    and _box_from_extents picks each cluster's smallest-area yaw from
    them: fit_box's box, with every clustered point reduced once rather
    than once per radius. "closeness" sums over every point, so it fits each
    distinct member set once with fit_box.
    """
    angles = _yaw_angles(yaw_step_deg)
    a = len(angles)
    runs = []  # run k: (class_id, params, radius index, dense-cloud indices)
    for class_id in sorted(params):
        sel = np.flatnonzero(dense.class_id == class_id)
        if len(sel):
            runs += [(class_id, params[class_id], r, sel)
                     for r in range(len(params[class_id].radii))]
    if not runs:
        return []
    sizes = [len(sel) for *_, sel in runs]
    run = np.repeat(np.arange(len(runs)), sizes)  # each stacked point's run
    stacked = np.concatenate([sel for *_, sel in runs])
    labels = dbscan(dense.xyz[stacked, :2], [p.radii[r] for _, p, r, _ in runs],
                    [p.min_pts for _, p, _, _ in runs], run)
    count = np.maximum.reduceat(labels, np.cumsum(sizes) - sizes) + 1
    first_id = np.cumsum(count) - count
    ids = np.where(labels >= 0, labels + first_id[run], -1)
    # Indexed by ids + 1: 0 for noise, then each id's min_cluster_size.
    least = np.r_[0, np.repeat([p.min_cluster_size for _, p, _, _ in runs], count)]
    ids[np.bincount(ids + 1)[ids + 1] < least[ids + 1]] = -1
    # Id k's members: members[bounds[k]:bounds[k + 1]].
    members = stacked[np.argsort(ids, kind="stable")]
    bounds = np.cumsum(np.bincount(ids + 1, minlength=len(least)))
    if fit_criterion == "area" and bounds[0] < len(ids):
        # Each dense point's id per radius index; -1 where its class has no
        # cluster there or no such radius.
        at_radius = np.full((max(r for _, _, r, _ in runs) + 1, len(dense)), -1)
        at_radius[np.repeat([r for _, _, r, _ in runs], sizes), stacked] = ids
        clustered = np.flatnonzero((at_radius >= 0).any(axis=0))
        order = clustered[np.lexsort(at_radius[:, clustered])]
        opens = np.r_[True, (np.diff(at_radius[:, order]) != 0).any(axis=0)]
        lo, hi = _yaw_extents(dense.xyz[order], np.cumsum(opens) - 1,
                              int(opens.sum()), angles)
        id_lo, id_hi = np.zeros((2, len(least) - 1, 2 * a + 1))
        for row in at_radius[:, order[opens]]:  # each atom's id at one radius
            by_id = np.argsort(row, kind="stable")
            by_id = by_id[row[by_id] >= 0]
            at = np.flatnonzero(np.diff(row[by_id], prepend=-1))
            k = row[by_id[at]]
            id_lo[k] = np.minimum.reduceat(lo[by_id], at)
            id_hi[k] = np.maximum.reduceat(hi[by_id], at)
    run_of = np.repeat(np.arange(len(runs)), count)  # each id's run
    candidates: list[BoxCandidate] = []
    fitted: dict[bytes, Box3D] = {}  # "closeness": member indices -> box
    for k in np.flatnonzero(np.diff(bounds)):
        class_id, p, r, _ = runs[run_of[k]]
        idx = members[bounds[k]:bounds[k + 1]]
        if fit_criterion == "area":
            box = _box_from_extents(id_lo[k], id_hi[k], angles, class_id)
        else:
            key = idx.tobytes()
            if key not in fitted:
                fitted[key] = fit_box(dense.xyz[idx], class_id, yaw_step_deg,
                                      fit_criterion)
            box = fitted[key]
        candidates.append(BoxCandidate(box, p.radii[r], idx))
    return candidates
