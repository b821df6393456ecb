import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sembox import clustering
from sembox.clustering import ClusterParams, dbscan, fit_box, multi_scale_cluster
from sembox.geometry import PointCloud, points_in_box


def brute_force_dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Independent O(n^2) reference: full distance matrix, seed-order core
    expansion, then nearest-core border adoption (ties to smaller id)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    neighbors = [np.flatnonzero(d2[i] <= eps * eps) for i in range(n)]
    is_core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != -1 or not is_core[seed]:
            continue
        labels[seed] = cluster
        stack = [seed]
        while stack:
            j = stack.pop(0)
            for k in neighbors[j]:
                if is_core[k] and labels[k] == -1:
                    labels[k] = cluster
                    stack.append(int(k))
        cluster += 1
    for j in range(n):
        if is_core[j] or labels[j] != -1:
            continue
        best = None
        for k in neighbors[j]:
            if is_core[k]:
                key = (d2[j, k], labels[k])
                if best is None or key < best:
                    best = key
        if best is not None:
            labels[j] = best[1]
    return labels


def dense_yaw_extents(xyz: np.ndarray, group: np.ndarray, n_groups: int,
                      angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for clustering._yaw_extents: every point projected at
    every yaw by the same element-wise expressions, each group reduced
    over all of its points."""
    a = len(angles)
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    x, y = xyz[:, 0], xyz[:, 1]
    coords = np.empty((2 * a + 1, len(xyz)))
    coords[:a] = x * c + y * s
    coords[a:2 * a] = -x * s + y * c
    coords[2 * a] = xyz[:, 2]
    lo = np.full((2 * a + 1, n_groups), np.inf)
    hi = np.full((2 * a + 1, n_groups), -np.inf)
    start = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    lo[:, group[start]] = np.minimum.reduceat(coords, start, axis=1)
    hi[:, group[start]] = np.maximum.reduceat(coords, start, axis=1)
    return lo.T, hi.T


def canonical_partition(labels: np.ndarray):
    """(cluster frozensets ordered by smallest member, noise set)."""
    clusters = {}
    for i, lab in enumerate(labels):
        if lab >= 0:
            clusters.setdefault(int(lab), set()).add(i)
    ordered = sorted(clusters.values(), key=min)
    noise = frozenset(np.flatnonzero(labels < 0).tolist())
    return [frozenset(c) for c in ordered], noise


class TestDbscan:
    def test_two_groups(self, rng):
        g1 = rng.normal(0, 0.05, (10, 2))
        g2 = rng.normal(0, 0.05, (10, 2)) + [10, 0]
        labels = dbscan(np.concatenate([g1, g2]), eps=0.5, min_pts=3)
        assert set(labels[:10]) == {0}
        assert set(labels[10:]) == {1}

    def test_isolated_point_is_noise(self):
        assert dbscan(np.array([[0.0, 0.0]]), eps=1.0, min_pts=2).tolist() == [-1]

    def test_empty_input(self):
        assert dbscan(np.zeros((0, 2)), eps=1.0, min_pts=3).size == 0

    def test_eps_inclusive_self_counting(self):
        # Two points exactly eps apart; min_pts=2 counts self + the other.
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        labels = dbscan(pts, eps=0.5, min_pts=2)
        assert labels.tolist() == [0, 0]

    def test_matches_brute_force_2d(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 120))
            pts = rng.uniform(-5, 5, (n, 2))
            eps = float(rng.uniform(0.2, 2.0))
            min_pts = int(rng.integers(1, 8))
            got = canonical_partition(dbscan(pts, eps, min_pts))
            want = canonical_partition(brute_force_dbscan(pts, eps, min_pts))
            assert got == want

    def test_matches_brute_force_3d(self, rng):
        for _ in range(10):
            pts = rng.uniform(-4, 4, (int(rng.integers(5, 80)), 3))
            eps = float(rng.uniform(0.3, 2.0))
            got = canonical_partition(dbscan(pts, eps, 4))
            want = canonical_partition(brute_force_dbscan(pts, eps, 4))
            assert got == want

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariant_partition(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4, 4, (60, 2))
        perm = rng.permutation(60)
        base = canonical_partition(dbscan(pts, 0.8, 4))
        shuffled = dbscan(pts[perm], 0.8, 4)
        # Map shuffled labels back to original indexing before comparing.
        unshuffled = np.full(60, -1, dtype=np.int64)
        unshuffled[perm] = shuffled
        got = canonical_partition(unshuffled)
        assert got == base

    def test_labels_equal_brute_force_with_ties(self, rng):
        # Rounded coordinates give duplicate points and equidistant cores,
        # so cluster numbering and the border tie rule are both pinned.
        for _ in range(30):
            dim = int(rng.choice([2, 3]))
            pts = np.round(rng.normal(0, 1.5, (int(rng.integers(5, 120)), dim)), 1)
            eps = float(rng.choice([0.2, 0.3, 0.5, 1.0]))
            min_pts = int(rng.integers(1, 8))
            np.testing.assert_array_equal(dbscan(pts, eps, min_pts),
                                          brute_force_dbscan(pts, eps, min_pts))

    def test_far_outliers_stay_noise(self):
        # Coordinates this far apart overflow a key of floor offsets; the
        # ranked keys compress the empty stretches between occupied floors.
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0],
                        [1e18, 1e18], [1e18 + 1e3, 0.0]])
        assert dbscan(pts, 0.15, 2).tolist() == [0, 0, 0, -1, -1]

    def test_small_pair_chunks_change_nothing(self, rng, monkeypatch):
        pts = np.concatenate([rng.normal(0, 0.4, (150, 2)),
                              rng.uniform(-3, 3, (50, 2))])
        want = dbscan(pts, 0.3, 4)
        monkeypatch.setattr(clustering, "_PAIR_CHUNK", 7)
        np.testing.assert_array_equal(dbscan(pts, 0.3, 4), want)
        np.testing.assert_array_equal(want, brute_force_dbscan(pts, 0.3, 4))

    @pytest.mark.parametrize("pair_chunk", [None, 7])
    @pytest.mark.parametrize("min_pts", [4, 60])
    def test_dense_cells_equal_brute_force(self, rng, monkeypatch, min_pts,
                                           pair_chunk):
        # A small patch holds up to ~75 points per cell, as an aggregated
        # window does (about 130 on perf_scene), and a sparse fringe around
        # it has cells of one or two points, counted point by point. At
        # min_pts 60 some patch cells are counted point by point too.
        eps = 0.3
        patch = rng.uniform(0, 1, (1200, 2)) * [1.0, 0.8]
        pts = np.round(np.concatenate([patch, rng.uniform(-1.5, 2.5, (150, 2))]), 2)
        _, per_cell = np.unique(np.floor(pts / (eps / math.sqrt(2))), axis=0,
                                return_counts=True)
        assert (np.repeat(per_cell, per_cell) >= 50).mean() > 0.5
        assert (per_cell < min_pts).any()
        if pair_chunk:
            monkeypatch.setattr(clustering, "_PAIR_CHUNK", pair_chunk)
        np.testing.assert_array_equal(dbscan(pts, eps, min_pts),
                                      brute_force_dbscan(pts, eps, min_pts))

    # Two core cells of side 1/sqrt(2) at eps 1, min_pts 1: cell (0, 0)
    # and cell (1, 0) or (2, 0). Each pair is linked by exactly one tier.
    LINKED_BY_FIRST_CORES = [[0.1, 0.1], [0.8, 0.1]]
    # The first cores are 1.45 apart; the cores furthest along the
    # offset (1, 0) are 0.85 apart.
    LINKED_BY_EXTREMES = [[0.05, 0.1], [0.65, 0.1], [1.5, 0.1]]
    # The cores furthest towards each other along (1, 0), (0.70, 0) and
    # (1.42, 0.70), are 1.004 apart; (0.69, 0.69) and (1.42, 0.70) are
    # 0.73 apart.
    LINKED_BY_CROSS_PRODUCT = [[0.0, 0.0], [0.70, 0.0], [0.69, 0.69],
                               [1.42, 0.70]]

    @pytest.mark.parametrize("pts, tiers", [(LINKED_BY_FIRST_CORES, 1),
                                            (LINKED_BY_EXTREMES, 2),
                                            (LINKED_BY_CROSS_PRODUCT, 3)],
                             ids=["first-cores", "extremes", "cross-product"])
    def test_each_link_tier(self, pts, tiers, monkeypatch):
        # Each tier that runs ends in one connected_components call, and
        # only the second and third tiers find the facing cores, once.
        calls = {"components": 0, "extremes": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper
        monkeypatch.setattr(clustering, "connected_components",
                            counted("components", clustering.connected_components))
        monkeypatch.setattr(clustering, "_facing_cores",
                            counted("extremes", clustering._facing_cores))
        pts = np.array(pts)
        labels = dbscan(pts, 1.0, 1)
        assert labels.tolist() == [0] * len(pts)
        np.testing.assert_array_equal(labels, brute_force_dbscan(pts, 1.0, 1))
        assert calls == {"components": tiers, "extremes": int(tiers > 1)}

    @settings(max_examples=150, deadline=None)
    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
           decimals=st.sampled_from([1, 2]), eps=st.sampled_from([0.2, 0.3, 0.5]),
           min_pts=st.integers(1, 6), collinear=st.integers(0, 30),
           outlier=st.booleans())
    def test_clustered_data_equals_brute_force(self, dim, seed, decimals, eps,
                                               min_pts, collinear, outlier):
        # Blobs with rounded coordinates (duplicates, equidistant cores),
        # a collinear row of evenly spaced points and a far outlier.
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-3, 3, (int(rng.integers(1, 5)), dim))
        blobs = (centers[rng.integers(0, len(centers), 80)]
                 + rng.normal(0, 0.3, (80, dim)))
        row = np.zeros((collinear, dim))
        row[:, 0] = np.arange(collinear) * eps * rng.choice([0.5, 1.0])
        pts = np.round(np.concatenate([blobs, row]), decimals)
        if outlier:
            pts = np.concatenate([pts, np.full((1, dim), 1e9)])
        np.testing.assert_array_equal(dbscan(pts, eps, min_pts),
                                      brute_force_dbscan(pts, eps, min_pts))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 2)), eps=0.0, min_pts=3)
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 2)), eps=1.0, min_pts=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        # A NaN used to fall into some cell and mislabel its finite points.
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            dbscan(pts, eps=0.15, min_pts=2)


class TestGroupedDbscan:
    """One dbscan call over G groups labels each group as a lone call on
    its points does, and as the brute-force reference does."""

    @staticmethod
    def groups(rng: np.random.Generator, n_groups: int, dim: int):
        """Point sets with their own eps and min_pts: rounded blobs that
        overlap in space and hold duplicates, one point (at times
        repeated), and repeats of the group before, as one class clustered
        at several radii gives."""
        parts, eps, min_pts = [], [], []
        for _ in range(n_groups):
            kind = int(rng.integers(3))
            if kind == 0 and parts:
                xy = parts[-1]
            elif kind == 1:
                xy = np.repeat(np.round(rng.uniform(-1, 1, (1, dim)), 1),
                               int(rng.integers(1, 4)), axis=0)
            else:
                n = int(rng.integers(2, 60))
                xy = np.round(rng.normal(rng.uniform(-1, 1, dim),
                                         rng.uniform(0.2, 1.2), (n, dim)), 1)
            parts.append(xy)
            eps.append(float(rng.choice([0.2, 0.3, 0.5, 1.0])))
            min_pts.append(int(rng.integers(1, 6)))
        group = np.repeat(np.arange(n_groups), [len(xy) for xy in parts])
        return np.concatenate(parts), group, eps, min_pts

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_groups=st.integers(1, 5),
           dim=st.sampled_from([2, 3]), shuffle=st.booleans())
    def test_groups_equal_lone_calls(self, seed, n_groups, dim, shuffle):
        rng = np.random.default_rng(seed)
        pts, group, eps, min_pts = self.groups(rng, n_groups, dim)
        if shuffle:
            perm = rng.permutation(len(pts))
            pts, group = pts[perm], group[perm]
        got = dbscan(pts, eps, min_pts, group)
        for g in range(n_groups):
            mine = group == g
            lone = dbscan(pts[mine], eps[g], min_pts[g])
            np.testing.assert_array_equal(got[mine], lone)
            np.testing.assert_array_equal(
                lone, brute_force_dbscan(pts[mine], eps[g], min_pts[g]))

    def test_equal_points_in_two_groups_stay_apart(self):
        # Two groups at the same coordinates: neither sees the other's
        # points, so neither reaches min_pts 3 with two points.
        pts = np.array([[0.0, 0.0], [0.1, 0.0]] * 2)
        got = dbscan(pts, [0.5, 0.5], [3, 3], np.array([0, 0, 1, 1]))
        assert got.tolist() == [-1] * 4
        assert dbscan(pts, 0.5, 3).tolist() == [0] * 4

    @pytest.mark.parametrize("group", [np.zeros(2, dtype=np.int64),
                                       np.zeros((3, 1), dtype=np.int64),
                                       np.zeros(3)],
                             ids=["short", "2d", "float"])
    def test_group_must_hold_one_integer_per_point(self, group):
        with pytest.raises(ValueError, match="group must hold one integer id"):
            dbscan(np.zeros((3, 2)), [1.0], [2], group)

    @pytest.mark.parametrize("bad", [-1, 2], ids=["negative", "too-large"])
    def test_group_ids_must_be_in_range(self, bad):
        with pytest.raises(ValueError, match=r"group ids must lie in \[0, 2\)"):
            dbscan(np.zeros((3, 2)), [1.0, 2.0], [2, 2], np.array([0, 1, bad]))

    @pytest.mark.parametrize("eps", [[1.0, 0.0], [-1.0, 1.0], [np.nan, 1.0]])
    def test_every_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            dbscan(np.zeros((3, 2)), eps, [2, 2], np.array([0, 1, 1]))

    @pytest.mark.parametrize("min_pts", [[2, 0], [-1, 2]])
    def test_every_min_pts_must_be_at_least_one(self, min_pts):
        with pytest.raises(ValueError, match="min_pts must be >= 1"):
            dbscan(np.zeros((3, 2)), [1.0, 1.0], min_pts, np.array([0, 1, 1]))

    def test_eps_and_min_pts_lengths_must_agree(self):
        with pytest.raises(ValueError, match="eps and min_pts"):
            dbscan(np.zeros((3, 2)), [1.0, 2.0], [2], np.zeros(3, dtype=np.int64))


# Coordinates near 0 that tie and cross cell borders, signed zeros included.
_NEAR = np.array([0.0, -0.0, 0.1, -0.1, 0.25, -0.7, 1.0, -3.0, 12.5])


def _cell_input(seed: int, dim: int, n_groups: int, far: bool):
    """Points, eps per group and group ids for a _CellGrid: duplicate
    points, +-0.0 and negative coordinates, and with far some coordinates
    at up to +-1e18 beside the points near 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    pts = np.where(rng.integers(2, size=(n, dim)), rng.choice(_NEAR, (n, dim)),
                   np.round(rng.normal(0, 5, (n, dim)), 1))
    pts = pts[rng.integers(0, n, n)]  # duplicate points
    if far:
        at = rng.integers(0, n, int(rng.integers(1, n + 1)))
        pts[at, rng.integers(0, dim, len(at))] = rng.choice(
            [1e18, -1e18, 3e17, -5.5e17], len(at))
    return pts, rng.choice([0.2, 0.3, 0.5, 1.0], n_groups), rng.integers(0, n_groups, n)


class TestCellOrder:
    """_CellGrid orders points as lexsort((*floor, group)) does, by one
    int64 key: floor offsets where they fit, ranked floors where they do
    not."""

    @staticmethod
    def ranked_calls(monkeypatch) -> list:
        """Spy on the wide path: one entry per _ranked_digits call."""
        calls, ranked = [], clustering._ranked_digits

        def spy(*args):
            calls.append(args)
            return ranked(*args)

        monkeypatch.setattr(clustering, "_ranked_digits", spy)
        return calls

    @pytest.mark.parametrize("far", [False, True], ids=["packed", "ranked"])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n_groups=st.integers(1, 5))
    def test_order_equals_lexsort(self, seed, dim, n_groups, far, monkeypatch):
        pts, eps, group = _cell_input(seed, dim, n_groups, far)
        with monkeypatch.context() as patch:  # undone before the next example
            calls = self.ranked_calls(patch)
            grid = clustering._CellGrid(pts, eps, group)
        want = np.lexsort((*np.floor(pts.T / (eps / math.sqrt(dim))[group]), group))
        assert grid.order.tobytes() == want.tobytes()
        assert (np.diff(grid.keys) > 0).all()
        assert len(calls) == far

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n_groups=st.integers(1, 5))
    def test_wide_path_builds_the_same_grid(self, seed, dim, n_groups, monkeypatch):
        # Offsets and ranks give different keys, but the same cells in the
        # same order, and the same neighbours at the same offsets.
        pts, eps, group = _cell_input(seed, dim, n_groups, far=False)
        with monkeypatch.context() as patch:  # undone before the next example
            calls = self.ranked_calls(patch)
            grid = clustering._CellGrid(pts, eps, group)
            patch.setattr(clustering, "_offset_digits", lambda *args: None)
            wide = clustering._CellGrid(pts, eps, group)
        assert len(calls) == 1  # the forced grid only
        for g in (grid, wide):
            assert (np.diff(g.keys) > 0).all()
        for name in ("order", "start", "length"):
            assert getattr(grid, name).tobytes() == getattr(wide, name).tobytes()
        for a, b in zip(grid.neighbor_pairs(), wide.neighbor_pairs()):
            assert a.tobytes() == b.tobytes()

    def test_floors_enter_the_key_as_offsets(self):
        # Side 1. As raw digits, the floors 2**52 - 1 and 2**52 of y would
        # put the second point's key past 2**63, where it wraps below the
        # first's; as offsets from the least floor they are 0 and 1.
        pts = np.array([[0.0, 2.0**52], [1023.0, 2.0**52 - 1]])
        grid = clustering._CellGrid(pts, np.array([math.sqrt(2)]), np.zeros(2, int))
        assert clustering._offset_digits(np.floor(pts.T), 2, 1, 1) is not None
        assert grid.order.tolist() == [1, 0]

    def test_floors_past_2_53_take_the_wide_path(self, monkeypatch):
        # Side 1: the floors 1e19 and 1e19 + 4096 lie past 2**63, where
        # float to int64 overflows. Side ~7e-301: 1e308's floor is inf.
        calls = self.ranked_calls(monkeypatch)
        pts = np.array([[1e19 + 4096, 0.0], [1e19, 0.0]])
        grid = clustering._CellGrid(pts, np.array([math.sqrt(2)]), np.zeros(2, int))
        assert grid.order.tolist() == [1, 0] and len(grid.start) == 2
        pts = np.array([[1e308, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            grid = clustering._CellGrid(pts, np.array([1e-300]), np.zeros(2, int))
        assert grid.order.tolist() == [1, 0] and len(grid.start) == 2
        assert len(calls) == 2

    def test_padding_alone_takes_the_wide_path(self, monkeypatch):
        # Side 1, 4 points, so 2 index bits. The spans 2**30 and 2**31 - 1
        # fit: 2**30 * (2**31 - 1) << 2 < 2**63. Padded by 2 * reach = 4
        # per axis they do not.
        x, y = 2**30 - 1, 2**31 - 2
        pts = np.array([[x, 0.0], [0.0, y], [0.0, 0.0], [5.0, y]])
        assert (x + 1) * (y + 1) << 2 < 1 << 63 <= (x + 5) * (y + 5) << 2
        calls = self.ranked_calls(monkeypatch)
        grid = clustering._CellGrid(pts, np.array([math.sqrt(2)]), np.zeros(4, int))
        assert len(calls) == 1
        assert grid.order.tolist() == np.lexsort(np.floor(pts.T)).tolist() == [2, 0, 1, 3]


def rectangle_outline(l, w, yaw, n_per_side=50, z=(0.0, 1.5)):
    t = np.linspace(-0.5, 0.5, n_per_side)
    side = np.concatenate([
        np.column_stack([t * l, np.full(n_per_side, -w / 2)]),
        np.column_stack([t * l, np.full(n_per_side, w / 2)]),
        np.column_stack([np.full(n_per_side, -l / 2), t * w]),
        np.column_stack([np.full(n_per_side, l / 2), t * w]),
    ])
    c, s = math.cos(yaw), math.sin(yaw)
    xy = side @ np.array([[c, s], [-s, c]])
    zs = np.tile(np.linspace(z[0], z[1], 4), len(xy) // 4 + 1)[:len(xy)]
    return np.column_stack([xy, zs])


class TestFitBox:
    def test_axis_aligned_rectangle(self):
        box = fit_box(rectangle_outline(4, 2, 0.0), class_id=1)
        assert box.l == pytest.approx(4.0, abs=0.01)
        assert box.w == pytest.approx(2.0, abs=0.01)
        assert box.yaw % (math.pi / 2) == pytest.approx(0.0, abs=math.radians(1.01)) \
            or (math.pi / 2 - box.yaw % (math.pi / 2)) <= math.radians(1.01)

    def test_rotated_rectangle(self):
        yaw = math.radians(30)
        box = fit_box(rectangle_outline(4, 2, yaw), class_id=1)
        dev = abs((box.yaw - yaw + math.pi / 2) % math.pi - math.pi / 2)
        assert dev <= math.radians(1.01)
        assert box.l == pytest.approx(4.0, abs=0.02)
        assert box.w == pytest.approx(2.0, abs=0.02)

    def test_l_shape_contains_all_and_beats_axis_aligned(self, rng):
        # Two visible faces only.
        a = np.column_stack([rng.uniform(-2.3, 2.3, 80), np.full(80, -0.9),
                             rng.uniform(0, 1.5, 80)])
        b = np.column_stack([np.full(40, 2.3), rng.uniform(-0.9, 0.9, 40),
                             rng.uniform(0, 1.5, 40)])
        yaw = 0.6
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        pts = np.concatenate([a, b]) @ rot.T + [5, 3, 0]
        box = fit_box(pts, class_id=1)
        assert points_in_box(pts, box).all()
        aligned_area = np.ptp(pts[:, 0]) * np.ptp(pts[:, 1])
        assert box.bev_area <= aligned_area + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_area_never_exceeds_axis_aligned(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, (int(rng.integers(2, 60)), 3))
        box = fit_box(pts, class_id=1)
        assert points_in_box(pts, box).all()
        aligned = max(np.ptp(pts[:, 0]), 1e-3) * max(np.ptp(pts[:, 1]), 1e-3)
        assert box.bev_area <= aligned * (1 + 1e-9) + 1e-6

    def test_closeness_criterion_on_sparse_uneven_l(self, rng):
        # Short arm dense, long arm sparse: the area landscape is nearly
        # flat and minimum area drifts; closeness locks onto the faces.
        yaw = math.radians(20)
        long_arm = np.column_stack([rng.uniform(-2.3, 2.3, 18),
                                    np.full(18, 0.9), rng.uniform(0, 1.5, 18)])
        short_arm = np.column_stack([np.full(45, -2.3),
                                     rng.uniform(-0.9, 0.9, 45),
                                     rng.uniform(0, 1.5, 45)])
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        pts = np.concatenate([long_arm, short_arm]) @ rot.T + [45, 3, 0]
        box = fit_box(pts, class_id=1, criterion="closeness")
        dev = abs((box.yaw - yaw + math.pi / 2) % math.pi - math.pi / 2)
        assert dev <= math.radians(1.01)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            fit_box(np.zeros((0, 3)), class_id=1)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            fit_box(np.zeros((3, 3)), 1, criterion="entropy")


def two_blob_cloud(gap, n=40, rng=None, z=0.5):
    rng = rng or np.random.default_rng(0)
    a = np.column_stack([rng.uniform(0, 2.0, n), rng.uniform(0, 1.0, n),
                         np.full(n, z)])
    b = a + [2.0 + gap, 0, 0]
    xyz = np.concatenate([a, b])
    return PointCloud(xyz, np.ones(len(xyz), dtype=np.int32))


class TestMultiScale:
    def test_adjacent_blobs_small_and_merged_candidates(self, rng):
        cloud = two_blob_cloud(0.4, rng=rng)
        params = {1: ClusterParams((0.3, 1.0), min_pts=3, min_cluster_size=5)}
        cands = multi_scale_cluster(cloud, params)
        by_radius = {}
        for c in cands:
            by_radius.setdefault(c.radius_used, []).append(c)
        assert len(by_radius[0.3]) == 2
        assert len(by_radius[1.0]) == 1
        merged = by_radius[1.0][0]
        assert merged.box.l >= 4.0  # spans both blobs

    def test_truncated_parts_bridged_by_large_radius(self, rng):
        cloud = two_blob_cloud(0.8, rng=rng)
        params = {1: ClusterParams((0.3, 1.0), min_pts=3, min_cluster_size=5)}
        cands = multi_scale_cluster(cloud, params)
        large = [c for c in cands if c.radius_used == 1.0]
        assert len(large) == 1
        assert large[0].box.l >= 4.0

    def test_empty_foreground(self):
        cloud = PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int32))
        assert multi_scale_cluster(cloud, {1: ClusterParams((0.5,))}) == []

    def test_candidates_contain_their_points(self, rng):
        cloud = two_blob_cloud(0.6, rng=rng)
        params = {1: ClusterParams((0.3, 0.7, 1.2), min_pts=3, min_cluster_size=4)}
        for cand in multi_scale_cluster(cloud, params):
            member_xyz = cloud.xyz[cand.cluster_point_indices]
            assert points_in_box(member_xyz, cand.box).all()

    @pytest.mark.parametrize("criterion", ["area", "closeness"])
    @pytest.mark.parametrize("offset", [1e8, 1e12, 1e15])
    def test_far_candidates_contain_their_points(self, offset, criterion):
        # Far from the origin the rounding of the extents, the centre and
        # to_frame outgrows a fixed 1e-9 m guard.
        params = {1: ClusterParams((0.5, 1.0, 1.5, 2.0), min_pts=3, min_cluster_size=4)}
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xyz = (rng.uniform([0, 0, 0], [4, 2, 1.5], (80, 3))
                   + [offset, -0.7 * offset, 0.3 * offset])
            cloud = PointCloud(xyz, np.ones(80, dtype=np.int32))
            cands = multi_scale_cluster(cloud, params, 1.0, criterion)
            assert cands
            for cand in cands:
                assert points_in_box(xyz[cand.cluster_point_indices], cand.box).all()

    def test_adding_radius_keeps_existing_candidates(self, rng):
        cloud = two_blob_cloud(0.5, rng=rng)
        small = multi_scale_cluster(
            cloud, {1: ClusterParams((0.35,), min_pts=3, min_cluster_size=4)})
        both = multi_scale_cluster(
            cloud, {1: ClusterParams((0.35, 1.1), min_pts=3, min_cluster_size=4)})
        small_boxes = {(c.box.cx, c.box.cy, c.box.l, c.box.w, c.box.yaw)
                       for c in small}
        both_boxes = {(c.box.cx, c.box.cy, c.box.l, c.box.w, c.box.yaw)
                      for c in both}
        assert small_boxes <= both_boxes

    def test_fits_each_distinct_member_set_once(self, rng, monkeypatch):
        blobs = two_blob_cloud(1.0, rng=rng)
        # Class 2 repeats class 1's points 5 m away: equal-sized member
        # sets of two classes are fitted apart.
        cloud = PointCloud(np.concatenate([blobs.xyz, blobs.xyz + [0, 5, 0]]),
                           np.repeat([1, 2], len(blobs)))
        params = {c: ClusterParams((0.5, 0.6, 1.2, 1.6), min_pts=3,
                                   min_cluster_size=4) for c in (1, 2)}
        fits = []

        def counting(xyz, class_id, *args):
            fits.append(class_id)
            return fit_box(xyz, class_id, *args)

        monkeypatch.setattr(clustering, "fit_box", counting)
        cands = multi_scale_cluster(cloud, params, 2.0, "closeness")
        distinct = {(c.box.class_id, c.cluster_point_indices.tobytes())
                    for c in cands}
        assert len(fits) == len(distinct) < len(cands)
        assert sorted(fits) == sorted(cid for cid, _ in distinct)
        for c in cands:
            assert c.box == fit_box(cloud.xyz[c.cluster_point_indices],
                                    c.box.class_id, 2.0, "closeness")

    def test_area_candidates_project_each_point_once(self, rng, monkeypatch):
        blobs = two_blob_cloud(0.5, rng=rng)
        cloud = PointCloud(np.concatenate([blobs.xyz, blobs.xyz + [0, 9, 0]]),
                           np.repeat([1, 2], len(blobs)))
        params = {c: ClusterParams((0.35, 0.6, 1.1, 1.6), min_pts=3,
                                   min_cluster_size=4) for c in (1, 2)}
        projected = []

        def counting(xyz, *args):
            projected.append(len(xyz))
            return extents(xyz, *args)

        extents = clustering._yaw_extents
        monkeypatch.setattr(clustering, "_yaw_extents", counting)
        cands = multi_scale_cluster(cloud, params)
        clustered = [len(np.unique(np.concatenate(
            [c.cluster_point_indices for c in cands if c.box.class_id == cid])))
            for cid in (1, 2)]
        assert len(cands) > len({c.cluster_point_indices.tobytes() for c in cands})
        # One call takes every class's clustered points, each once.
        assert projected == [sum(clustered)]

    def test_one_dbscan_call_clusters_every_class_and_radius(self, rng,
                                                                monkeypatch):
        cloud = oracle_cloud(rng)
        params = {c: ClusterParams((0.4, 0.9, 1.5), min_pts=2, min_cluster_size=3)
                  for c in (1, 2, 3)}
        clustered = []

        def counting(points, *args):
            clustered.append(len(points))
            return lone(points, *args)

        lone = clustering.dbscan
        monkeypatch.setattr(clustering, "dbscan", counting)
        assert multi_scale_cluster(cloud, params)
        assert clustered == [3 * len(cloud)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        cloud = two_blob_cloud(0.5)
        cloud.xyz[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            multi_scale_cluster(cloud, {1: ClusterParams((0.3, 1.0))})

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(())
        with pytest.raises(ValueError):
            ClusterParams((0.5, 0.5))
        with pytest.raises(ValueError):
            ClusterParams((1.0, 0.5))
        with pytest.raises(ValueError):
            ClusterParams((0.5,), min_pts=0)


def oracle_cloud(rng: np.random.Generator) -> PointCloud:
    """Blobs of three classes, some below any useful cluster size, with
    duplicate points, a collinear run and one far outlier."""
    parts, classes = [], []
    for class_id in (1, 2, 3):
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 40))
            xy = rng.normal(rng.uniform(-8, 8, 2), rng.uniform(0.1, 1.2), (n, 2))
            parts.append(np.column_stack([xy, rng.uniform(0, 2, n)]))
            classes.append(np.full(n, class_id))
        dup = parts[-1][rng.integers(0, len(parts[-1]), 6)]
        t = np.linspace(0, 3, int(rng.integers(2, 12)))[:, None]
        line = parts[-1][0] + t * [math.cos(class_id), math.sin(class_id), 0.0]
        parts += [dup, line]
        classes += [np.full(len(dup), class_id), np.full(len(line), class_id)]
    parts.append(np.array([[1e6, -1e6, 0.5]]))
    classes.append(np.array([int(rng.integers(1, 4))]))
    return PointCloud(np.concatenate(parts), np.concatenate(classes))


class TestAtomFitOracle:
    """Area boxes built from per-atom yaw extents equal fit_box on each
    candidate's own points."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_radii=st.integers(1, 4),
           step=st.sampled_from([1.0, 2.0, 7.0, 90.0]))
    def test_boxes_equal_fit_box(self, seed, n_radii, step):
        rng = np.random.default_rng(seed)
        cloud = oracle_cloud(rng)
        radii = tuple(np.cumsum(rng.uniform(0.1, 1.0, n_radii)).tolist())
        params = {c: ClusterParams(radii, min_pts=int(rng.integers(1, 5)),
                                   min_cluster_size=int(rng.integers(1, 9)))
                  for c in (1, 2, 3)}
        cands = multi_scale_cluster(cloud, params, step, "area")
        for c in cands:
            assert c.box == fit_box(cloud.xyz[c.cluster_point_indices],
                                    c.box.class_id, step)

    def test_small_blocks_change_nothing(self, monkeypatch):
        # Atoms and single sets spread over many projection blocks.
        for seed in range(10):
            cloud = oracle_cloud(np.random.default_rng(seed))
            params = {c: ClusterParams((0.4, 0.9, 1.5), min_pts=2,
                                       min_cluster_size=3) for c in (1, 2, 3)}
            want = multi_scale_cluster(cloud, params)
            monkeypatch.setattr(clustering, "_EXTENT_BLOCK", 5)
            got = multi_scale_cluster(cloud, params)
            monkeypatch.undo()
            assert want and [c.box for c in got] == [c.box for c in want]


class TestCandidateListOracle:
    """The whole candidate list, in order, equals one lone dbscan per class
    and radius, classes then radii ascending, with every cluster of at
    least min_cluster_size points fitted by fit_box in label order."""

    @staticmethod
    def reference(cloud, params, step, criterion):
        want = []
        for class_id in sorted(params):
            p = params[class_id]
            sel = np.flatnonzero(cloud.class_id == class_id)
            for radius in p.radii:
                labels = dbscan(cloud.xyz[sel, :2], radius, p.min_pts)
                for label in range(labels.max(initial=-1) + 1):
                    idx = sel[labels == label]
                    if len(idx) >= p.min_cluster_size:
                        want.append((fit_box(cloud.xyz[idx], class_id, step, criterion),
                                     radius, idx.tolist()))
        return want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), step=st.sampled_from([2.0, 7.0, 90.0]),
           classes=st.sets(st.integers(1, 5), min_size=1),
           n_radii=st.lists(st.integers(1, 4), min_size=5, max_size=5))
    def test_equals_lone_calls(self, seed, step, classes, n_radii):
        # oracle_cloud holds classes 1-3: classes 4 and 5 have no points, and
        # points of a class missing from params are never clustered.
        rng = np.random.default_rng(seed)
        cloud = oracle_cloud(rng)
        params = {c: ClusterParams(tuple(np.cumsum(rng.uniform(0.1, 1.0, n_radii[c - 1]))
                                         .tolist()),
                                   min_pts=int(rng.integers(1, 5)),
                                   min_cluster_size=int(rng.integers(1, 9)))
                  for c in sorted(classes)}
        for criterion in ("area", "closeness"):
            got = [(c.box, c.radius_used, c.cluster_point_indices.tolist())
                   for c in multi_scale_cluster(cloud, params, step, criterion)]
            assert got == self.reference(cloud, params, step, criterion)


# Coordinates that tie under rounding: signed zeros, repeats and the
# binary fractions that axis-parallel and collinear rows share.
_TIED = np.array([0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 3.0, 1e-300, -1e-300])


def adversarial_group(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points of one shape: tied grid values, a collinear row, an
    axis-parallel row or a normal blob, in half the cases moved near 1e6."""
    kind = int(rng.integers(4))
    if kind == 0:
        xy = rng.choice(_TIED, (n, 2))
    elif kind == 1:
        xy = np.outer(rng.choice(_TIED, n), rng.normal(size=2))
    elif kind == 2:
        xy = rng.choice(_TIED, (n, 2))
        xy[:, int(rng.integers(2))] = rng.choice(_TIED)
    else:
        xy = rng.normal(size=(n, 2))
    if rng.integers(2):
        xy = 1e6 + xy * 1e-9 * rng.integers(0, 2)
    return np.column_stack([xy, rng.choice(_TIED, n)])


class TestYawExtentsOracle:
    """_yaw_extents reduces each extent over a staircase only; its extents
    are bitwise those of every point projected, with zeros read as +0.0."""

    @staticmethod
    def case(seed: int):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 30, int(rng.integers(1, 7)))
        xyz = np.concatenate([adversarial_group(rng, int(n)) for n in sizes])
        group = np.repeat(np.arange(len(sizes)), sizes)
        return rng, xyz, group

    @pytest.mark.parametrize("block", [5, 256])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), step=st.sampled_from([1.0, 7.0, 90.0]))
    def test_bitwise_equal_dense_and_permutation_free(self, seed, step, block,
                                                      monkeypatch):
        monkeypatch.setattr(clustering, "_EXTENT_BLOCK", block)
        rng, xyz, group = self.case(seed)
        angles = clustering._yaw_angles(step)
        n_groups = int(group[-1]) + 1
        lo, hi = clustering._yaw_extents(xyz, group, n_groups, angles)
        want_lo, want_hi = dense_yaw_extents(xyz, group, n_groups, angles)
        assert lo.tobytes() == (want_lo + 0.0).tobytes()
        assert hi.tobytes() == (want_hi + 0.0).tobytes()
        # Shuffled within each group, the points stay grouped.
        perm = np.lexsort((rng.random(len(xyz)), group))
        got = clustering._yaw_extents(xyz[perm], group, n_groups, angles)
        assert got[0].tobytes() == lo.tobytes() and got[1].tobytes() == hi.tobytes()

    def test_signed_zero_extents_read_positive(self):
        xyz = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
        angles = clustering._yaw_angles(90.0)
        for rows in (xyz, xyz[::-1]):
            lo, hi = clustering._yaw_extents(rows, np.zeros(2, dtype=np.int64), 1,
                                             angles)
            assert not np.signbit(lo).any() and not np.signbit(hi).any()

    def test_outline_projects_fewer_point_yaws(self, monkeypatch):
        xyz = rectangle_outline(4, 2, math.radians(30))
        kept = []

        def counting(*args):
            out = staircases(*args)
            kept.append(sum(len(at) for at in out))
            return out

        staircases = clustering._staircases
        monkeypatch.setattr(clustering, "_staircases", counting)
        fit_box(xyz, class_id=1)
        a = len(clustering._yaw_angles(1.0))
        assert len(kept) == 1 and kept[0] * a < len(xyz) * 2 * a

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("criterion", ["area", "closeness"])
    def test_fit_box_rejects_non_finite(self, bad, column, criterion):
        xyz = rectangle_outline(4, 2, 0.0)
        xyz[7, column] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_box(xyz, class_id=1, criterion=criterion)
