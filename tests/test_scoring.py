import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sembox import config as config_module, scoring
from sembox.clustering import BoxCandidate
from sembox.config import PipelineConfig
from sembox.geometry import (Box3D, PointCloud, Pose, bev_iou,
                             in_box_frame)
from sembox.pipeline import generate_labels
from sembox.refine import NOISE_PROFILES, mock_detector, refine_round
from sembox.scoring import (MetaShape, alignment_from_angles, combine_scores,
                            label_order, label_weight, meta_shape_score,
                            msf_score, msf_score_in_frame, nms_select)
from sembox.synth import generate_sequence, preset_scene

from conftest import random_box

VEH_META = MetaShape(4.6, 1.8, 1.6)


def grid_cell_points(box: Box3D, cells, r=7, jitter=0.0, rng=None):
    """One point at the center of each requested (i, j) footprint cell."""
    pts = []
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    for i, j in cells:
        u = -box.l / 2 + (i + 0.5) * box.l / r
        v = -box.w / 2 + (j + 0.5) * box.w / r
        if rng is not None and jitter > 0:
            u += rng.uniform(-jitter, jitter)
            v += rng.uniform(-jitter, jitter)
        pts.append([box.cx + c * u - s * v, box.cy + s * u + c * v, box.cz])
    return np.array(pts)


class TestOccupancy:
    def test_full_coverage(self):
        box = Box3D(2, -3, 0.5, 4.2, 1.9, 1.5, 0.4)
        cells = [(i, j) for i in range(7) for j in range(7)]
        assert msf_score(box, grid_cell_points(box, cells), VEH_META).occ == 1.0

    def test_partial_coverage(self):
        box = Box3D(0, 0, 0, 4.6, 1.8, 1.6, 0.0)
        cells = [(i, j) for i in range(7) for j in range(7)][:24]
        got = msf_score(box, grid_cell_points(box, cells), VEH_META).occ
        assert got == pytest.approx(24 / 49, abs=1e-12)

    def test_empty_box(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0.0)
        assert msf_score(box, np.zeros((0, 3)), VEH_META).occ == 0.0
        far = np.array([[50.0, 50.0, 0.0]])
        assert msf_score(box, far, VEH_META).occ == 0.0

    def test_rigid_invariance(self, rng):
        box = Box3D(1, 2, 0.2, 4.0, 1.6, 1.4, 0.3)
        cells = [(i, j) for i in range(7) for j in range(7)][::3]
        pts = grid_cell_points(box, cells, jitter=0.05, rng=rng)
        base = msf_score(box, pts, VEH_META).occ
        for _ in range(10):
            pose = Pose.from_xyz_yaw(*rng.uniform(-20, 20, 2), rng.uniform(-2, 2),
                                     rng.uniform(-math.pi, math.pi))
            moved_box = Box3D(*pose.apply(box.center.reshape(1, 3))[0],
                              box.l, box.w, box.h, box.yaw + pose.yaw)
            moved = msf_score(moved_box, pose.apply(pts), VEH_META).occ
            assert moved == pytest.approx(base, abs=1e-9)


def line_points(angle, n=60, length=3.0, z=0.5, center=(0.0, 0.0)):
    t = np.linspace(-length / 2, length / 2, n)
    return np.column_stack([
        center[0] + t * math.cos(angle),
        center[1] + t * math.sin(angle),
        np.full(n, z),
    ])


class TestAlignment:
    def test_parallel_line_scores_one(self):
        box = Box3D(0, 0, 0.5, 4, 2, 1.5, 0.3)
        got = msf_score(box, line_points(0.3), VEH_META).alg
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_perpendicular_line_scores_one(self):
        box = Box3D(0, 0, 0.5, 4, 2, 1.5, 0.3)
        pts = line_points(0.3 + math.pi / 2, length=1.5)
        assert msf_score(box, pts, VEH_META).alg == pytest.approx(1.0, abs=1e-6)

    def test_quarter_pi_off(self):
        assert alignment_from_angles(0.2, 0.2 + math.pi / 4) == pytest.approx(
            1 - math.sin(math.pi / 4), abs=1e-12)

    def test_too_few_points(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        assert msf_score(box, np.array([[0.0, 0.0, 0.0]]), VEH_META).alg == 0.0

    def test_zero_variance(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        pts = np.tile([[0.1, 0.2, 0.0]], (5, 1))
        assert msf_score(box, pts, VEH_META).alg == 0.0

    def test_heading_relabel_invariance(self):
        # The same physical box entered with swapped extents; the canonical
        # form differs only in the heading convention.
        pts = line_points(1.0, center=(1, 2))
        a = Box3D(1, 2, 0.5, 4, 2, 1.5, 1.0)
        b = Box3D(1, 2, 0.5, 2, 4, 1.5, 1.0 - math.pi / 2)
        assert msf_score(a, pts, VEH_META).alg == pytest.approx(
            msf_score(b, pts, VEH_META).alg, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(-10, 10), theta=st.floats(-10, 10))
    def test_range(self, alpha, theta):
        assert 0.0 <= alignment_from_angles(alpha, theta) <= 1.0


_ALIGN_BOX = Box3D(0, 0, 0, 4, 2, 1.5, 0)
angles = st.floats(-math.pi, math.pi)


def eigh_alignment(counts, ci, cj, p) -> float:
    """scoring._alignment as it was before the closed form: the covariance
    by a matrix product and its leading eigenvector by LAPACK's eigh."""
    if len(p) < 2 or counts.max() == 0:
        return 0.0
    r = counts.shape[0]
    flat = int(np.argmax(counts))
    bi, bj = flat // r, flat % r
    region = (np.abs(ci - bi) <= 1) & (np.abs(cj - bj) <= 1)
    pts = p[region, :2]
    if len(pts) < 2:
        return 0.0
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    if float(np.trace(cov)) < 1e-18:
        return 0.0
    _, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    return alignment_from_angles(0.0, math.atan2(v[1], v[0]))


@st.composite
def alignment_regions(draw):
    """xy points of one region: collinear, two points, or a cross whose
    arms differ in length by 0.1% to 50%, turned and moved, possibly to
    near 1e6."""
    kind = draw(st.sampled_from(["collinear", "two", "cross"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    turn = draw(angles)
    if kind == "collinear":
        t = rng.uniform(-3, 3, draw(st.integers(2, 40)))
        uv = np.c_[t, np.zeros_like(t)]
    elif kind == "two":
        uv = rng.uniform(-3, 3, (2, 2))
    else:
        a = draw(st.floats(0.01, 3))
        b = a * (1 + draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-3, 0.5)))
        uv = np.array([[a, 0], [-a, 0], [0, b], [0, -b]])
    c, s = math.cos(turn), math.sin(turn)
    xy = np.c_[uv[:, 0] * c - uv[:, 1] * s, uv[:, 0] * s + uv[:, 1] * c]
    return xy + draw(st.sampled_from([0.0, 1e6, -1e6 + 0.3])) * rng.uniform(0.9, 1.1, 2)


def one_cell_grid(xy: np.ndarray):
    """(counts, ci, cj, p): the footprint grid of xy at resolution 1, so
    the whole set is the region _alignment fits."""
    cell = np.zeros(len(xy), dtype=np.int64)
    return np.array([[len(xy)]]), cell, cell, np.c_[xy, np.zeros(len(xy))]


class TestAlignmentOracle:
    @settings(max_examples=300, deadline=None)
    @given(xy=alignment_regions())
    def test_closed_form_matches_eigh(self, xy):
        grid = one_cell_grid(xy)
        assert abs(scoring._alignment(*grid) - eigh_alignment(*grid)) <= 1e-12

    @pytest.mark.parametrize("arm, at", [(1.0, 0.0), (0.25, 3.5), (3.0, -1024.0)])
    def test_isotropic_cross_scores_one(self, arm, at):
        # sxx == syy and sxy == 0: no leading direction; theta is 0.
        xy = np.array([[arm, 0], [-arm, 0], [0, arm], [0, -arm]]) + at
        grid = one_cell_grid(xy)
        assert scoring._alignment(*grid) == eigh_alignment(*grid) == 1.0


def add_at_grid(box: Box3D, p: np.ndarray, r: int):
    """The footprint grid as scoring built it before one bincount: each
    point's cell by floor and clip, the counts by an np.add.at scatter."""
    ci = np.clip(np.floor((p[:, 0] + box.l / 2) / (box.l / r)).astype(np.int64), 0, r - 1)
    cj = np.clip(np.floor((p[:, 1] + box.w / 2) / (box.w / r)).astype(np.int64), 0, r - 1)
    counts = np.zeros((r, r), dtype=np.int64)
    np.add.at(counts, (ci, cj), 1)
    return counts, ci, cj


@st.composite
def in_box_points(draw):
    """In-box points of _ALIGN_BOX, in its frame: none, a few, or many,
    some on the footprint's edges and corners, repeats allowed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 5, 50, 400]))
    half = np.array([_ALIGN_BOX.l, _ALIGN_BOX.w, _ALIGN_BOX.h]) / 2
    p = rng.uniform(-half, half, (n, 3))
    edge = rng.random((n, 2)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    p[:, :2] = np.where(edge, np.sign(p[:, :2]) * half[:2], p[:, :2])
    return p


class TestFootprintGrid:
    @settings(max_examples=200, deadline=None)
    @given(p=in_box_points(), r=st.sampled_from([1, 2, 7]))
    def test_bincount_matches_add_at(self, p, r):
        ref, ref_ci, ref_cj = add_at_grid(_ALIGN_BOX, p, r)
        ci, cj = scoring._footprint_cells(_ALIGN_BOX, p, r)
        assert np.array_equal(ci, ref_ci) and np.array_equal(cj, ref_cj)
        counts = np.bincount(ci * r + cj, minlength=r * r)
        assert np.array_equal(counts.reshape(r, r), ref)
        s = scoring.msf_score_in_frame(_ALIGN_BOX, p, VEH_META, occ_r=r)
        assert s.occ == float(np.count_nonzero(ref)) / float(ref.size)
        assert s.alg == scoring._alignment(ref, ref_ci, ref_cj, p)

    def test_boundary_points_land_in_outermost_cells(self):
        half_l, half_w = _ALIGN_BOX.l / 2, _ALIGN_BOX.w / 2
        p = np.array([[-half_l, -half_w, 0], [half_l, half_w, 0],
                      [half_l, -half_w, 0], [-half_l, half_w, 0]])
        ci, cj = scoring._footprint_cells(_ALIGN_BOX, p, 7)
        assert ci.tolist() == [0, 6, 6, 0] and cj.tolist() == [0, 6, 0, 6]
        assert scoring.msf_score_in_frame(_ALIGN_BOX, p, VEH_META).occ == 4 / 49

    @pytest.mark.parametrize("r", [1, 7])
    def test_empty_box(self, r):
        s = scoring.msf_score_in_frame(_ALIGN_BOX, np.zeros((0, 3)), VEH_META,
                                       occ_r=r)
        assert (s.occ, s.alg) == (0.0, 0.0)


class TestMetaShape:
    def test_exact_match(self):
        box = Box3D(0, 0, 0, 4.6, 1.8, 1.6, 0)
        assert meta_shape_score(box, VEH_META) == 1.0

    def test_oversize_gate(self):
        box = Box3D(0, 0, 0, 4.6 * 2.1, 1.8, 1.6, 0)
        assert meta_shape_score(box, VEH_META) == 0.0

    def test_gate_boundaries(self):
        assert meta_shape_score(Box3D(0, 0, 0, 4.6, 1.8, 0.8, 0), VEH_META) == 0.0
        assert meta_shape_score(Box3D(0, 0, 0, 4.6, 1.8, 3.2, 0), VEH_META) == 0.0

    def test_divergence_value_against_high_precision_oracle(self):
        # D for prior (4.6, 1.8, 1.6) vs box (4.0, 2.0, 1.6), computed with
        # 30-digit arithmetic: D = 0.0053637064551548.
        box = Box3D(0, 0, 0, 4.0, 2.0, 1.6, 0)
        expect = 0.892725870896904
        assert meta_shape_score(box, VEH_META) == pytest.approx(expect, abs=1e-12)

    def test_pure_scaling_inside_gate(self):
        for s in (0.51, 0.7, 1.0, 1.5, 1.99):
            box = Box3D(0, 0, 0, 4.6 * s, 1.8 * s, 1.6 * s, 0)
            assert meta_shape_score(box, VEH_META) == pytest.approx(1.0, abs=1e-12)
        for s in (0.5, 0.25, 2.0, 3.0):
            box = Box3D(0, 0, 0, 4.6 * s, 1.8 * s, 1.6 * s, 0)
            assert meta_shape_score(box, VEH_META) == 0.0

    def test_invalid_meta(self):
        with pytest.raises(ValueError):
            MetaShape(0.0, 1.0, 1.0)


class TestCombination:
    def test_all_ones(self):
        assert combine_scores(1, 1, 1, (1 / 3, 1 / 3, 1 / 3)).msf == pytest.approx(
            1.0, abs=1e-12)

    def test_arithmetic_mean(self):
        got = combine_scores(0.9, 0.6, 0.3, (1 / 3, 1 / 3, 1 / 3)).msf
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_projection(self):
        assert combine_scores(0.7, 0.1, 0.2, (1.0, 0.0, 0.0)).msf == 0.7

    def test_invalid_lambdas(self):
        with pytest.raises(ValueError):
            combine_scores(1, 1, 1, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            combine_scores(1, 1, 1, (-0.2, 0.6, 0.6))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_msf_in_unit_interval_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        box = random_box(rng, span=5)
        pts = rng.uniform(-8, 8, (int(rng.integers(0, 80)), 3))
        sb = msf_score(box, pts, VEH_META)
        for v in (sb.occ, sb.alg, sb.ms, sb.msf):
            assert 0.0 <= v <= 1.0


class TestScoreBoxes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_per_box_msf_on_class_points(self, seed):
        rng = np.random.default_rng(seed)
        config = PipelineConfig(occ_grid_r=int(rng.integers(1, 9)))
        n = int(rng.integers(0, 300))
        cloud = PointCloud(rng.uniform(-6, 6, (n, 3)), rng.integers(0, 3, n))
        # Class 3 has boxes but never a point.
        boxes = [random_box(rng, span=5, class_id=int(rng.integers(1, 4)))
                 for _ in range(int(rng.integers(0, 8)))]
        boxes.append(random_box(rng, span=5, class_id=3))
        boxes += [boxes[i] for i in rng.integers(0, len(boxes), 3)]  # repeats
        want = [msf_score(b, cloud.xyz[cloud.class_id == b.class_id],
                          config.meta_shape(b.class_id), config.lambdas,
                          config.occ_grid_r) for b in boxes]
        assert config.score_boxes(boxes, cloud) == want

    def test_scores_each_distinct_box_once(self, monkeypatch, rng):
        calls = []

        def counting(box, *args):
            calls.append(box)
            return msf_score_in_frame(box, *args)

        monkeypatch.setattr(config_module, "msf_score_in_frame", counting)
        boxes = [random_box(rng, span=5, class_id=c) for c in (1, 1, 2)]
        boxes = [boxes[i] for i in (0, 1, 0, 2, 1, 0)]
        cloud = PointCloud(rng.uniform(-6, 6, (200, 3)), rng.integers(0, 3, 200))
        scores = PipelineConfig().score_boxes(boxes, cloud)
        assert calls == boxes[:2] + boxes[3:4]
        assert scores[0] == scores[2] == scores[5] and scores[1] == scores[4]

    def test_rotates_each_scored_point_once(self, monkeypatch, rng):
        # The box query's box-frame rows are the ones scored.
        rotated = []
        to_frame = Box3D.to_frame

        def counting_to_frame(box, xyz):
            rotated.append(box)
            return to_frame(box, xyz)

        boxes = [random_box(rng, span=5, class_id=c) for c in (1, 2, 2)]
        cloud = PointCloud(rng.uniform(-6, 6, (300, 3)), rng.integers(0, 3, 300))
        monkeypatch.setattr(Box3D, "to_frame", counting_to_frame)
        PipelineConfig().score_boxes(boxes + boxes[:1], cloud)
        assert rotated == boxes

    def test_msf_tests_containment_once(self, monkeypatch, rng):
        # One rotation into the box frame, and one containment test there.
        rotated, tested = [], []
        to_frame = Box3D.to_frame

        def counting_to_frame(box, xyz):
            rotated.append(len(xyz))
            return to_frame(box, xyz)

        def counting_in_box_frame(p, box):
            tested.append(len(p))
            return in_box_frame(p, box)

        monkeypatch.setattr(Box3D, "to_frame", counting_to_frame)
        monkeypatch.setattr(scoring, "in_box_frame", counting_in_box_frame)
        msf_score(random_box(rng, span=2), rng.uniform(-3, 3, (50, 3)), VEH_META)
        assert rotated == tested == [50]


class TestIndexBuilds:
    """Each point set is sorted by x once: a frame's foreground, each dense
    cloud, and the static cloud of the static-object broadcast."""

    @pytest.fixture
    def builds(self, monkeypatch):
        sizes = []
        x_order = PointCloud.__dict__["x_order"].func

        def counting(cloud):
            sizes.append(len(cloud))
            return x_order(cloud)

        prop = cached_property(counting)
        prop.__set_name__(PointCloud, "x_order")
        monkeypatch.setattr(PointCloud, "x_order", prop)
        return sizes

    def test_generate_indexes_each_dense_cloud_once(self, builds):
        frames, _ = generate_sequence(preset_scene("mixed", 0))
        generate_labels(frames, PipelineConfig())
        assert len(builds) == len(frames)

    def test_refine_indexes_each_foreground_and_the_static_cloud_once(
            self, builds):
        frames, gt = generate_sequence(preset_scene("mixed", 0))
        preds = mock_detector(gt, NOISE_PROFILES["mild"], seed=0)
        refine_round(frames, preds, PipelineConfig())
        assert len(builds) == len(frames) + 1


class TestLabelWeight:
    def test_midpoint(self):
        assert label_weight(0.6, 0.4, 0.8) == pytest.approx(0.5, abs=1e-12)

    def test_low_boundary(self):
        assert label_weight(0.4, 0.4, 0.8) == 0.0

    def test_saturation(self):
        assert label_weight(0.95, 0.4, 0.8) == 1.0

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            label_weight(0.5, 0.8, 0.4)
        with pytest.raises(ValueError):
            label_weight(0.5, 0.4, 1.2)

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(0, 1), t=st.floats(0, 1))
    def test_monotone(self, s, t):
        lo, hi = min(s, t), max(s, t)
        assert label_weight(lo) <= label_weight(hi)


class TestLabel:
    def test_weight_from_config_thresholds(self):
        config = PipelineConfig(theta_low=0.2, theta_high=0.6)
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0, class_id=1)
        for occ, weight in ((0.1, 0.0), (0.2, 0.0), (0.5, 0.75), (0.6, 1.0),
                            (0.9, 1.0)):
            sb = combine_scores(occ, 0.0, 0.0, (1.0, 0.0, 0.0))
            lab = config.label(box, sb, "stcf-refined")
            assert (lab.box, lab.scores, lab.source) == (box, sb, "stcf-refined")
            assert lab.weight == pytest.approx(weight, abs=1e-12)
            assert lab.weight == label_weight(occ, 0.2, 0.6)


def scored(*msf):
    return [combine_scores(m, m, m, (1 / 3,) * 3) for m in msf]


class TestNms:
    def test_identical_boxes_keep_best(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0, class_id=1)
        assert nms_select([box, box], scored(0.7, 0.9), 0.2) == [1]

    def test_disjoint_boxes_both_kept(self):
        a = Box3D(0, 0, 0, 4, 2, 1.5, 0, class_id=1)
        b = Box3D(20, 0, 0, 4, 2, 1.5, 0, class_id=1)
        assert nms_select([a, b], scored(0.8, 0.8), 0.2) == [0, 1]

    def test_adjacency_scenario(self):
        # Two tight boxes and one merged box overlapping both: the merged
        # candidate scores lower (shape gate) and is suppressed. The tight
        # boxes tie exactly on msf and occ, so the one at smaller cy comes
        # first.
        a = Box3D(0, 1.15, 0, 4.6, 1.8, 1.6, 0, class_id=1)
        b = Box3D(0, -1.15, 0, 4.6, 1.8, 1.6, 0, class_id=1)
        merged = Box3D(0, 0, 0, 4.6, 4.1, 1.6, 0, class_id=1)
        lam = (1 / 3, 1 / 3, 1 / 3)
        scores = [combine_scores(0.5, 0.9, 0.0, lam),
                  combine_scores(0.5, 0.9, 1.0, lam),
                  combine_scores(0.5, 0.9, 1.0, lam)]
        assert nms_select([merged, a, b], scores, 0.2) == [2, 1]

    def test_classes_do_not_suppress_each_other(self):
        a = Box3D(0, 0, 0, 1.8, 0.6, 1.7, 0, class_id=3)
        b = Box3D(0, 0, 0, 1.8, 0.8, 1.7, 0, class_id=2)
        # Class first: class 2 comes before class 3's better score.
        assert nms_select([b, a], scored(0.5, 0.9), 0.2) == [0, 1]

    def test_misaligned_inputs_rejected(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0, class_id=1)
        with pytest.raises(ValueError):
            nms_select([box, box], scored(0.5), 0.2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_candidate_order_does_not_matter(self, seed, data):
        """Shuffled candidates give the same kept boxes in the same order,
        also where overlapping distinct boxes tie exactly on msf and occ."""
        rng = np.random.default_rng(seed)
        lam = (1 / 3, 1 / 3, 1 / 3)
        boxes, scores = [], []
        for _ in range(6):
            box = random_box(rng, span=6, class_id=int(rng.integers(1, 3)))
            twin = Box3D(box.cx, box.cy + rng.uniform(-0.2, 0.2), box.cz,
                         box.l * rng.uniform(0.95, 1.05), box.w, box.h,
                         box.yaw, box.class_id)
            tied = combine_scores(*rng.uniform(0, 1, 3), lam)
            boxes += [box, twin]
            scores += [tied, tied]
        perm = data.draw(st.permutations(range(len(boxes))))
        kept = nms_select(boxes, scores, 0.2)
        shuffled = nms_select([boxes[i] for i in perm],
                              [scores[i] for i in perm], 0.2)
        assert [boxes[perm[i]] for i in shuffled] == [boxes[i] for i in kept]

    @pytest.mark.parametrize("iou_threshold", [0.0, 0.3, 1.0])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_postconditions(self, iou_threshold, seed):
        rng = np.random.default_rng(seed)
        lam = (1 / 3, 1 / 3, 1 / 3)
        boxes = [random_box(rng, span=6, class_id=int(rng.integers(1, 3)))
                 for _ in range(12)]
        boxes += [boxes[i] for i in rng.integers(0, 12, 3)]  # exact duplicates
        scores = [combine_scores(*rng.uniform(0, 1, 3), lam) for _ in boxes]
        kept = nms_select(boxes, scores, iou_threshold)
        assert len(set(kept)) == len(kept)
        # Kept in label_order: class, then best score first.
        keys = [label_order(boxes[i], scores[i]) for i in kept]
        assert keys == sorted(keys)
        for n, i in enumerate(kept):
            for j in kept[n + 1:]:
                if boxes[i].class_id == boxes[j].class_id:
                    assert bev_iou(boxes[i], boxes[j]) < iou_threshold
        for j in set(range(len(boxes))) - set(kept):
            # Every suppressed box overlaps a kept box of its class with
            # >= msf at or above the threshold.
            assert any(boxes[i].class_id == boxes[j].class_id
                       and bev_iou(boxes[i], boxes[j]) >= iou_threshold
                       and scores[i].msf >= scores[j].msf for i in kept)
        classes = {b.class_id for b in boxes}
        if iou_threshold == 0.0:
            # Any two boxes overlap at IoU >= 0: one box per class survives.
            assert sorted(boxes[i].class_id for i in kept) == sorted(classes)
        if iou_threshold == 1.0:
            # Only an exact duplicate reaches IoU 1: every distinct box is
            # kept, and no duplicate of a kept box.
            assert {boxes[i] for i in kept} == set(boxes)
            assert len({boxes[i] for i in kept}) == len(kept)
