import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sembox import dataio, refine
from sembox.aggregation import Frame
from sembox.clustering import connected_components
from sembox.config import PipelineConfig
from sembox.geometry import (Box3D, PointCloud, Pose, bev_candidate_pairs,
                             bev_iou, iou_3d, points_in_box)
from sembox.refine import (NOISE_PROFILES, NoiseModel, Prediction,
                           box_absent_foreground_filter, mock_detector,
                           refine_round, semantic_consistency_filter,
                           sequence_motion_grid, spatial_temporal_fine_tune)
from sembox.scoring import SOURCE_REFINED, label_weight
from sembox.synth import (ObjectSpec, SceneSpec, VEHICLE, _VEH, generate_sequence,
                          preset_scene)

from conftest import with_background


def frame_with(xyz, cls, fid=0, pose=None):
    return Frame(fid, 0.1 * fid, pose or Pose(np.eye(3), np.zeros(3)),
                 PointCloud(np.asarray(xyz, float),
                            np.asarray(cls, np.int32)))


def box_at(x, y, cls=1, l=4.6, w=1.8, h=1.6, yaw=0.0, z=0.8):
    return Box3D(x, y, z, l, w, h, yaw, class_id=cls)


def fill_box(box, n, rng, cls=None):
    """n points uniform inside a box."""
    u = rng.uniform(-0.45, 0.45, (n, 3)) * [box.l, box.w, box.h]
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    xyz = np.column_stack([
        box.cx + c * u[:, 0] - s * u[:, 1],
        box.cy + s * u[:, 0] + c * u[:, 1],
        box.cz + u[:, 2],
    ])
    return xyz, np.full(n, cls if cls is not None else box.class_id, np.int32)


class TestSemanticConsistency:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_consistent_prediction_kept(self):
        box = box_at(10, 0)
        xyz, cls = fill_box(box, 50, self.rng)
        frame = frame_with(xyz, cls)
        kept = semantic_consistency_filter([Prediction(box, 0.9)], frame)
        assert len(kept) == 1

    def test_wrong_class_dropped(self):
        box = box_at(10, 0, cls=1)
        xyz, cls = fill_box(box, 50, self.rng, cls=2)  # pedestrian points
        frame = frame_with(xyz, cls)
        kept = semantic_consistency_filter([Prediction(box, 0.9)], frame)
        assert kept == []

    def test_mixed_classes_dropped(self):
        box = box_at(10, 0, cls=1)
        xyz1, cls1 = fill_box(box, 40, self.rng, cls=1)
        xyz2, cls2 = fill_box(box, 20, self.rng, cls=3)
        frame = frame_with(np.concatenate([xyz1, xyz2]),
                           np.concatenate([cls1, cls2]))
        kept = semantic_consistency_filter([Prediction(box, 0.9)], frame)
        assert kept == []

    def test_empty_box_dropped(self):
        box = box_at(10, 0)
        frame = frame_with([[50.0, 50.0, 0.0]], [1])
        kept = semantic_consistency_filter([Prediction(box, 0.9)], frame)
        assert kept == []

    def test_background_points_do_not_veto(self):
        box = box_at(10, 0)
        xyz1, cls1 = fill_box(box, 30, self.rng, cls=1)
        xyz2, cls2 = fill_box(box, 30, self.rng, cls=0)  # ground clutter
        frame = frame_with(np.concatenate([xyz1, xyz2]),
                           np.concatenate([cls1, cls2]))
        kept = semantic_consistency_filter([Prediction(box, 0.9)], frame)
        assert len(kept) == 1

    def test_single_stray_point_does_not_veto(self, rng):
        # One mislabeled point is below the presence floor.
        box = box_at(10, 0)
        xyz, cls = fill_box(box, 60, rng, cls=1)
        xyz = np.concatenate([xyz, [[10.0, 0.0, 0.8]]])
        cls = np.concatenate([cls, [2]])
        kept = semantic_consistency_filter([Prediction(box, 0.9)],
                                           frame_with(xyz, cls),
                                           min_fraction=0.05, min_points=3)
        assert len(kept) == 1


class TestBoxAbsentForeground:
    def test_no_labels_drops_all_foreground(self, rng):
        box = box_at(8, 2)
        xyz, cls = fill_box(box, 20, rng)
        bg = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        frame = frame_with(np.concatenate([xyz, bg]),
                           np.concatenate([cls, [0, 0]]))
        kept = box_absent_foreground_filter(frame, [])
        assert kept.tolist() == [20, 21]

    def test_full_coverage_keeps_all(self, rng):
        from sembox.scoring import PseudoLabel, ScoreBreakdown
        box = box_at(8, 2)
        xyz, cls = fill_box(box, 20, rng)
        frame = frame_with(xyz, cls)
        lab = PseudoLabel(box, ScoreBreakdown(1, 1, 1, 1), 1.0, "init")
        kept = box_absent_foreground_filter(frame, [lab])
        assert kept.tolist() == list(range(20))

    def test_unlabeled_object_removed(self, rng):
        from sembox.scoring import PseudoLabel, ScoreBreakdown
        a, b = box_at(8, 2), box_at(30, -5)
        xa, ca = fill_box(a, 15, rng)
        xb, cb = fill_box(b, 15, rng)
        frame = frame_with(np.concatenate([xa, xb]), np.concatenate([ca, cb]))
        lab = PseudoLabel(a, ScoreBreakdown(1, 1, 1, 1), 1.0, "init")
        kept = box_absent_foreground_filter(frame, [lab])
        assert kept.tolist() == list(range(15))
        # Postcondition: every retained foreground point is inside a label.
        fg_kept = [i for i in kept if frame.points.class_id[i] > 0]
        assert all(points_in_box(frame.points.xyz[[i]], a)[0] for i in fg_kept)


def static_scene(seed=0, far=True):
    objs = [ObjectSpec(VEHICLE, _VEH, (12.0, 3.0), 0.4, density=70.0)]
    if far:
        objs.append(ObjectSpec(VEHICLE, _VEH, (38.0, -5.0), 1.0, density=160.0))
    return SceneSpec(seed=seed, objects=tuple(objs), ego_velocity=(5.0, 0.0),
                     background_points=400)


def all_pairs_groups(boxes):
    """Reference for refine._connected_groups: bev_iou on every pair."""
    n = len(boxes)
    edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)
                      if bev_iou(boxes[i], boxes[j]) > 0.0], dtype=np.int64)
    root = connected_components(n, *edges.reshape(-1, 2).T)
    return [np.flatnonzero(root == r).tolist() for r in np.unique(root)]


class TestConnectedGroups:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24))
    def test_groups_equal_all_pairs(self, seed, n):
        rng = np.random.default_rng(seed)
        boxes = []
        for _ in range(n):
            kind = rng.integers(0, 4)
            if kind == 0 or not boxes:  # anywhere, any yaw
                boxes.append(Box3D(*rng.uniform(-8, 8, 2), 0.5,
                                   *rng.uniform(0.5, 5, 2), 1.5,
                                   rng.uniform(-np.pi, np.pi)))
                continue
            # Axis-aligned on a half-metre lattice, beside an earlier
            # axis-aligned box: edge to edge, corner to corner, or apart.
            b = boxes[int(rng.integers(0, len(boxes)))]
            if b.yaw != 0.0:
                b = Box3D(round(b.cx), round(b.cy), 0.5, 2.0, 1.0, 1.5, 0.0)
                boxes.append(b)
            l, w = float(rng.integers(1, 5)), float(rng.integers(1, 3))
            dx = (b.l + l) / 2 + (0.5 if kind == 3 else 0.0)
            dy = (b.w + w) / 2 if kind == 2 else 0.0
            boxes.append(Box3D(b.cx + dx, b.cy + dy, 0.5, max(l, w), min(l, w),
                               1.5, 0.0))
        want = all_pairs_groups(boxes)
        assert refine._connected_groups(boxes) == want
        i, j = bev_candidate_pairs(boxes)
        pairs = {frozenset(p) for p in zip(i.tolist(), j.tolist())}
        assert len(pairs) == len(i) and all(len(p) == 2 for p in pairs)
        assert all(frozenset((a, b)) in pairs
                   for a in range(len(boxes)) for b in range(a + 1, len(boxes))
                   if bev_iou(boxes[a], boxes[b]) > 0.0)

    def test_touching_boxes_are_candidates(self):
        a = Box3D(0.0, 0.0, 0.5, 2.0, 1.0, 1.5, 0.0)
        edge = Box3D(2.0, 0.0, 0.5, 2.0, 1.0, 1.5, 0.0)
        corner = Box3D(2.0, 1.0, 0.5, 2.0, 1.0, 1.5, 0.0)
        apart = Box3D(2.5, 0.0, 0.5, 2.0, 1.0, 1.5, 0.0)
        i, j = bev_candidate_pairs([a, edge, corner, apart])
        pairs = {frozenset(p) for p in zip(i.tolist(), j.tolist())}
        assert {frozenset((0, 1)), frozenset((0, 2))} <= pairs
        assert frozenset((0, 3)) not in pairs


class TestSpatialTemporal:
    def test_static_object_broadcast_best_box(self):
        frames, gt = generate_sequence(static_scene())
        config = PipelineConfig()
        grid = sequence_motion_grid(frames, config.cell_size,
                                    config.detection_range,
                                    config.effective_epsilon(len(frames)))
        # Hand the filter accurate near predictions and one degraded box.
        preds = {}
        for fr in frames:
            plist = []
            for g in gt[fr.frame_id]:
                if fr.frame_id == 4:
                    bad = Box3D(g.cx + 0.8, g.cy - 0.6, g.cz, g.l * 1.3,
                                g.w * 1.3, g.h, g.yaw + 0.3, g.class_id)
                    plist.append(Prediction(bad, 0.9))
                else:
                    plist.append(Prediction(g, 0.9))
            preds[fr.frame_id] = plist
        refined = spatial_temporal_fine_tune(preds, frames, grid, config)
        for fr in frames:
            got = refined[fr.frame_id]
            assert len(got) == len(gt[fr.frame_id])
            for rb in got:
                assert rb.source == SOURCE_REFINED
                best = max((iou_3d(rb.box, g) for g in gt[fr.frame_id]),
                           default=0.0)
                assert best > 0.8  # degraded frame healed by broadcast

    def test_moving_object_passthrough(self):
        spec = SceneSpec(
            seed=0,
            objects=(ObjectSpec(VEHICLE, _VEH, (18.0, -13.0), math.pi / 2,
                                velocity=(0.0, 10.0), density=70.0),),
            background_points=300)
        frames, gt = generate_sequence(spec)
        config = PipelineConfig()
        grid = sequence_motion_grid(frames, config.cell_size,
                                    config.detection_range,
                                    config.effective_epsilon(len(frames)))
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        refined = spatial_temporal_fine_tune(preds, frames, grid, config)
        for fr in frames:
            for rb in refined[fr.frame_id]:
                assert rb.source == "init"
                # untouched: identical to the input prediction
                assert any(iou_3d(rb.box, g) > 0.999 for g in gt[fr.frame_id])

    def test_broadcast_boxes_identical_in_global_coordinates(self):
        from sembox.geometry import transform_box
        frames, gt = generate_sequence(static_scene(far=False))
        config = PipelineConfig()
        grid = sequence_motion_grid(frames, config.cell_size,
                                    config.detection_range,
                                    config.effective_epsilon(len(frames)))
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        refined = spatial_temporal_fine_tune(preds, frames, grid, config)
        poses = {fr.frame_id: fr.pose for fr in frames}
        world = [transform_box(rb.box, poses[fid])
                 for fid, boxes in refined.items() for rb in boxes]
        assert len(world) >= 2
        first = world[0]
        for b in world[1:]:
            for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                assert getattr(b, f) == pytest.approx(getattr(first, f),
                                                      abs=1e-9)

    def test_occluded_frames_get_no_broadcast(self):
        base = static_scene(far=False)
        obj = base.objects[0]
        occluded = ObjectSpec(obj.class_id, obj.size, obj.position, obj.yaw,
                              density=obj.density,
                              hidden_frames=frozenset({0, 1, 8, 9}))
        frames, gt = generate_sequence(SceneSpec(
            seed=0, objects=(occluded,), ego_velocity=(5.0, 0.0),
            background_points=300))
        config = PipelineConfig()
        grid = sequence_motion_grid(frames, config.cell_size,
                                    config.detection_range,
                                    config.effective_epsilon(len(frames)))
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        refined = spatial_temporal_fine_tune(preds, frames, grid, config)
        visible = {fid for fid, boxes in gt.items() if boxes}
        got = {fid for fid, boxes in refined.items() if boxes}
        assert got == visible


@functools.cache
def mixed_round():
    """Frames of mixed (seed 0), mild mock-detector predictions and the
    round refined from them, built once for every example that reads them."""
    frames, gt = generate_sequence(preset_scene("mixed", 0))
    preds = mock_detector(gt, NOISE_PROFILES["mild"], seed=3)
    return frames, preds, refine_round(frames, preds, PipelineConfig())


def label_bytes(labels: dict) -> dict[str, bytes]:
    """The bytes of each labels file the writer makes of labels."""
    with tempfile.TemporaryDirectory() as tmp:
        dataio.write_box_dir(tmp, labels)
        return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


class TestRefineRound:
    def test_empty_predictions(self):
        frames, _ = generate_sequence(static_scene())
        config = PipelineConfig()
        result = refine_round(frames, {fr.frame_id: [] for fr in frames}, config)
        for fr in frames:
            assert result.labels[fr.frame_id] == []
            kept = result.retained_indices[fr.frame_id]
            assert (fr.points.class_id[kept] == 0).all()

    def test_identity_round_keeps_ground_truth(self):
        frames, gt = generate_sequence(static_scene())
        config = PipelineConfig()
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        result = refine_round(frames, preds, config)
        for fr in frames:
            labs = result.labels[fr.frame_id]
            assert len(labs) == len(gt[fr.frame_id])
            for lab in labs:
                assert max(iou_3d(lab.box, g) for g in gt[fr.frame_id]) >= 0.95

    def test_idempotent_on_fixed_point(self):
        frames, gt = generate_sequence(static_scene())
        config = PipelineConfig()
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        first = refine_round(frames, preds, config)
        second_preds = {
            fid: [Prediction(lab.box, 0.9) for lab in labs]
            for fid, labs in first.labels.items()}
        second = refine_round(frames, second_preds, config)
        for fid in first.labels:
            a, b = first.labels[fid], second.labels[fid]
            assert len(a) == len(b)
            for la, lb in zip(a, b):
                for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                    assert getattr(la.box, f) == pytest.approx(
                        getattr(lb.box, f), abs=1e-9)

    def test_weights_match_formula(self):
        frames, gt = generate_sequence(static_scene())
        config = PipelineConfig()
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        result = refine_round(frames, preds, config)
        for labs in result.labels.values():
            for lab in labs:
                expect = label_weight(lab.scores.msf, config.theta_low,
                                      config.theta_high)
                assert abs(lab.weight - expect) <= 1e-12

    def test_baf_postcondition_exact(self):
        frames, gt = generate_sequence(static_scene())
        config = PipelineConfig()
        preds = {fr.frame_id: [Prediction(g, 0.9)
                               for g in gt[fr.frame_id]] for fr in frames}
        result = refine_round(frames, preds, config)
        for fr in frames:
            labs = result.labels[fr.frame_id]
            kept = result.retained_indices[fr.frame_id]
            for i in kept:
                if fr.points.class_id[i] > 0:
                    inside = any(points_in_box(fr.points.xyz[[i]], lab.box)[0]
                                 for lab in labs)
                    assert inside

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_prediction_order_does_not_matter(self, seed):
        """Each frame's predictions shuffled give byte-equal labels and the
        same retained points."""
        frames, preds, result = mixed_round()
        rng = np.random.default_rng(seed)
        shuffled = {fid: [ps[i] for i in rng.permutation(len(ps))]
                    for fid, ps in preds.items()}
        again = refine_round(frames, shuffled, PipelineConfig())
        assert label_bytes(again.labels) == label_bytes(result.labels)
        for fid, kept in result.retained_indices.items():
            assert np.array_equal(again.retained_indices[fid], kept)

    def test_one_registration_per_frame(self, monkeypatch):
        """The motion grid and the static-object broadcast share each
        frame's Frame.global_foreground; a second round on the same frames
        registers nothing."""
        frames, gt = generate_sequence(preset_scene("mixed", 0))
        preds = mock_detector(gt, NOISE_PROFILES["mild"], seed=0)
        calls = []
        transformed = PointCloud.transformed

        def counting(cloud, pose):
            calls.append(len(cloud))
            return transformed(cloud, pose)

        monkeypatch.setattr(PointCloud, "transformed", counting)
        first = refine_round(frames, preds, PipelineConfig())
        assert len(calls) == len(frames) == 11
        calls.clear()
        second = refine_round(frames, preds, PipelineConfig())
        assert calls == []
        assert second.labels == first.labels


class TestBackgroundInvariance:
    """Only foreground points decide SCF, the motion grids and a refine
    round, so background points added anywhere change nothing."""

    @pytest.mark.parametrize("scene", ["static", "mixed"])
    def test_refine_ignores_background(self, scene):
        rng = np.random.default_rng(5)
        spec = static_scene() if scene == "static" else preset_scene("mixed", 0)
        frames, gt = generate_sequence(spec)
        noisy, moved, added = with_background(frames, rng)
        preds = mock_detector(gt, NoiseModel(false_positives_per_frame=2.0), seed=3)
        config = PipelineConfig()
        for fr, fr2 in zip(frames, noisy):
            assert semantic_consistency_filter(preds[fr.frame_id], fr) == \
                semantic_consistency_filter(preds[fr.frame_id], fr2)
        eps = config.effective_epsilon(len(frames))
        grid = sequence_motion_grid(frames, config.cell_size,
                                    config.detection_range, eps)
        grid2 = sequence_motion_grid(noisy, config.cell_size,
                                     config.detection_range, eps)
        assert grid.spec == grid2.spec
        np.testing.assert_array_equal(grid.label, grid2.label)

        a = refine_round(frames, preds, config)
        b = refine_round(noisy, preds, config)
        assert a.labels == b.labels
        assert any(a.labels.values())
        for fid, kept in a.retained_indices.items():
            want = np.sort(np.concatenate([moved[fid][kept], added[fid]]))
            np.testing.assert_array_equal(b.retained_indices[fid], want)


class TestMockDetector:
    def test_zero_noise_identity(self):
        frames, gt = generate_sequence(static_scene())
        preds = mock_detector(gt, NOISE_PROFILES["none"], seed=0)
        for fid, boxes in gt.items():
            assert len(preds[fid]) == len(boxes)
            for p, g in zip(preds[fid], boxes):
                assert iou_3d(p.box, g) == pytest.approx(1.0, abs=1e-12)

    def test_full_drop(self):
        _, gt = generate_sequence(static_scene())
        noise = NoiseModel(drop_prob=1.0)
        preds = mock_detector(gt, noise, seed=0)
        assert all(len(v) == 0 for v in preds.values())

    def test_determinism(self):
        _, gt = generate_sequence(static_scene())
        a = mock_detector(gt, NOISE_PROFILES["default"], seed=42)
        b = mock_detector(gt, NOISE_PROFILES["default"], seed=42)
        assert repr(a) == repr(b)

    def test_false_positives(self):
        _, gt = generate_sequence(static_scene())
        noise = NoiseModel(false_positives_per_frame=3.0)
        preds = mock_detector(gt, noise, seed=1)
        assert sum(len(v) for v in preds.values()) > sum(len(v) for v in gt.values())

    def test_gapped_class_table(self):
        # Every box flips, to the one other id of the table (1, 3), and
        # false positives draw from the table too: class 2 never appears.
        _, gt = generate_sequence(preset_scene("mixed", 0))
        gt = {fid: [b for b in boxes if b.class_id != 2] for fid, boxes in gt.items()}
        noise = NoiseModel(drop_prob=0.0, class_flip_prob=1.0,
                           false_positives_per_frame=3.0)
        preds = mock_detector(gt, noise, seed=4, class_ids=(1, 3))
        drawn = []
        for fid, boxes in gt.items():
            assert [p.box.class_id for p in preds[fid][:len(boxes)]] == \
                [4 - b.class_id for b in boxes]
            drawn += [p.box.class_id for p in preds[fid][len(boxes):]]
        assert {b.class_id for bs in gt.values() for b in bs} == set(drawn) == {1, 3}
