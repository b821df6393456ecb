import json
import logging

import numpy as np
import pytest

from sembox import dataio
from sembox.config import ClassConfig, ConfigError, PipelineConfig
from sembox.dataio import FormatError
from sembox.geometry import Box3D, PointCloud, Pose
from sembox.refine import Prediction
from sembox.scoring import PseudoLabel, ScoreBreakdown
from sembox.synth import generate_sequence, preset_scene


def random_cloud(rng, n=50):
    return PointCloud(rng.uniform(-80, 80, (n, 3)),
                      rng.integers(0, 4, n).astype(np.int32))


class TestPoints:
    def test_text_round_trip(self, tmp_path, rng):
        cloud = random_cloud(rng)
        path = tmp_path / "p.txt"
        dataio.write_points_text(path, cloud)
        back = dataio.read_points(path)
        np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-6)
        np.testing.assert_array_equal(back.class_id, cloud.class_id)

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        cloud = random_cloud(rng)
        path = tmp_path / "p.bin"
        dataio.write_points_binary(path, cloud)
        back = dataio.read_points(path)
        assert back.xyz.tobytes() == cloud.xyz.tobytes()
        np.testing.assert_array_equal(back.class_id, cloud.class_id)

    def test_truncated_binary_names_record(self, tmp_path, rng):
        cloud = random_cloud(rng, n=10)
        path = tmp_path / "p.bin"
        dataio.write_points_binary(path, cloud)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(FormatError, match="record 9"):
            dataio.read_points(path)

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1.0 2.0 3.0 1\n1.0 2.0\n")
        with pytest.raises(FormatError, match=":2:"):
            dataio.read_points(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        assert len(dataio.read_points(path)) == 0


class TestPose:
    def test_round_trip(self, tmp_path):
        pose = Pose.from_xyz_yaw(1.5, -2.5, 1.8, 0.7)
        path = tmp_path / "pose.txt"
        dataio.write_pose(path, pose)
        back = dataio.read_pose(path)
        np.testing.assert_allclose(back.rotation, pose.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, pose.translation, atol=1e-12)

    def test_bad_pose_file(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_text("1 0 0 0\n0 1 0 0\n")
        with pytest.raises(FormatError, match="3 rows"):
            dataio.read_pose(path)


def label(**kw):
    fields = dict(cx=10.123456789, cy=-3.5, cz=0.8, l=4.6, w=1.8, h=1.6,
                  yaw=0.37)
    fields.update(kw)
    box = Box3D(**fields, class_id=1)
    return PseudoLabel(box, ScoreBreakdown(0.5, 0.75, 1.0, 0.75), 0.875, "init")


class TestLabels:
    def test_round_trip(self, tmp_path):
        labs = [label(), label(cx=5.0, yaw=-1.2)]
        path = tmp_path / "l.txt"
        dataio.write_labels(path, 0, labs)
        back = dataio.read_labels(path, 0)
        assert len(back) == 2
        for a, b in zip(back, labs):
            for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                assert getattr(a.box, f) == pytest.approx(getattr(b.box, f),
                                                          abs=1e-9)
            assert a.scores.msf == pytest.approx(b.scores.msf, abs=1e-9)
            assert a.weight == pytest.approx(b.weight, abs=1e-9)
            assert a.source == b.source

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0 1 1.0 2.0 0.5 4.0 2.0 1.5 0.0 0.5 0.5 0.5 0.5 0.5\n")
        with pytest.raises(FormatError, match="source"):
            dataio.read_labels(path, 0)

    def test_weight_inconsistency_warns(self, tmp_path, caplog):
        box = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.0, class_id=1)
        bad = PseudoLabel(box, ScoreBreakdown(0.9, 0.9, 0.9, 0.9), 0.123, "init")
        path = tmp_path / "l.txt"
        dataio.write_labels(path, 0, [bad])
        with caplog.at_level(logging.WARNING, logger="sembox"):
            dataio.read_labels(path, 0, weight_thresholds=(0.4, 0.8))
        assert any("inconsistent" in r.message for r in caplog.records)

    def test_predictions_round_trip(self, tmp_path):
        preds = [Prediction(Box3D(3, 4, 0.7, 4.2, 1.7, 1.5, 0.9, class_id=2),
                            0.65)]
        path = tmp_path / "p.txt"
        dataio.write_predictions(path, 5, preds)
        back = dataio.read_predictions(path, 5)
        assert back[0].confidence == pytest.approx(0.65, abs=1e-9)
        assert path.read_text().split()[0] == "5"
        assert back[0].box.class_id == 2

    def test_box_dir_round_trip(self, tmp_path):
        per_frame = {0: [label()], 3: [label(), label(cx=1.0)]}
        dataio.write_box_dir(tmp_path / "labels", per_frame)
        back = dataio.read_box_dir(tmp_path / "labels")
        assert sorted(back) == [0, 3]
        assert len(back[3]) == 2


class TestDataset:
    def test_write_load_round_trip(self, tmp_path):
        frames, gt = generate_sequence(preset_scene("adjacent", 1))
        root = tmp_path / "seq"
        dataio.write_dataset(root, frames, {1: "vehicle", 2: "pedestrian",
                                            3: "cyclist"}, gt=gt)
        back, classes = dataio.load_dataset(root)
        assert classes[0] == "background"
        assert classes[1] == "vehicle"
        assert len(back) == len(frames)
        np.testing.assert_allclose(back[0].points.xyz, frames[0].points.xyz,
                                   atol=1e-6)
        np.testing.assert_allclose(back[0].pose.rotation,
                                   frames[0].pose.rotation, atol=1e-12)
        gt_back = dataio.read_box_dir(root / "gt_labels")
        assert sum(len(v) for v in gt_back.values()) == \
            sum(len(v) for v in gt.values())

    def test_binary_dataset(self, tmp_path):
        frames, gt = generate_sequence(preset_scene("adjacent", 1))
        root = tmp_path / "seq"
        dataio.write_dataset(root, frames, {1: "vehicle"}, gt=gt,
                             points_format="binary")
        back, _ = dataio.load_dataset(root)
        assert back[0].points.xyz.tobytes() == frames[0].points.xyz.tobytes()

    def test_manifest_entries_sorted_by_frame_id(self, tmp_path):
        frames, _ = generate_sequence(preset_scene("adjacent", 1))
        root = tmp_path / "seq"
        dataio.write_dataset(root, frames, {1: "vehicle"})
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["frames"].reverse()
        (root / "manifest.json").write_text(json.dumps(manifest))
        entries, _ = dataio.read_manifest(root)
        ids = [fr.frame_id for fr in frames]
        assert [e.frame_id for e in entries] == ids
        assert entries[2].pose == root / "poses" / "frame_000002.txt"
        assert [fr.frame_id for fr in dataio.load_dataset(root)[0]] == ids

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest.json"):
            dataio.load_dataset(tmp_path)

    def test_retained_indices(self, tmp_path):
        dataio.write_retained_indices(tmp_path / "r", {0: np.array([1, 5, 9])})
        text = (tmp_path / "r" / "frame_000000.txt").read_text()
        assert text == "1\n5\n9\n"


class TestConfig:
    def test_defaults_reproduce_published_constants(self):
        cfg = PipelineConfig()
        assert cfg.occ_grid_r == 7
        assert cfg.lambdas == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.theta_low == 0.4
        assert cfg.theta_high == 0.8

    def test_json_round_trip(self, tmp_path):
        cfg = PipelineConfig(window_half_size=3, cell_size=0.5,
                             nms_iou_threshold=0.25)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        back = PipelineConfig.from_json(path)
        assert back == cfg

    def test_validation_names_fields(self):
        with pytest.raises(ConfigError, match="cell_size"):
            PipelineConfig(cell_size=-1.0)
        with pytest.raises(ConfigError, match="lambdas"):
            PipelineConfig(lambdas=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError, match="theta"):
            PipelineConfig(theta_low=0.9, theta_high=0.5)
        with pytest.raises(ConfigError, match="radii"):
            PipelineConfig(classes={1: ClassConfig("vehicle", (1.0, 0.5), 5,
                                                   (4.6, 1.8, 1.6))})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig.from_dict({"not_a_field": 1})

    def test_epsilon_derivation(self):
        cfg = PipelineConfig()
        assert cfg.effective_epsilon(11) == 7
        assert cfg.with_overrides(epsilon=3).effective_epsilon(11) == 3
