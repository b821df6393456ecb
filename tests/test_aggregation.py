from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sembox import dataio, pipeline
from sembox.aggregation import (CELL_EMPTY, CELL_MOVING, CELL_STATIC, Frame,
                                build_dense_cloud, build_motion_grid,
                                register_window)
from sembox.cli import main
from sembox.config import PipelineConfig
from sembox.geometry import BevGridSpec, PointCloud, Pose, grid_indices
from sembox.refine import NOISE_PROFILES, mock_detector, refine_round
from sembox.synth import generate_sequence, preset_scene

from conftest import with_background

SPEC = BevGridSpec(0.0, 0.0, 1.0, 8, 8)


def cloud_at(cells, cls=1):
    """One point per (i, j) cell center."""
    if not cells:
        return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int32))
    xyz = np.array([[i + 0.5, j + 0.5, 0.0] for i, j in cells])
    return PointCloud(xyz, np.full(len(cells), cls, dtype=np.int32))


class TestMotionGrid:
    def test_interrupted_run_is_moving(self):
        # Occupancy pattern 1,1,0,1,1 over five frames, epsilon 3.
        frames = [cloud_at([(2, 2)]) if occ else cloud_at([])
                  for occ in (1, 1, 0, 1, 1)]
        grid = build_motion_grid(frames, SPEC, epsilon=3)
        assert grid.label[2, 2] == CELL_MOVING
        # The longest run is 2: static at epsilon 2, moving at epsilon 3.
        assert build_motion_grid(frames, SPEC, epsilon=2).label[2, 2] == CELL_STATIC

    def test_full_run_is_static(self):
        frames = [cloud_at([(2, 2)]) for _ in range(5)]
        grid = build_motion_grid(frames, SPEC, epsilon=3)
        assert grid.label[2, 2] == CELL_STATIC
        # The longest run is 5: static at epsilon 5, moving at epsilon 6.
        assert build_motion_grid(frames, SPEC, epsilon=5).label[2, 2] == CELL_STATIC
        assert build_motion_grid(frames, SPEC, epsilon=6).label[2, 2] == CELL_MOVING

    def test_never_occupied_is_empty(self):
        frames = [cloud_at([(2, 2)]) for _ in range(5)]
        grid = build_motion_grid(frames, SPEC, epsilon=3)
        assert grid.label[5, 5] == CELL_EMPTY

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty aggregation window"):
            build_motion_grid([], SPEC, epsilon=1)

    def test_epsilon_one_marks_everything_static(self):
        frames = [cloud_at([(1, 1)]), cloud_at([(5, 5)]), cloud_at([])]
        grid = build_motion_grid(frames, SPEC, epsilon=1)
        assert grid.label[1, 1] == CELL_STATIC
        assert grid.label[5, 5] == CELL_STATIC
        assert (grid.label != CELL_MOVING).all()

    def test_epsilon_above_window_marks_everything_moving(self):
        frames = [cloud_at([(1, 1)]) for _ in range(5)]
        grid = build_motion_grid(frames, SPEC, epsilon=len(frames) + 1)
        assert grid.label[1, 1] == CELL_MOVING
        assert (grid.label != CELL_STATIC).all()

    def test_effective_epsilon_default(self):
        assert PipelineConfig().effective_epsilon(11) == 7
        assert PipelineConfig().effective_epsilon(1) == 1

    def test_labels_at_reads_empty_off_grid(self):
        frames = [cloud_at([(2, 2)]), cloud_at([(2, 2), (5, 5)])]
        grid = build_motion_grid(frames, SPEC, epsilon=2)
        xy = np.array([[2.5, 2.5], [5.5, 5.5], [0.5, 0.5], [-0.1, 2.5],
                       [8.0, 2.5], [2.5, 8.0]])
        labels = grid.labels_at(xy)
        assert labels.dtype == np.uint8
        assert labels.tolist() == [CELL_STATIC, CELL_MOVING, CELL_EMPTY,
                                   CELL_EMPTY, CELL_EMPTY, CELL_EMPTY]
        assert len(grid.labels_at(np.zeros((0, 2)))) == 0


def dense_motion_labels(registered, spec, epsilon):
    """Reference for build_motion_grid: the run count over every cell of
    the grid, frame by frame; every point occupies its cell, whatever its
    class."""
    longest = np.zeros((spec.nx, spec.ny), dtype=np.int64)
    run = np.zeros((spec.nx, spec.ny), dtype=np.int64)
    ever = np.zeros((spec.nx, spec.ny), dtype=bool)
    for cloud in registered:
        occ = np.zeros((spec.nx, spec.ny), dtype=bool)
        ij = grid_indices(cloud.xyz[:, :2], spec)
        ij = ij[ij[:, 0] >= 0]
        occ[ij[:, 0], ij[:, 1]] = True
        run = np.where(occ, run + 1, 0)
        np.maximum(longest, run, out=longest)
        ever |= occ
    label = np.zeros((spec.nx, spec.ny), dtype=np.uint8)
    label[ever] = CELL_MOVING
    label[longest >= epsilon] = CELL_STATIC
    return label


class TestMotionGridOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 7),
           data=st.data())
    def test_labels_equal_dense_reference(self, seed, n_frames, data):
        rng = np.random.default_rng(seed)
        x0, y0 = rng.uniform(-5, 5, 2)
        cell = float(rng.choice([0.5, 1.0, 1.7]))
        spec = BevGridSpec.covering(x0, y0, x0 + rng.uniform(0.1, 6),
                                    y0 + rng.uniform(0.1, 9), cell)
        # Frames draw from one pool of spots, so cells stay occupied over
        # runs of frames; a margin around the grid puts some spots off it.
        pool = rng.uniform([x0 - 2, y0 - 2], [x0 + spec.nx * cell + 2,
                                              y0 + spec.ny * cell + 2], (12, 2))
        frames = []
        for _ in range(n_frames):
            kind = rng.integers(0, 4)  # empty, background only, mixed, far
            n = 0 if kind == 0 else int(rng.integers(1, 30))
            xy = pool[rng.integers(0, len(pool), n)]
            if kind == 3:
                xy[0] = [1e9, -1e9]
            cls = np.zeros(n) if kind == 1 else rng.integers(0, 3, n)
            frames.append(PointCloud(np.column_stack([xy, np.zeros(n)]),
                                     cls.astype(np.int32)))
        epsilon = data.draw(st.integers(1, n_frames + 1))
        grid = build_motion_grid(frames, spec, epsilon)
        assert grid.label.shape == (spec.nx, spec.ny)
        assert grid.label.dtype == np.uint8
        np.testing.assert_array_equal(grid.label,
                                      dense_motion_labels(frames, spec, epsilon))


def make_frame(fid, cloud, pose=None):
    return Frame(fid, fid * 0.1, pose or Pose(np.eye(3), np.zeros(3)), cloud)


class TestRegister:
    def test_registration_into_target(self):
        # Same world point seen from two poses lands on one spot.
        world = np.array([[3.0, 4.0, 0.5]])
        p0 = Pose.from_xyz_yaw(1.0, 0.0, 0.0, 0.3)
        p1 = Pose.from_xyz_yaw(2.0, -1.0, 0.0, -0.2)
        frames = [
            make_frame(0, PointCloud(p0.inverse().apply(world), np.array([1])), p0),
            make_frame(1, PointCloud(p1.inverse().apply(world), np.array([1])), p1),
        ]
        reg = register_window(frames, 0)
        np.testing.assert_allclose(reg[0].xyz, reg[1].xyz, atol=1e-9)
        # Window order is kept: the target frame sits at its own position.
        np.testing.assert_allclose(reg[0].xyz, frames[0].points.xyz, atol=1e-12)

    def test_only_foreground_registered_in_order(self):
        # Background interleaved with foreground: each frame registers its
        # foreground alone, in frame order, and nothing else.
        poses = [Pose.from_xyz_yaw(1.0, 0.0, 0.0, 0.3),
                 Pose.from_xyz_yaw(2.0, -1.0, 0.0, -0.2)]
        xyz = np.arange(18, dtype=float).reshape(6, 3)
        cls = np.array([0, 2, 0, 0, 1, 3], dtype=np.int32)
        frames = [make_frame(k, PointCloud(xyz + k, cls), pose)
                  for k, pose in enumerate(poses)]
        reg = register_window(frames, 1)
        to_target = poses[1].inverse()
        for f, cloud in zip(frames, reg):
            want = f.foreground.transformed(to_target.compose(f.pose))
            np.testing.assert_array_equal(cloud.xyz, want.xyz)
            assert cloud.class_id.tolist() == [2, 1, 3]


class TestDenseCloud:
    def test_static_scene_keeps_everything(self):
        frames = [cloud_at([(2, 2), (3, 3)]) for _ in range(3)]
        grid = build_motion_grid(frames, SPEC, epsilon=2)
        dense = build_dense_cloud(frames, grid, 1)
        assert len(dense.points) == 6

    def test_moving_object_only_target_survives(self):
        # An object hopping to a new cell every frame.
        frames = [cloud_at([(k, 0)]) for k in range(3)]
        grid = build_motion_grid(frames, SPEC, epsilon=2)
        dense = build_dense_cloud(frames, grid, 1)
        assert len(dense.points) == 1
        np.testing.assert_array_equal(dense.points.xyz, frames[1].xyz)

    def test_class_does_not_matter(self):
        # A class-0 point hopping cells beside a static foreground point:
        # in non-target frames it is dropped like any other moving point.
        frames = [PointCloud(np.concatenate([cloud_at([(6, 6)]).xyz,
                                             cloud_at([(k, 0)]).xyz]),
                             np.array([1, 0], dtype=np.int32))
                  for k in range(3)]
        grid = build_motion_grid(frames, SPEC, epsilon=2)
        assert grid.label[0, 0] == CELL_MOVING
        dense = build_dense_cloud(frames, grid, 1)
        assert dense.points.class_id.tolist() == [1, 1, 0, 1]
        np.testing.assert_array_equal(dense.points.xyz[2], frames[1].xyz[1])

    def test_single_frame_window_equals_target(self):
        frames = [cloud_at([(1, 1), (2, 2)])]
        grid = build_motion_grid(frames, SPEC, epsilon=1)
        dense = build_dense_cloud(frames, grid, 0)
        assert len(dense.points) == 2

    def test_count_bounds(self, rng):
        frames = []
        for k in range(5):
            pts = rng.uniform(0, 8, (30, 3))
            pts[:, 2] = 0
            cls = rng.integers(0, 2, 30).astype(np.int32)
            frames.append(PointCloud(pts, cls))
        grid = build_motion_grid(frames, SPEC, epsilon=3)
        dense = build_dense_cloud(frames, grid, 2)
        assert len(frames[2]) <= len(dense.points) <= sum(len(f) for f in frames)


class TestForegroundOnlyWindow:
    """generate clusters and scores only foreground points, so background
    points added anywhere change no label, and none is registered."""

    def test_generate_ignores_background(self, monkeypatch):
        frames, _ = generate_sequence(preset_scene("mixed", 0))
        noisy, _, _ = with_background(frames, np.random.default_rng(11))
        registered = []

        def recording(window, target_index):
            out = register_window(window, target_index)
            registered.extend(cloud.class_id for cloud in out)
            return out

        monkeypatch.setattr(pipeline, "register_window", recording)
        config = PipelineConfig()
        want = pipeline.generate_labels(frames, config)
        assert pipeline.generate_labels(noisy, config) == want
        assert any(want.values())
        assert len(registered) > len(frames)
        assert all((cls > 0).all() for cls in registered)


class TestFrameForeground:
    """A frame selects its foreground once, on first use, and keeps it:
    generate's windows and every refine stage read that one view."""

    @staticmethod
    def count_selections(monkeypatch, frames):
        """Calls of PointCloud.select on each frame's points, by frame id."""
        calls = {fr.frame_id: 0 for fr in frames}
        frame_of = {id(fr.points): fr.frame_id for fr in frames}
        select = PointCloud.select

        def counting(cloud, mask):
            if id(cloud) in frame_of:
                calls[frame_of[id(cloud)]] += 1
            return select(cloud, mask)

        monkeypatch.setattr(PointCloud, "select", counting)
        return calls

    def test_generate_selects_once_per_frame(self, monkeypatch):
        frames, _ = generate_sequence(preset_scene("mixed", 0))
        calls = self.count_selections(monkeypatch, frames)
        pipeline.generate_labels(frames, PipelineConfig())
        assert max(calls.values()) == 1

    def test_refine_selects_once_per_frame(self, monkeypatch):
        frames, gt = generate_sequence(preset_scene("mixed", 0))
        preds = mock_detector(gt, NOISE_PROFILES["mild"], seed=0)
        calls = self.count_selections(monkeypatch, frames)
        result = refine_round(frames, preds, PipelineConfig())
        assert any(result.labels.values())
        assert max(calls.values()) == 1

    def test_frame_is_frozen(self):
        frames, _ = generate_sequence(preset_scene("mixed", 0))
        fr = frames[0]
        np.testing.assert_array_equal(fr.foreground.xyz,
                                      fr.points.xyz[fr.points.class_id > 0])
        with pytest.raises(FrozenInstanceError):
            fr.points = fr.foreground

    @pytest.mark.parametrize("name", ["foreground", "global_foreground"])
    def test_cached_on_first_read(self, name):
        fr = generate_sequence(preset_scene("mixed", 0))[0][3]
        assert getattr(fr, name) is getattr(fr, name)

    def test_global_foreground_is_the_registered_foreground(self):
        fr = generate_sequence(preset_scene("mixed", 0))[0][3]
        want = fr.foreground.transformed(fr.pose)
        assert fr.global_foreground.xyz.tobytes() == want.xyz.tobytes()
        assert fr.global_foreground.class_id.tobytes() == want.class_id.tobytes()


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of every pool map_frames starts, with
        ProcessPoolExecutor replaced by a pool without a process."""
        recorded = []

        class InlinePool:
            """Records max_workers, runs the initializer and maps in this
            process."""

            def __init__(self, max_workers, mp_context, initializer,
                         initargs):
                recorded.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(pipeline, "_JOB", None)
        return recorded

    def test_at_most_one_worker_per_frame(self, pools):
        frames, _ = generate_sequence(preset_scene("mixed", 0))
        frames = frames[:3]
        config = PipelineConfig()
        pooled = pipeline.generate_labels(frames, config, threads=8)
        assert pools == [3]
        assert pooled == pipeline.generate_labels(frames, config, threads=1)

    def test_score_labels_pools_only_above_one_thread(self, pools, tmp_path):
        frames, gt = generate_sequence(preset_scene("mixed", 0))
        ds = tmp_path / "ds"
        dataio.write_dataset(ds, frames, PipelineConfig().class_names(), gt=gt)
        rescored = {}
        for threads, started in ((1, []), (2, [2])):
            out = tmp_path / f"t{threads}"
            assert main(["score-labels", str(ds), "--labels", str(ds / "gt_labels"),
                         "--out", str(out), "--threads", str(threads)]) == 0
            assert pools == started
            rescored[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert rescored[1] and rescored[1] == rescored[2]
