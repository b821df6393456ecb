"""Multi-frame aggregation with motion-artifact removal.

The foreground of a window of consecutive frames is registered into the
target frame's coordinates, and BEV space is classified by how long each
cell stays continuously occupied: short maximal runs mean a moving object
passed through, long runs mean static structure. Points from non-target
frames are dropped wherever motion was detected, so the aggregated cloud
densifies static objects without smearing moving ones. Past registration
no step looks at a point's class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import BevGridSpec, PointCloud, Pose, grid_indices

CELL_EMPTY = 0
CELL_STATIC = 1
CELL_MOVING = 2


@dataclass(frozen=True)
class Frame:
    """One LiDAR sweep: sensor-coordinate points plus the pose to global."""

    frame_id: int
    timestamp: float
    pose: Pose
    points: PointCloud

    @cached_property
    def foreground(self) -> PointCloud:
        """The foreground points, in their order: the only points that are
        clustered, scored or counted against a box. Selected on first use
        and kept, so every box query on this frame shares its x order."""
        return self.points.select(self.points.foreground)

    @cached_property
    def global_foreground(self) -> PointCloud:
        """The foreground points, in their order, moved by the pose to global
        coordinates on first use and kept: refine's one registration."""
        return self.foreground.transformed(self.pose)


@dataclass
class MotionGrid:
    """BEV cells classified static/moving/empty by their longest run of
    consecutive occupied frames (see build_motion_grid)."""

    spec: BevGridSpec
    label: np.ndarray  # (nx, ny) uint8: CELL_* constants

    def labels_at(self, xy: np.ndarray) -> np.ndarray:
        """Labels of the cells holding BEV points (N, 2); EMPTY when off-grid."""
        ij = grid_indices(xy, self.spec)
        out = np.full(len(ij), CELL_EMPTY, dtype=np.uint8)
        on = ij[:, 0] >= 0
        out[on] = self.label[ij[on, 0], ij[on, 1]]
        return out


@dataclass
class DenseCloud:
    """Aggregated multi-frame cloud in the target frame's coordinates."""

    points: PointCloud


def register_window(frames: list[Frame], target_index: int) -> list[PointCloud]:
    """Transform each frame's foreground into the target frame's
    coordinates.

    The returned clouds are in window order.
    """
    if not frames:
        raise ValueError("empty aggregation window")
    if not (0 <= target_index < len(frames)):
        raise ValueError("target_index outside the window")
    to_target = frames[target_index].pose.inverse()
    return [f.foreground.transformed(to_target.compose(f.pose))
            for f in frames]


def build_motion_grid(registered: list[PointCloud], spec: BevGridSpec,
                      epsilon: int) -> MotionGrid:
    """Classify BEV cells by their maximal consecutive occupied run.

    For each cell the longest run of consecutive frames with at least one
    point inside is counted; cells with a run >= epsilon are static,
    ever-occupied cells below it are moving, the rest empty.
    """
    if not registered:
        raise ValueError("empty aggregation window")
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")

    # Flat keys i * ny + j of the on-grid cells each frame occupies; runs
    # are counted over the cells some frame occupies, not the whole grid.
    occupied = []
    for cloud in registered:
        ij = grid_indices(cloud.xyz[:, :2], spec)
        ij = ij[ij[:, 0] >= 0]
        occupied.append(ij[:, 0] * spec.ny + ij[:, 1])
    cells, at = np.unique(np.concatenate(occupied), return_inverse=True)
    occ = np.zeros((len(occupied), len(cells)), dtype=bool)  # frames x cells
    occ[np.repeat(np.arange(len(occupied)), [len(k) for k in occupied]), at] = True
    longest = np.zeros(len(cells), dtype=np.int64)
    run = np.zeros(len(cells), dtype=np.int64)
    for row in occ:
        run = np.where(row, run + 1, 0)
        longest = np.maximum(longest, run)

    label = np.zeros((spec.nx, spec.ny), dtype=np.uint8)
    label.reshape(-1)[cells] = np.where(longest >= epsilon, CELL_STATIC,
                                        CELL_MOVING)
    return MotionGrid(spec, label)


def build_dense_cloud(registered: list[PointCloud], grid: MotionGrid,
                      target_index: int) -> DenseCloud:
    """Aggregate the registered window, dropping motion artifacts.

    Every point of the target frame, registered[target_index], is kept.
    From other frames, points falling in moving cells are removed; points
    outside the grid carry no motion evidence and are kept.
    """
    if not registered:
        raise ValueError("empty aggregation window")
    if not (0 <= target_index < len(registered)):
        raise ValueError("target_index outside the window")
    kept = [cloud if k == target_index else
            cloud.select(grid.labels_at(cloud.xyz[:, :2]) != CELL_MOVING)
            for k, cloud in enumerate(registered)]
    return DenseCloud(PointCloud.concatenate(kept))
