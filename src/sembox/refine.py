"""One self-training refinement round over detector predictions.

The round trusts the per-point semantics more than the detector: boxes
whose interior semantics contradict their class are dropped; boxes of
static objects are pooled across frames in global coordinates and replaced
everywhere by the single best-scoring one (far, sparse frames inherit the
near-range geometry); foreground points that end up outside every label
are removed from the training cloud so they are not learned as background.
Moving objects are passed through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import (CELL_EMPTY, CELL_MOVING, CELL_STATIC, Frame,
                          MotionGrid, build_motion_grid)
from .clustering import connected_components
from .config import _MAX_BEV_CELLS, PipelineConfig, _check_types
from .geometry import (BevGridSpec, Box3D, PointCloud, bev_candidate_pairs,
                       bev_iou, transform_box)
from .scoring import SOURCE_INIT, SOURCE_REFINED, PseudoLabel, label_order


@dataclass(frozen=True)
class Prediction:
    """One detector output box."""

    box: Box3D
    confidence: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence!r} outside [0, 1]")


@dataclass
class RefinedLabelSet:
    """Output of a refinement round: labels and surviving point indices."""

    labels: dict[int, list[PseudoLabel]]
    retained_indices: dict[int, np.ndarray] = field(default_factory=dict)


def semantic_consistency_filter(preds: list[Prediction], frame: Frame,
                                min_fraction: float = 0.05,
                                min_points: int = 3) -> list[Prediction]:
    """Drop predictions whose interior semantics contradict their class.

    For each box the interior points are gathered; a class counts as
    present when it has at least min_points points and at least
    min_fraction of the box's foreground points. A prediction is dropped
    when its box holds no foreground points, when the majority foreground
    class disagrees with the predicted one, or when two or more foreground
    classes are present at once.
    """
    fg = frame.foreground
    kept: list[Prediction] = []
    for pred in preds:
        inside = fg.class_id[fg.inside(pred.box)]
        if len(inside) == 0:
            continue
        ids, counts = np.unique(inside, return_counts=True)
        majority = int(ids[np.argmax(counts)])  # ties: smallest class id
        if majority != pred.box.class_id:
            continue
        present = (counts >= min_points) & (counts >= min_fraction * len(inside))
        if int(present.sum()) >= 2:
            continue
        kept.append(pred)
    return kept


class PoseSpanError(ValueError):
    """A sequence's poses lie too far apart for one motion grid; frame_ids
    are the frames at the ends of each side that is too long."""

    def __init__(self, message: str, frame_ids: list[int]) -> None:
        super().__init__(message)
        self.frame_ids = frame_ids


def sequence_motion_grid(frames: list[Frame], cell_size: float,
                         detection_range: float, epsilon: int) -> MotionGrid:
    """Motion grid over a whole sequence in global coordinates, built from
    each frame's Frame.global_foreground: the foreground points, the only
    ones it counts, registered once per frame and shared with STCF.

    The grid covers every pose centre +- detection_range. A span of more
    than _MAX_BEV_CELLS cells per side raises PoseSpanError before any
    allocation."""
    if not frames:
        raise ValueError("empty sequence")
    centers = np.array([fr.pose.translation[:2] for fr in frames])
    lo = centers.min(axis=0) - detection_range
    hi = centers.max(axis=0) + detection_range
    with np.errstate(over="ignore"):  # a span past float range is inf cells
        cells = (hi - lo) / cell_size
    if (too_long := cells > _MAX_BEV_CELLS).any():
        ends = {frames[k].frame_id for axis in np.flatnonzero(too_long)
                for k in (centers[:, axis].argmin(), centers[:, axis].argmax())}
        raise PoseSpanError(
            f"the motion grid over the poses +- detection_range ({detection_range:g} m) "
            f"needs {cells.max():g} cells of {cell_size:g} m per side, more than "
            f"{_MAX_BEV_CELLS}", sorted(ends))
    spec = BevGridSpec.covering(lo[0], lo[1], hi[0], hi[1], cell_size)
    return build_motion_grid([fr.global_foreground for fr in frames], spec, epsilon)


def _connected_groups(boxes: list[Box3D]) -> list[list[int]]:
    """Connected components under 'any BEV overlap' between boxes, each
    ascending and ordered by its smallest index."""
    i, j = bev_candidate_pairs(boxes)
    hit = [k for k in range(len(i)) if bev_iou(boxes[i[k]], boxes[j[k]]) > 0.0]
    root = connected_components(len(boxes), i[hit], j[hit])
    # A component's root is its smallest box, the one that is its own root.
    return [np.flatnonzero(root == r).tolist()
            for r in np.flatnonzero(root == np.arange(len(boxes)))]


@dataclass(frozen=True)
class RefinedBox:
    box: Box3D
    source: str


def _prediction_motion_state(box: Box3D, global_box: Box3D, frame: Frame,
                             grid: MotionGrid) -> int:
    """Motion classification of a sensor-frame box, in global-grid cell
    labels. The BEV center cell of global_box, the box in global
    coordinates, decides when it is occupied. Box interiors are hollow for
    surface returns, so an empty center falls back to a vote over the cells
    of the box's own interior foreground points: static wins ties, no
    points at all means no motion evidence (empty).
    """
    label = int(grid.labels_at(np.array([[global_box.cx, global_box.cy]]))[0])
    if label != CELL_EMPTY:
        return label
    inside = frame.foreground.inside(box)
    if len(inside) == 0:
        return CELL_EMPTY
    states = grid.labels_at(frame.global_foreground.xyz[inside, :2])
    n_static = int((states == CELL_STATIC).sum())
    n_moving = int((states == CELL_MOVING).sum())
    if n_static == 0 and n_moving == 0:
        return CELL_EMPTY
    return CELL_STATIC if n_static >= n_moving else CELL_MOVING


def spatial_temporal_fine_tune(preds_per_frame: dict[int, list[Prediction]],
                               frames: list[Frame], grid: MotionGrid,
                               config: PipelineConfig) -> dict[int, list[RefinedBox]]:
    """Broadcast the best static-object box of each cross-frame group.

    Predictions centered in static cells are pooled in global coordinates,
    grouped by any-overlap connected components per class (one group per
    physical object), scored against the aggregated static foreground
    points of their class, and the winner, first in label_order, is written
    back into every frame holding at least one foreground point of the
    class inside it. All other predictions pass through unrefined. Every
    key of preds_per_frame must be the id of one of the frames. Each
    prediction is moved to global coordinates once; the static points are
    the frames' Frame.global_foreground, the registration
    sequence_motion_grid made.
    """
    frame_of = {fr.frame_id: fr for fr in frames}
    out: dict[int, list[RefinedBox]] = {fr.frame_id: [] for fr in frames}
    static_by_class: dict[int, list[Box3D]] = {}  # global coordinates
    for fid in sorted(preds_per_frame):
        for pred in preds_per_frame[fid]:
            box = transform_box(pred.box, frame_of[fid].pose)
            if _prediction_motion_state(pred.box, box, frame_of[fid],
                                        grid) == CELL_STATIC:
                static_by_class.setdefault(box.class_id, []).append(box)
            else:
                out[fid].append(RefinedBox(pred.box, SOURCE_INIT))

    if static_by_class:
        # Foreground points in static cells, global coordinates.
        moved = PointCloud.concatenate([fr.global_foreground for fr in frames])
        static = moved.select(grid.labels_at(moved.xyz[:, :2]) == CELL_STATIC)
        to_local = {fr.frame_id: fr.pose.inverse() for fr in frames}
        for cid in sorted(static_by_class):
            global_boxes = static_by_class[cid]
            scores = config.score_boxes(global_boxes, static)
            for group in _connected_groups(global_boxes):
                winner = global_boxes[min(group, key=lambda g: label_order(
                    global_boxes[g], scores[g]))]
                for fr in frames:
                    local = transform_box(winner, to_local[fr.frame_id])
                    fg = fr.foreground
                    if np.any(fg.class_id[fg.inside(local)] == cid):
                        # The broadcast replaces whatever same-class
                        # predictions it overlaps in this frame.
                        out[fr.frame_id] = [
                            rb for rb in out[fr.frame_id]
                            if rb.box.class_id != cid
                            or bev_iou(rb.box, local) == 0.0
                        ]
                        out[fr.frame_id].append(
                            RefinedBox(local, SOURCE_REFINED))
    return out


def box_absent_foreground_filter(frame: Frame,
                                 labels: list[PseudoLabel]) -> np.ndarray:
    """Indices of points to keep: background always, foreground only when
    covered by at least one label box. Sorted ascending."""
    keep = ~frame.points.foreground
    fg_idx = np.flatnonzero(frame.points.foreground)
    for lab in labels:
        keep[fg_idx[frame.foreground.inside(lab.box)]] = True
    return np.flatnonzero(keep)


def refine_round(frames: list[Frame],
                 preds_per_frame: dict[int, list[Prediction]],
                 config: PipelineConfig) -> RefinedLabelSet:
    """Run one refinement round: confidence floor, semantic filtering,
    static-object broadcast, rescoring and weighting, foreground filtering.
    The floor also drops predictions of a class the config cannot score."""
    frame_by_id = {fr.frame_id: fr for fr in frames}
    filtered: dict[int, list[Prediction]] = {}
    for fid in sorted(preds_per_frame):
        if fid not in frame_by_id:
            raise ValueError(f"predictions reference unknown frame {fid}")
        preds = [p for p in preds_per_frame[fid]
                 if p.confidence >= config.confidence_floor
                 and p.box.class_id in config.classes]
        filtered[fid] = semantic_consistency_filter(
            preds, frame_by_id[fid], config.scf_min_fraction,
            config.scf_min_points)

    epsilon = config.effective_epsilon(len(frames))
    grid = sequence_motion_grid(frames, config.cell_size,
                                config.detection_range, epsilon)
    refined = spatial_temporal_fine_tune(filtered, frames, grid, config)

    labels: dict[int, list[PseudoLabel]] = {}
    retained: dict[int, np.ndarray] = {}
    for fr in frames:
        boxes = refined[fr.frame_id]
        scores = config.score_boxes([rb.box for rb in boxes], fr.foreground)
        frame_labels = [config.label(rb.box, sc, rb.source)
                        for rb, sc in zip(boxes, scores)]
        frame_labels.sort(key=lambda lab: label_order(lab.box, lab.scores))
        labels[fr.frame_id] = frame_labels
        retained[fr.frame_id] = box_absent_foreground_filter(fr, frame_labels)
    return RefinedLabelSet(labels, retained)


# Mock detector -------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Synthetic detector error model; all noise grows linearly with range."""

    pos_sigma: float = 0.3
    size_sigma: float = 0.1
    yaw_sigma_deg: float = 3.0
    range_growth: float = 30.0  # sigma multiplier = 1 + range / range_growth
    drop_prob: float = 0.1
    class_flip_prob: float = 0.1
    false_positives_per_frame: float = 0.0
    confidence_base: float = 0.9
    confidence_range_slope: float = 0.004
    confidence_sigma: float = 0.0

    def __post_init__(self) -> None:
        _check_types(self)
        for name in ("pos_sigma", "size_sigma", "yaw_sigma_deg",
                     "false_positives_per_frame", "confidence_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        for name in ("drop_prob", "class_flip_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name}: must be in [0, 1]")
        if self.range_growth <= 0:
            raise ValueError("range_growth: must be > 0")


NOISE_PROFILES = {
    "none": NoiseModel(0.0, 0.0, 0.0, 30.0, 0.0, 0.0, 0.0),
    "mild": NoiseModel(0.1, 0.05, 1.0, 30.0, 0.05, 0.02, 0.0),
    "default": NoiseModel(0.3, 0.1, 3.0, 30.0, 0.1, 0.1, 0.0),
    "harsh": NoiseModel(0.5, 0.2, 6.0, 20.0, 0.2, 0.15, 1.0),
}


def mock_detector(boxes_per_frame: dict[int, list[Box3D]], noise: NoiseModel,
                  seed: int, class_ids: tuple[int, ...] = (1, 2, 3)
                  ) -> dict[int, list[Prediction]]:
    """Stand-in for a trained detector: input boxes plus seeded noise.

    Flipped and false-positive classes are drawn from class_ids.
    Deterministic for a fixed seed; with a zero noise model the output
    boxes equal the input boxes.
    """
    rng = np.random.default_rng(seed)
    out: dict[int, list[Prediction]] = {}
    for fid in sorted(boxes_per_frame):
        preds: list[Prediction] = []
        for box in boxes_per_frame[fid]:
            if rng.uniform() < noise.drop_prob:
                continue
            r = math.hypot(box.cx, box.cy)
            g = 1.0 + r / noise.range_growth
            dx, dy = rng.normal(0.0, noise.pos_sigma * g, 2)
            dz = rng.normal(0.0, noise.pos_sigma * g * 0.3)
            dsize = rng.normal(0.0, noise.size_sigma * g, 3)
            dyaw = rng.normal(0.0, math.radians(noise.yaw_sigma_deg) * g)
            class_id = box.class_id
            if rng.uniform() < noise.class_flip_prob and len(class_ids) > 1:
                others = [c for c in class_ids if c != class_id]
                class_id = int(others[rng.integers(len(others))])
            conf = noise.confidence_base - noise.confidence_range_slope * r
            if noise.confidence_sigma > 0:
                conf += rng.normal(0.0, noise.confidence_sigma)
            jittered = Box3D(
                box.cx + dx, box.cy + dy, box.cz + dz,
                max(box.l + dsize[0], 0.1), max(box.w + dsize[1], 0.1),
                max(box.h + dsize[2], 0.1), box.yaw + dyaw, class_id)
            preds.append(Prediction(jittered, float(np.clip(conf, 0.01, 1.0))))
        n_fp = int(rng.poisson(noise.false_positives_per_frame)) \
            if noise.false_positives_per_frame > 0 else 0
        for _ in range(n_fp):
            r = math.sqrt(rng.uniform(5.0 ** 2, 60.0 ** 2))
            az = rng.uniform(0.0, 2.0 * math.pi)
            cls = int(class_ids[rng.integers(len(class_ids))])
            preds.append(Prediction(
                Box3D(r * math.cos(az), r * math.sin(az), 0.8,
                      4.0 + rng.uniform(-1, 1), 1.8 + rng.uniform(-0.5, 0.5),
                      1.6, rng.uniform(-math.pi, math.pi), cls),
                float(rng.uniform(0.3, 0.6))))
        out[fid] = preds
    return out
