"""End-to-end pseudo-label generation over a sequence.

Each frame is processed from its own aggregation window, so frames are
independent work units. Parallel runs use forked worker processes that
inherit the loaded sequence, keeping per-task overhead at a frame index in
and a small label list out; results are ordered by frame id, so output is
identical to a sequential run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .aggregation import (Frame, build_dense_cloud, build_motion_grid,
                          register_window)
from .clustering import multi_scale_cluster
from .config import ConfigError, PipelineConfig
from .geometry import BevGridSpec, PointCloud
from .scoring import SOURCE_INIT, PseudoLabel, nms_select

THREADS_ENV_VAR = "SEMBOX_THREADS"


def resolve_threads(cli_value: int | None) -> int:
    """Thread count precedence: explicit CLI value, env override, the CPUs
    this process may run on (its affinity set, where the platform has one)."""
    if cli_value is not None:
        return cli_value
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            if int(env) >= 1:
                return int(env)
        except ValueError:
            pass
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {env!r}")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def aggregate_window(frames: list[Frame], index: int,
                     config: PipelineConfig) -> PointCloud:
    """Foreground dense cloud of frames[index] from its window of up to
    window_half_size frames on each side: register, classify motion,
    aggregate.
    """
    n = config.window_half_size
    lo = max(0, index - n)
    hi = min(len(frames), index + n + 1)
    registered = register_window(frames[lo:hi], index - lo)

    spec = BevGridSpec.centered(config.detection_range, config.cell_size)
    epsilon = config.effective_epsilon(len(registered))
    grid = build_motion_grid(registered, spec, epsilon)
    return build_dense_cloud(registered, grid, index - lo).points


def process_frame(frames: list[Frame], index: int,
                  config: PipelineConfig) -> list[PseudoLabel]:
    """Pseudo-labels for frames[index] from its aggregation window, in label_order."""
    dense = aggregate_window(frames, index, config)
    candidates = multi_scale_cluster(dense, config.cluster_params(),
                                     config.yaw_step_deg, config.fit_criterion)
    boxes = [c.box for c in candidates]
    scores = config.score_boxes(boxes, dense)
    return [config.label(boxes[i], scores[i], SOURCE_INIT)
            for i in nms_select(boxes, scores, config.nms_iou_threshold)]


# Each worker holds the active job in module state, set once by the pool
# initializer; only the frame index crosses the process boundary per task.
_ACTIVE: tuple[list[Frame], PipelineConfig] | None = None


def _worker(index: int) -> list[PseudoLabel]:
    frames, config = _ACTIVE
    return process_frame(frames, index, config)


def _init_active(frames: list[Frame], config: PipelineConfig) -> None:
    global _ACTIVE
    _ACTIVE = (frames, config)


def generate_labels(frames: list[Frame], config: PipelineConfig,
                    threads: int = 1) -> dict[int, list[PseudoLabel]]:
    """Pseudo-labels for every frame of the sequence, keyed by frame id."""
    if not frames:
        raise ValueError("empty sequence")
    indices = list(range(len(frames)))
    if threads <= 1 or len(frames) == 1:
        return {frames[i].frame_id: process_frame(frames, i, config)
                for i in indices}

    # Under fork the initializer's arguments are inherited, never pickled.
    # Python >= 3.11 forks every worker at the first submit, so the pool
    # holds at most one worker per frame.
    ctx = (multiprocessing.get_context("fork")
           if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(max_workers=min(threads, len(frames)),
                             mp_context=ctx,
                             initializer=_init_active,
                             initargs=(frames, config)) as pool:
        # map yields the results in the order of indices.
        return {fr.frame_id: labels
                for fr, labels in zip(frames, pool.map(_worker, indices))}


def summarize_labels(labels: dict[int, list[PseudoLabel]]) -> dict:
    """Run summary: counts and a decile histogram of combined scores."""
    all_scores = [lab.scores.msf for labs in labels.values() for lab in labs]
    hist, _ = np.histogram(all_scores, bins=10, range=(0.0, 1.0))
    return {
        "frames": len(labels),
        "labels_total": int(sum(len(v) for v in labels.values())),
        "labels_per_frame": {str(fid): len(labels[fid]) for fid in sorted(labels)},
        "msf_histogram": {
            "bin_edges": [round(0.1 * k, 1) for k in range(11)],
            "counts": [int(c) for c in hist],
        },
    }
