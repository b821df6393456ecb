"""Label quality metrics against ground truth.

Recall/precision are computed at several 3D IoU thresholds with
independent greedy score-ordered one-to-one matching per threshold. Error
analysis (IoU histogram, size/position/yaw MAE by ego distance) uses a
separate any-overlap matching so that poorly fitting boxes contribute
their errors instead of silently dropping out.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Box3D, iou_3d, orientation_distance

# Matching floor for the error-analysis pass: any positive overlap pairs.
_ANALYSIS_IOU = 1e-9

_HIST_BINS = 20


@dataclass
class MatchResult:
    """One-to-one label->gt assignment at a given IoU threshold."""

    pairs: list[tuple[int, int, float]]  # (label index, gt index, iou)
    unmatched_labels: list[int]
    unmatched_gts: list[int]


def _iou_matrix(boxes: list[Box3D], gts: list[Box3D],
                class_agnostic: bool) -> np.ndarray:
    """3D IoU of each label (row) with each gt (column); -inf where the
    classes differ and matching is class-aware."""
    iou = np.full((len(boxes), len(gts)), -np.inf)
    for i, b in enumerate(boxes):
        for j, g in enumerate(gts):
            if class_agnostic or b.class_id == g.class_id:
                iou[i, j] = iou_3d(b, g)
    return iou


def _greedy_match(scores: list[float], iou: np.ndarray,
                  iou_threshold: float) -> MatchResult:
    """match_labels on a precomputed label x gt IoU matrix."""
    free = iou.copy()
    pairs: list[tuple[int, int, float]] = []
    unmatched_labels: list[int] = []
    for i in sorted(range(len(iou)), key=lambda i: (-scores[i], i)):
        row = free[i]
        j = int(np.argmax(row)) if len(row) else -1
        if j >= 0 and row[j] >= iou_threshold:
            pairs.append((i, j, float(row[j])))
            free[:, j] = -np.inf
        else:
            unmatched_labels.append(i)
    matched = {j for _, j, _ in pairs}
    return MatchResult(sorted(pairs), sorted(unmatched_labels),
                       [j for j in range(iou.shape[1]) if j not in matched])


def match_labels(boxes: list[Box3D], scores: list[float], gts: list[Box3D],
                 iou_threshold: float, class_agnostic: bool = False) -> MatchResult:
    """Greedy matching: labels by descending score claim their best gt.

    Each label takes the unclaimed ground-truth box of the same class (or
    any class in agnostic mode) with the highest 3D IoU at or above the
    threshold. Ties are deterministic: score ties by label index, IoU ties
    by ground-truth index.
    """
    return _greedy_match(scores, _iou_matrix(boxes, gts, class_agnostic),
                         iou_threshold)


@dataclass
class PRCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def recall(self) -> float | None:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @property
    def precision(self) -> float | None:
        d = self.tp + self.fp
        return self.tp / d if d else None

    def add(self, other: "PRCounts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn


@dataclass
class RangeBinErrors:
    lo: float
    hi: float  # math.inf for the open last bin
    count: int = 0
    position_abs: float = 0.0
    size_abs: float = 0.0
    yaw_abs: float = 0.0

    def mae(self) -> tuple[float | None, float | None, float | None]:
        if self.count == 0:
            return (None, None, None)
        return (self.position_abs / self.count, self.size_abs / self.count,
                self.yaw_abs / self.count)


@dataclass
class EvalReport:
    thresholds: tuple[float, ...]
    # per threshold: {"overall": PRCounts, class_id: PRCounts}
    counts: dict[float, dict] = field(default_factory=dict)
    iou_histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(_HIST_BINS, dtype=np.int64))
    range_bins: list[RangeBinErrors] = field(default_factory=list)
    n_frames: int = 0
    n_labels: int = 0
    n_gts: int = 0

    def to_dict(self) -> dict:
        per_threshold = {}
        for thr in self.thresholds:
            entry = {}
            for key, pc in self.counts[thr].items():
                entry[str(key)] = {
                    "tp": pc.tp, "fp": pc.fp, "fn": pc.fn,
                    "recall": pc.recall, "precision": pc.precision,
                }
            per_threshold[f"{thr:g}"] = entry
        edges = np.linspace(0.0, 1.0, _HIST_BINS + 1)
        bins = []
        for rb in self.range_bins:
            pos, size, yaw = rb.mae()
            bins.append({
                "range_lo": rb.lo,
                "range_hi": None if math.isinf(rb.hi) else rb.hi,
                "count": rb.count,
                "position_mae": pos, "size_mae": size, "yaw_mae": yaw,
            })
        return {
            "counts": {"frames": self.n_frames, "labels": self.n_labels,
                       "gts": self.n_gts},
            "per_threshold": per_threshold,
            "iou_histogram": {
                "bin_edges": [float(e) for e in edges],
                "counts": [int(c) for c in self.iou_histogram],
            },
            "mae_by_range": bins,
        }


def compute_report(per_frame: list[tuple[list[Box3D], list[float], list[Box3D]]],
                   thresholds: tuple[float, ...] = (0.3, 0.5, 0.7),
                   range_bin_edges: tuple[float, ...] = (0.0, 30.0, 50.0),
                   class_agnostic: bool = False) -> EvalReport:
    """Aggregate metrics over (labels, scores, gts) triples, one per frame.

    Position error is the BEV center distance, size error the mean of the
    absolute extent differences, yaw error the orientation distance (folded
    modulo pi). Errors are binned by the ground-truth center's distance
    from the sensor origin; a pair whose gt lies below the first edge is in
    no range bin, only in the IoU histogram.
    """
    if len({f"{t:g}" for t in thresholds}) < len(thresholds):  # as to_dict keys them
        raise ValueError(f"repeated IoU threshold in {tuple(thresholds)}, printed with %g")
    report = EvalReport(thresholds=tuple(thresholds))
    for thr in thresholds:
        report.counts[thr] = {"overall": PRCounts()}
    edges = list(range_bin_edges) + [math.inf]
    report.range_bins = [RangeBinErrors(edges[i], edges[i + 1])
                         for i in range(len(range_bin_edges))]

    for boxes, scores, gts in per_frame:
        report.n_frames += 1
        report.n_labels += len(boxes)
        report.n_gts += len(gts)
        class_ids = sorted({b.class_id for b in boxes} | {g.class_id for g in gts})
        iou = _iou_matrix(boxes, gts, class_agnostic)
        for thr in thresholds:
            m = _greedy_match(scores, iou, thr)
            bucket = report.counts[thr]
            bucket["overall"].add(PRCounts(
                len(m.pairs), len(m.unmatched_labels), len(m.unmatched_gts)))
            for cid in class_ids:
                bucket.setdefault(cid, PRCounts()).add(PRCounts(
                    sum(gts[j].class_id == cid for _, j, _ in m.pairs),
                    sum(boxes[i].class_id == cid for i in m.unmatched_labels),
                    sum(gts[j].class_id == cid for j in m.unmatched_gts)))

        analysis = _greedy_match(scores, iou, _ANALYSIS_IOU)
        for i, j, pair_iou in analysis.pairs:
            b, g = boxes[i], gts[j]
            k = min(int(pair_iou * _HIST_BINS), _HIST_BINS - 1)
            report.iou_histogram[k] += 1
            dist = math.hypot(g.cx, g.cy)
            rb = next((rb for rb in report.range_bins if rb.lo <= dist < rb.hi),
                      None)
            if rb is None:
                continue
            rb.count += 1
            rb.position_abs += math.hypot(b.cx - g.cx, b.cy - g.cy)
            rb.size_abs += (abs(b.l - g.l) + abs(b.w - g.w) + abs(b.h - g.h)) / 3.0
            rb.yaw_abs += orientation_distance(b.yaw, g.yaw)
    return report


def write_report(report: EvalReport, json_path: str | Path) -> None:
    """Write the JSON report plus flat CSV side files for plotting."""
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")

    stem = json_path.with_suffix("")
    with open(f"{stem}_metrics.csv", "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["class", "iou_threshold", "tp", "fp", "fn",
                     "recall", "precision"])
        for thr in report.thresholds:
            for key in sorted(report.counts[thr], key=str):
                pc = report.counts[thr][key]
                wr.writerow([key, f"{thr:g}", pc.tp, pc.fp, pc.fn,
                             _csv_num(pc.recall), _csv_num(pc.precision)])
    edges = np.linspace(0.0, 1.0, _HIST_BINS + 1)
    with open(f"{stem}_iou_histogram.csv", "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["bin_lo", "bin_hi", "count"])
        for k in range(_HIST_BINS):
            wr.writerow([f"{edges[k]:g}", f"{edges[k + 1]:g}",
                         int(report.iou_histogram[k])])
    with open(f"{stem}_mae_by_range.csv", "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["range_lo", "range_hi", "count",
                     "position_mae", "size_mae", "yaw_mae"])
        for rb in report.range_bins:
            pos, size, yaw = rb.mae()
            wr.writerow([f"{rb.lo:g}",
                         "" if math.isinf(rb.hi) else f"{rb.hi:g}",
                         rb.count, _csv_num(pos), _csv_num(size), _csv_num(yaw)])


def _csv_num(v: float | None) -> str:
    return "nan" if v is None else f"{v:.6f}"
