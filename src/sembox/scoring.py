"""Label quality scoring and score-driven NMS selection.

A candidate box is scored by three complementary signals, each in [0, 1]:

* occupancy: fraction of an r x r BEV grid over the box footprint that
  contains foreground points of the box's class. Complete objects fill
  more cells.
* alignment: agreement between the box heading and the principal direction
  of the densest point region. LiDAR points concentrate on surfaces, so a
  well-fit box has its densest region running parallel (or perpendicular)
  to the heading.
* shape prior: closeness of the box proportions to a per-class prior
  shape, gated to zero when any dimension is off by 2x or more.

The combined score is a convex combination of the three. Selection keeps,
per class, greedily in label_order (best combined score first), every
candidate that overlaps no already-kept box at or above the IoU threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, bev_iou, in_box_frame

SOURCE_INIT = "init"
SOURCE_REFINED = "stcf-refined"

# The divergence at which the shape-prior score bottoms out.
_SHAPE_DIVERGENCE_CAP = 0.05


@dataclass(frozen=True)
class MetaShape:
    """Per-class prior box dimensions (length, width, height), meters."""

    l: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError("meta shape components must be > 0")


@dataclass(frozen=True)
class ScoreBreakdown:
    occ: float
    alg: float
    ms: float
    msf: float


@dataclass(frozen=True)
class PseudoLabel:
    box: Box3D
    scores: ScoreBreakdown
    weight: float
    source: str


def label_order(box: Box3D, scores: ScoreBreakdown) -> tuple:
    """The one order of scored boxes, for NMS, STCF's pick and labels files:
    class, best msf, best occ, then geometry, so distinct boxes never tie
    and the order does not depend on where a box stands in its list."""
    return (box.class_id, -scores.msf, -scores.occ, box.cx, box.cy, box.cz,
            box.yaw, box.l, box.w, box.h)


def _footprint_cells(box: Box3D, p: np.ndarray, r: int):
    """The r x r BEV footprint cell (ci, cj) of each in-box point, given in
    the box frame. Boundary points land in the outermost cells."""
    if r < 1:
        raise ValueError("grid resolution must be >= 1")
    ci = np.floor((p[:, 0] + box.l / 2.0) / (box.l / r)).astype(np.int64)
    cj = np.floor((p[:, 1] + box.w / 2.0) / (box.w / r)).astype(np.int64)
    np.clip(ci, 0, r - 1, out=ci)
    np.clip(cj, 0, r - 1, out=cj)
    return ci, cj


def alignment_from_angles(alpha: float, theta: float) -> float:
    """Alignment value for a box heading alpha and a fitted line angle theta.

    The deviation is the orientation distance from theta to the nearest of
    the heading and its perpendicular (both modulo pi), which lies in
    [0, pi/4]; the score decays as 1 - sin(deviation). This fold is total
    in both angles and reproduces the published two-branch form exactly
    wherever that form expresses a deviation of at most pi/4 from either
    axis (elsewhere the printed branches leave the valid score range or
    contradict the nearest-axis reading; see the angle-handling note in
    the project docs).
    """
    m = (theta - alpha) % (math.pi / 2.0)
    dev = min(m, math.pi / 2.0 - m)
    return 1.0 - math.sin(dev)


def _alignment(counts: np.ndarray, ci: np.ndarray, cj: np.ndarray,
               p: np.ndarray) -> float:
    """Alignment of the densest in-box region with the box heading.

    The densest cell of the r x r footprint grid (counts, with each point's
    cell in ci, cj) plus its 8-neighborhood is selected; the leading
    direction of its xy covariance, in closed form
    theta = atan2(2 sxy, sxx - syy) / 2, is compared with the heading.
    Fewer than two points, or zero spatial variance, scores 0. An isotropic
    region (sxx == syy, sxy == 0) has none: theta is 0 and it scores 1.0.
    """
    r = counts.shape[0]
    bi, bj = divmod(int(np.argmax(counts)), r)  # ties: first in row-major order
    region = (np.abs(ci - bi) <= 1) & (np.abs(cj - bj) <= 1)
    pts = p[region, :2]
    if len(pts) < 2:
        return 0.0
    # Summed in one row order, by x then y, so that the score does not
    # depend on the order of the points in the cloud: each row read as one
    # complex number, which numpy sorts lexicographically, and in less time
    # than a lexsort of the two columns.
    rows = np.ascontiguousarray(pts).view(np.complex128)[:, 0]
    pts = np.sort(rows).view(np.float64).reshape(-1, 2)
    dx, dy = (pts - pts.mean(axis=0)).T
    sxx, syy, sxy = float(np.sum(dx * dx)), float(np.sum(dy * dy)), float(np.sum(dx * dy))
    if (sxx + syy) / len(pts) < 1e-18:
        return 0.0
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    # p is already in the box frame, so the heading is at angle 0.
    return alignment_from_angles(0.0, theta)


def meta_shape_score(box: Box3D, meta: MetaShape) -> float:
    """Shape-prior score from the proportion divergence to the class prior.

    Any dimension at half or double the prior (or beyond) gates the score
    to 0. Inside the gate, both shapes are normalized to proportion vectors
    and their KL divergence D is mapped to 1 - min(cap, D) / cap, so a
    perfect proportion match scores 1.
    """
    b, m = (box.l, box.w, box.h), (meta.l, meta.w, meta.h)
    if any(bi <= 0.5 * mi or bi >= 2.0 * mi for bi, mi in zip(b, m)):
        return 0.0
    sb, sm = b[0] + b[1] + b[2], m[0] + m[1] + m[2]
    kl = [mi / sm * math.log((mi / sm) / (bi / sb)) for bi, mi in zip(b, m)]
    d = kl[0] + kl[1] + kl[2]  # not sum(): Python 3.12's sum() compensates
    return 1.0 - min(_SHAPE_DIVERGENCE_CAP, d) / _SHAPE_DIVERGENCE_CAP


def validate_lambdas(lambdas: tuple[float, float, float]) -> None:
    if len(lambdas) != 3 or any(v < 0 for v in lambdas):
        raise ValueError("score weights must be three non-negative values")
    if abs(sum(lambdas) - 1.0) > 1e-9:
        raise ValueError(f"score weights must sum to 1, got {sum(lambdas)!r}")


def combine_scores(occ: float, alg: float, ms: float,
                   lambdas: tuple[float, float, float]) -> ScoreBreakdown:
    """Convex combination of the three sub-scores."""
    validate_lambdas(lambdas)
    msf = lambdas[0] * occ + lambdas[1] * alg + lambdas[2] * ms
    return ScoreBreakdown(occ, alg, ms, msf)


def msf_score(box: Box3D, class_xyz: np.ndarray, meta: MetaShape,
              lambdas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
              occ_r: int = 7) -> ScoreBreakdown:
    """Full score breakdown of a box against its class's points."""
    p = box.to_frame(class_xyz)
    return msf_score_in_frame(box, p[in_box_frame(p, box)], meta, lambdas, occ_r)


def msf_score_in_frame(box: Box3D, p: np.ndarray, meta: MetaShape,
                       lambdas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
                       occ_r: int = 7) -> ScoreBreakdown:
    """msf_score from the in-box points of the box's class, already in the
    box frame; each point is binned once, and the footprint grid counted
    once, for occupancy and alignment."""
    ci, cj = _footprint_cells(box, p, occ_r)
    counts = np.bincount(ci * occ_r + cj, minlength=occ_r * occ_r).reshape(occ_r, occ_r)
    occ = np.count_nonzero(counts) / counts.size
    return combine_scores(occ, _alignment(counts, ci, cj, p),
                          meta_shape_score(box, meta), lambdas)


def label_weight(s_msf: float, theta_low: float = 0.4,
                 theta_high: float = 0.8) -> float:
    """Training weight from the combined score: 0 below theta_low, 1 above
    theta_high, linear in between."""
    if not (0.0 <= theta_low < theta_high <= 1.0):
        raise ValueError("thresholds must satisfy 0 <= theta_low < theta_high <= 1")
    if s_msf <= theta_low:
        return 0.0
    if s_msf >= theta_high:
        return 1.0
    return (s_msf - theta_low) / (theta_high - theta_low)


def nms_select(boxes: list[Box3D], scores: list[ScoreBreakdown],
               iou_threshold: float) -> list[int]:
    """Greedy per-class NMS: indices of the kept boxes, in label_order.

    The boxes are visited in label_order; a box is kept iff its BEV IoU
    with every already-kept box of the same class is below the threshold.
    So the kept boxes, and their order, depend only on the set of
    (box, scores) pairs, not on the order of the lists.
    """
    if len(boxes) != len(scores):
        raise ValueError("boxes and scores must align")
    kept: list[int] = []
    kept_boxes: dict[int, list[Box3D]] = {}
    for i in sorted(range(len(boxes)),
                    key=lambda i: label_order(boxes[i], scores[i])):
        same_class = kept_boxes.setdefault(boxes[i].class_id, [])
        if any(bev_iou(boxes[i], kb) >= iou_threshold for kb in same_class):
            continue
        same_class.append(boxes[i])
        kept.append(i)
    return kept
