import numpy as np
import pytest

from sembox.aggregation import Frame
from sembox.geometry import Box3D, PointCloud


def random_box(rng, span=20.0, max_extent=6.0, class_id=1) -> Box3D:
    return Box3D(
        rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-2, 2),
        rng.uniform(0.3, max_extent), rng.uniform(0.3, max_extent),
        rng.uniform(0.3, 3.0), rng.uniform(-np.pi, np.pi), class_id)


def monte_carlo_bev_iou(a: Box3D, b: Box3D, n_side: int = 256,
                        rng=None) -> float:
    """Stratified-jittered Monte-Carlo estimate of the BEV IoU.

    Samples cover the joint bounding rectangle on an n_side x n_side grid
    with one uniformly jittered sample per stratum; intersection area comes
    from the hit fraction, union from the exact footprint areas.
    """
    rng = rng or np.random.default_rng(0)
    ca, cb = a.corners_bev(), b.corners_bev()
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0))
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0))
    base = (np.stack(np.meshgrid(np.arange(n_side), np.arange(n_side)),
                     axis=-1).reshape(-1, 2) +
            rng.uniform(0, 1, (n_side * n_side, 2))) / n_side
    pts = lo + base * (hi - lo)
    bbox_area = float(np.prod(hi - lo))

    def inside(box, p):
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        dx = p[:, 0] - box.cx
        dy = p[:, 1] - box.cy
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= box.l / 2) & (np.abs(v) <= box.w / 2)

    inter = float((inside(a, pts) & inside(b, pts)).mean()) * bbox_area
    union = a.bev_area + b.bev_area - inter
    return 0.0 if union <= 0 else inter / union


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def with_background(frames, rng, n=3000):
    """Copies of frames with n background points inserted at random
    places, half of them next to foreground points; also, per frame id,
    the new index of each old point and the indices of the new points."""
    out, moved, added = [], {}, {}
    for fr in frames:
        m = len(fr.points)
        old = np.sort(rng.choice(m + n, m, replace=False))
        new = np.setdiff1d(np.arange(m + n), old)
        xyz = np.empty((m + n, 3))
        cls = np.zeros(m + n, np.int32)
        xyz[old], cls[old] = fr.points.xyz, fr.points.class_id
        xyz[new] = rng.uniform([-60, -60, -1], [60, 60, 3], (n, 3))
        fg = fr.points.xyz[fr.points.foreground]
        if len(fg):
            near = new[: n // 2]
            xyz[near] = fg[rng.integers(len(fg), size=len(near))] \
                + rng.normal(0, 0.3, (len(near), 3))
        out.append(Frame(fr.frame_id, fr.timestamp, fr.pose, PointCloud(xyz, cls)))
        moved[fr.frame_id], added[fr.frame_id] = old, new
    return out, moved, added
