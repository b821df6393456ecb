"""End-to-end property test: random tiny scenes through the whole CLI chain,
generate -> mock-detect -> refine -> evaluate, in process.

Each scene is 1-4 frames of at most ~400 points, written as a dataset in
text or binary. The draws include empty frames, frames with exactly one
foreground point, background-only frames, duplicate, collinear and stacked
points, single-class scenes, a class the config lacks and one background
point 1e9 m away. Every command must exit 0, every stored weight must agree
with its msf, every cluster candidate must hold its cluster points, and the
outputs must not depend on the order of each points file nor on the worker
count.

A dyadic scene places its objects and frames at yaw 0 on a 1/16 m grid,
and keeps every point, so registration and the shift into a box frame
are exact. Its "split" objects, two lattice patches of one class farther
apart than the class's smallest radius, then yield nested candidates
whose msf and occ are bitwise equal, the ties that label_order breaks by
geometry.
"""

import itertools
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sembox import dataio
from sembox.aggregation import Frame
from sembox.cli import main
from sembox.clustering import multi_scale_cluster
from sembox.config import PipelineConfig
from sembox.geometry import Box3D, PointCloud, Pose, bev_iou, points_in_box
from sembox.pipeline import aggregate_window
from sembox.scoring import label_weight

CONFIG = PipelineConfig()
# Class 4 is in the manifest but not in the default config: its points are
# loaded, warned about and never clustered.
CLASS_NAMES = {**CONFIG.class_names(), 4: "unconfigured"}
# Half the frames hold the scene's objects; the rest are one of these.
SPARSE_FRAMES = ("empty", "one_foreground", "background")
SHAPES = ("blob", "duplicate", "collinear", "stack", "split")


@dataclass(frozen=True)
class Scene:
    seed: int
    frame_kinds: tuple[str, ...]
    shapes: tuple[str, ...]
    classes: tuple[int, ...]
    outlier: bool
    points_format: str
    dyadic: bool = False


@st.composite
def scenes(draw) -> Scene:
    n_frames = draw(st.integers(1, 4))
    return Scene(
        seed=draw(st.integers(0, 2**32 - 1)),
        frame_kinds=tuple(draw(st.lists(
            st.one_of(st.just("objects"), st.sampled_from(SPARSE_FRAMES)),
            min_size=n_frames, max_size=n_frames))),
        shapes=tuple(draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3))),
        classes=draw(st.sampled_from([(1,), (2,), (3,), (1, 2, 3), (1, 4)])),
        outlier=draw(st.booleans()),
        points_format=draw(st.sampled_from(["text", "binary"])),
        dyadic=draw(st.booleans()))


def object_points(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points of one object in its own frame, about the origin; a split
    object has its own 110."""
    if shape == "split":
        # Lattices of 9 x 5 and 13 x 5 points, 1/8 m apart, in one plane;
        # 7/16 m apart, more than each class's smallest radius and at most
        # its largest.
        x = np.r_[np.arange(-8, 1), np.arange(0, 13) + 3.5] / 8 - 7 / 32
        xy = np.stack(np.meshgrid(x, np.arange(5) / 8, indexing="ij"), -1)
        return np.column_stack([xy.reshape(-1, 2), np.zeros(xy.size // 2)])
    l, w, h = rng.uniform([0.5, 0.4, 0.8], [4.5, 2.0, 2.0])
    if shape == "blob":
        return rng.uniform([-l / 2, -w / 2, 0], [l / 2, w / 2, h], (n, 3))
    if shape == "duplicate":
        # A few distinct points, each repeated many times.
        distinct = rng.uniform([-l / 2, -w / 2, 0], [l / 2, w / 2, h], (3, 3))
        return distinct[rng.integers(len(distinct), size=n)]
    if shape == "collinear":
        t = rng.uniform(-0.5, 0.5, n)
        return np.column_stack([t * l, t * w, np.full(n, h / 2)])
    return np.column_stack([np.zeros(n), np.zeros(n), rng.uniform(0, h, n)])


def build(scene: Scene) -> tuple[list[Frame], dict[int, list[Box3D]]]:
    """The scene's frames (sensor coordinates) and ground-truth boxes."""
    rng = np.random.default_rng(scene.seed)
    objects = []  # (world points, world box)
    for k, shape in enumerate(scene.shapes):
        cid = scene.classes[k % len(scene.classes)]
        n = int(rng.integers(20, 81) if rng.random() < 0.8 else rng.integers(1, 20))
        local = object_points(shape, n, rng)
        x, y, yaw = rng.uniform([-25, -25, -np.pi], [25, 25, np.pi])
        if scene.dyadic:
            x, y, yaw = *np.round(np.array([x, y]) * 16) / 16, 0.0
        pose = Pose.from_xyz_yaw(x, y, -1.5, yaw)
        lo, hi = local.min(axis=0), local.max(axis=0)
        box = Box3D(*pose.apply((lo + hi) / 2), *np.maximum(hi - lo, 0.1), yaw, cid)
        objects.append((pose.apply(local), np.full(len(local), cid, np.int32), box))

    frames, gt = [], {}
    for t, kind in enumerate(scene.frame_kinds):
        pose = (Pose.from_xyz_yaw(0.5 * t, 0.25 * t, 0.0, 0.0) if scene.dyadic
                else Pose.from_xyz_yaw(0.8 * t, 0.1 * t, 0.0, 0.03 * t))
        to_sensor = pose.inverse()
        xyz, cls, boxes = [np.zeros((0, 3))], [np.zeros(0, np.int32)], []
        if kind == "objects":
            for world, ids, box in objects:
                keep = rng.random(len(world)) < (1.0 if scene.dyadic else 0.8)
                xyz.append(to_sensor.apply(world[keep]))
                cls.append(ids[keep])
                c = to_sensor.apply(box.center)
                boxes.append(Box3D(*c, box.l, box.w, box.h, box.yaw - pose.yaw,
                                   box.class_id))
        elif kind == "one_foreground":
            xyz.append(rng.uniform([-20, -20, -2], [20, 20, 0], (1, 3)))
            cls.append(np.array([scene.classes[0]], np.int32))
        if kind != "empty":
            n_bg = int(rng.integers(0, 121))
            xyz.append(rng.uniform([-40, -40, -2], [40, 40, 1], (n_bg, 3)))
            cls.append(np.zeros(n_bg, np.int32))
        frames.append(Frame(t, 0.1 * t, pose, PointCloud(np.concatenate(xyz),
                                                          np.concatenate(cls))))
        gt[t] = boxes
    if scene.outlier:
        fr = frames[-1]
        far = PointCloud(np.array([[1e9, 0.0, 0.0]]), np.zeros(1, np.int32))
        frames[-1] = Frame(fr.frame_id, fr.timestamp, fr.pose,
                           PointCloud.concatenate([fr.points, far]))
    return frames, gt


def permuted(frames: list[Frame], rng: np.random.Generator):
    """frames with each one's points shuffled, and each frame's permutation:
    point j of the shuffled frame is point perm[j] of the original."""
    out, perms = [], {}
    for fr in frames:
        perm = rng.permutation(len(fr.points))
        out.append(Frame(fr.frame_id, fr.timestamp, fr.pose,
                         PointCloud(fr.points.xyz[perm], fr.points.class_id[perm])))
        perms[fr.frame_id] = perm
    return out, perms


def run_chain(ds: Path, out: Path, threads: int) -> None:
    """generate -> mock-detect -> refine -> evaluate; each must exit 0."""
    for argv in (
            ["generate", ds, "--out", out / "gen"],
            ["mock-detect", ds, "--labels", out / "gen" / "labels",
             "--noise", "mild", "--out", out / "preds"],
            ["refine", ds, "--preds", out / "preds", "--out", out / "ref"],
            ["evaluate", ds, "--labels", out / "ref" / "labels",
             "--gt", ds / "gt_labels", "--report", out / "report.json"]):
        assert main([str(a) for a in argv] + ["--threads", str(threads)]) == 0, argv


def output_bytes(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def retained(out: Path) -> dict[int, np.ndarray]:
    return {int(p.stem.split("_")[1]): np.array(p.read_text().split(), dtype=np.int64)
            for p in sorted((out / "ref" / "retained").glob("frame_*.txt"))}


def check_weights(labels_dir: Path) -> None:
    for labels in dataio.read_box_dir(labels_dir, "labels").values():
        for lab in labels:
            assert lab.weight == label_weight(lab.scores.msf, CONFIG.theta_low,
                                              CONFIG.theta_high)


def check_candidates(ds: Path) -> int:
    """Check that every candidate holds its cluster points, and count the
    exact ties: pairs of distinct same-class candidates of a frame with
    bitwise-equal msf and occ, overlapping at nms_iou_threshold or above."""
    frames = dataio.load_dataset(ds)
    ties = 0
    for i in range(len(frames)):
        dense = aggregate_window(frames, i, CONFIG)
        cands = multi_scale_cluster(dense, CONFIG.cluster_params(),
                                    CONFIG.yaw_step_deg, CONFIG.fit_criterion)
        for cand in cands:
            assert points_in_box(dense.xyz[cand.cluster_point_indices], cand.box).all()
        boxes = [c.box for c in cands]
        scores = CONFIG.score_boxes(boxes, dense)
        ties += sum(boxes[a] != boxes[b] and boxes[a].class_id == boxes[b].class_id
                    and (scores[a].msf, scores[a].occ) == (scores[b].msf, scores[b].occ)
                    and bev_iou(boxes[a], boxes[b]) >= CONFIG.nms_iou_threshold
                    for a, b in itertools.combinations(range(len(boxes)), 2))
    return ties


@settings(max_examples=100, deadline=None)
@given(scene=scenes())
def test_chain_invariants(scene):
    check_chain(scene)


# In both scenes the permutation reverses the candidate order of tied
# boxes, so a label_order without its geometric keys fails them.
@pytest.mark.parametrize("scene", [
    Scene(0, ("objects", "objects", "objects"), ("split",), (1,), False, "text",
          dyadic=True),
    Scene(4, ("objects", "background"), ("split", "blob"), (3, 1), True, "binary",
          dyadic=True),
], ids=["text", "binary"])
def test_chain_invariants_with_exact_score_ties(scene):
    assert check_chain(scene) > 0


def check_chain(scene: Scene) -> int:
    """Run the chain on the scene and on a copy with its points permuted,
    check the invariants, and return check_candidates' tie count."""
    frames, gt = build(scene)
    shuffled, perms = permuted(frames, np.random.default_rng(scene.seed + 1))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, fr in (("ds", frames), ("ds_perm", shuffled)):
            dataio.write_dataset(tmp / name, fr, CLASS_NAMES, gt=gt,
                                 points_format=scene.points_format)
            run_chain(tmp / name, tmp / f"out_{name}", threads=1)
        out, out_perm = tmp / "out_ds", tmp / "out_ds_perm"

        check_weights(out / "gen" / "labels")
        check_weights(out / "ref" / "labels")
        ties = check_candidates(tmp / "ds")

        # Labels, predictions, summaries and the report do not depend on
        # point order; retained indices name the same points.
        plain, shuffled_bytes = ({k: v for k, v in output_bytes(o).items()
                                  if not k.startswith("ref/retained/")}
                                 for o in (out, out_perm))
        assert plain == shuffled_bytes
        kept, kept_perm = retained(out), retained(out_perm)
        assert kept.keys() == kept_perm.keys() == perms.keys()
        for fid, idx in kept.items():
            assert np.sort(perms[fid][kept_perm[fid]]).tolist() == idx.tolist()
    return ties


@pytest.mark.parametrize("scene", [
    Scene(7, ("objects", "one_foreground", "objects", "empty"),
          ("blob", "collinear", "duplicate"), (1, 2, 3), True, "text"),
    Scene(11, ("objects", "objects", "background"),
          ("blob", "stack", "blob"), (1, 4), False, "binary"),
], ids=["text", "binary"])
def test_chain_bytes_equal_across_thread_counts(scene, tmp_path):
    frames, gt = build(scene)
    dataio.write_dataset(tmp_path / "ds", frames, CLASS_NAMES, gt=gt,
                         points_format=scene.points_format)
    for threads in (1, 2):
        run_chain(tmp_path / "ds", tmp_path / f"out_{threads}", threads)
    one = output_bytes(tmp_path / "out_1")
    assert any(k.startswith("gen/labels/") and v for k, v in one.items())
    assert one == output_bytes(tmp_path / "out_2")
