"""Deterministic synthetic LiDAR-like scenes with exact ground truth.

Objects are boxes whose surfaces emit points: only faces oriented toward
the sensor are sampled (surface returns, not volumes), with a density that
falls off with range and with the cosine of the viewing incidence, so a
face seen edge-on contributes almost nothing. Per-object occlusion
schedules and azimuth gaps model hidden frames and truncation. Everything
is driven by a single seeded generator, so identical specs produce
byte-identical sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import Frame
from .geometry import Box3D, PointCloud, Pose, transform_box

# Faces are pulled in by this much along their normal and edges so that
# sampled points are strictly inside the ground-truth box even after
# round-tripping through pose transforms.
_FACE_NORMAL_INSET = 1e-6
_FACE_EDGE_INSET = 1e-3


@dataclass(frozen=True)
class ObjectSpec:
    """One scripted object: a box track plus its surface sampling model."""

    class_id: int
    size: tuple[float, float, float]  # l, w, h
    position: tuple[float, float]  # world xy center at t = 0
    yaw: float
    velocity: tuple[float, float] = (0.0, 0.0)  # world m/s
    density: float = 120.0  # points / m^2 at the reference range
    hidden_frames: frozenset = frozenset()  # frame ids emitting no points
    center_gap: float = 0.0  # meters of azimuth gap splitting the object

    def box_at(self, t_seconds: float) -> Box3D:
        """Ground-truth box in world coordinates at the given time."""
        x = self.position[0] + self.velocity[0] * t_seconds
        y = self.position[1] + self.velocity[1] * t_seconds
        l, w, h = self.size
        return Box3D(x, y, h / 2.0, l, w, h, self.yaw, self.class_id)


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    objects: tuple[ObjectSpec, ...]
    n_frames: int = 11
    dt: float = 0.1
    ego_start: tuple[float, float] = (0.0, 0.0)
    ego_velocity: tuple[float, float] = (0.0, 0.0)
    ego_yaw: float = 0.0
    ego_height: float = 1.8
    sensor_range: float = 80.0
    background_points: int = 2000  # class-0 clutter per frame
    reference_range: float = 10.0
    range_decay: float = 2.0
    num_classes: int = 3

    def ego_position(self, t_seconds: float) -> np.ndarray:
        return np.array([
            self.ego_start[0] + self.ego_velocity[0] * t_seconds,
            self.ego_start[1] + self.ego_velocity[1] * t_seconds,
            self.ego_height,
        ])

    def pose_at(self, t_seconds: float) -> Pose:
        p = self.ego_position(t_seconds)
        return Pose.from_xyz_yaw(p[0], p[1], p[2], self.ego_yaw)


# Face table: (axis of the outward normal, sign). Axis 0 = length, 1 =
# width, 2 = height, all in the box frame.
_FACES = [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)]


def _sample_object_points(rng: np.random.Generator, spec: SceneSpec,
                          obj: ObjectSpec, box: Box3D,
                          ego: np.ndarray) -> np.ndarray:
    """Sample world-frame surface points of one object for one frame."""
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    pose = Pose.from_xyz_yaw(box.cx, box.cy, box.cz, box.yaw)  # box frame -> world

    chunks = []
    for axis, sign in _FACES:
        normal = pose.rotation[:, axis] * sign
        tx, ty, tz = ego - (pose.translation + normal * half[axis])
        dist = math.sqrt(tx * tx + ty * ty + tz * tz)
        if dist <= 1e-9:
            continue
        cos_inc = (normal[0] * tx + normal[1] * ty + normal[2] * tz) / dist
        if cos_inc <= 0.0:
            continue  # face turned away from the sensor
        u_axis, v_axis = [a for a in range(3) if a != axis]
        area = (2.0 * half[u_axis]) * (2.0 * half[v_axis])
        ref = spec.reference_range
        falloff = (ref / max(dist, ref)) ** spec.range_decay
        expected = obj.density * area * falloff * cos_inc
        count = int(rng.poisson(expected))
        if count == 0:
            continue
        coords = np.zeros((count, 3))
        coords[:, axis] = sign * (half[axis] - _FACE_NORMAL_INSET)
        coords[:, u_axis] = rng.uniform(-(half[u_axis] - _FACE_EDGE_INSET),
                                        half[u_axis] - _FACE_EDGE_INSET, count)
        coords[:, v_axis] = rng.uniform(-(half[v_axis] - _FACE_EDGE_INSET),
                                        half[v_axis] - _FACE_EDGE_INSET, count)
        chunks.append(coords)
    if not chunks:
        return np.zeros((0, 3))
    pts = pose.apply(np.concatenate(chunks))

    if obj.center_gap > 0.0:
        center_az = math.atan2(box.cy - ego[1], box.cx - ego[0])
        d = math.hypot(box.cx - ego[0], box.cy - ego[1])
        half_ang = (obj.center_gap / 2.0) / max(d, 1e-9)
        az = np.arctan2(pts[:, 1] - ego[1], pts[:, 0] - ego[0])
        off = np.abs((az - center_az + math.pi) % (2.0 * math.pi) - math.pi)
        pts = pts[off >= half_ang]
    return pts


def _sample_background(rng: np.random.Generator, spec: SceneSpec,
                       ego: np.ndarray) -> np.ndarray:
    """Class-0 clutter: uniform-in-area annulus around the ego, near ground."""
    n = spec.background_points
    if n <= 0:
        return np.zeros((0, 3))
    r_lo, r_hi = 2.0, spec.sensor_range
    r = np.sqrt(rng.uniform(r_lo ** 2, r_hi ** 2, n))
    az = rng.uniform(0.0, 2.0 * math.pi, n)
    z = rng.uniform(0.0, 0.3, n)
    return np.column_stack([ego[0] + r * np.cos(az), ego[1] + r * np.sin(az), z])


def generate_sequence(spec: SceneSpec) -> tuple[list[Frame], dict[int, list[Box3D]]]:
    """Generate frames (sensor-coordinate points) and per-frame ground truth.

    Ground truth for a frame lists exactly the objects that emitted at
    least one surviving point in it, as boxes in that frame's coordinates.
    """
    if spec.n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if spec.sensor_range <= 0:
        raise ValueError("sensor_range must be > 0")
    for obj in spec.objects:
        if obj.class_id < 1 or obj.class_id > spec.num_classes:
            raise ValueError(
                f"object class_id {obj.class_id} outside [1, {spec.num_classes}]")
        if min(obj.size) <= 0:
            raise ValueError("object size components must be > 0")
        if obj.density < 0:
            raise ValueError("object density must be >= 0")

    rng = np.random.default_rng(spec.seed)
    frames: list[Frame] = []
    gt: dict[int, list[Box3D]] = {}
    for t in range(spec.n_frames):
        ts = t * spec.dt
        pose = spec.pose_at(ts)
        ego = spec.ego_position(ts)
        to_sensor = pose.inverse()

        xyz_chunks: list[np.ndarray] = []
        cls_chunks: list[np.ndarray] = []
        frame_gt: list[Box3D] = []
        for obj in spec.objects:
            box = obj.box_at(ts)
            if t in obj.hidden_frames:
                continue
            pts = _sample_object_points(rng, spec, obj, box, ego)
            if len(pts) == 0:
                continue
            dist = np.sqrt(np.square(pts - ego).sum(axis=1))
            pts = pts[dist <= spec.sensor_range]
            if len(pts) == 0:
                continue
            xyz_chunks.append(pts)
            cls_chunks.append(np.full(len(pts), obj.class_id, dtype=np.int32))
            frame_gt.append(transform_box(box, to_sensor))

        bg = _sample_background(rng, spec, ego)
        if len(bg):
            xyz_chunks.append(bg)
            cls_chunks.append(np.zeros(len(bg), dtype=np.int32))

        if xyz_chunks:
            world = np.concatenate(xyz_chunks)
            cls = np.concatenate(cls_chunks)
        else:
            world = np.zeros((0, 3))
            cls = np.zeros(0, dtype=np.int32)
        cloud = PointCloud(to_sensor.apply(world), cls)
        frames.append(Frame(frame_id=t, timestamp=ts, pose=pose, points=cloud))
        gt[t] = frame_gt
    return frames, gt


VEHICLE, PEDESTRIAN, CYCLIST = 1, 2, 3

_VEH = (4.6, 1.8, 1.6)
_PED = (0.8, 0.8, 1.7)
_CYC = (1.8, 0.6, 1.7)


def _adjacent_objects() -> tuple[ObjectSpec, ...]:
    # Two vehicles parked side by side with a 0.5 m lateral gap; the ego
    # sees their front faces and the two inner/outer side faces at an angle.
    return (
        ObjectSpec(VEHICLE, _VEH, (11.0, 5.85), 0.0, density=55.0),
        ObjectSpec(VEHICLE, _VEH, (11.0, 3.55), 0.0, density=55.0),
    )


def _truncated_objects() -> tuple[ObjectSpec, ...]:
    # One side-on vehicle whose middle is masked by a 0.8 m azimuth gap,
    # splitting its returns into two chunks.
    return (ObjectSpec(VEHICLE, _VEH, (14.0, 6.0), math.pi / 2.0,
                       density=60.0, center_gap=0.8),)


def preset_scene(name: str, seed: int) -> SceneSpec:
    """Named scenario presets used by the experiments and the test suite."""
    if name == "adjacent":
        return SceneSpec(seed=seed, objects=_adjacent_objects(),
                         background_points=1500)
    if name == "truncated":
        return SceneSpec(seed=seed, objects=_truncated_objects(),
                         background_points=1500)
    if name == "sparse-far":
        # A static vehicle at long range emitting only a handful of points
        # per frame; the ego drives toward it so successive frames fill in
        # the surface.
        return SceneSpec(
            seed=seed,
            objects=(ObjectSpec(VEHICLE, _VEH, (45.0, 3.0), 0.35, density=45.0),),
            ego_velocity=(8.0, 0.0),
            ego_start=(-4.0, 0.0),
            background_points=1500,
        )
    if name == "moving":
        # One parked vehicle and one crossing fast enough that its cells
        # are never continuously occupied.
        return SceneSpec(
            seed=seed,
            objects=(
                ObjectSpec(VEHICLE, _VEH, (12.0, 4.0), 0.2, density=55.0),
                ObjectSpec(VEHICLE, _VEH, (18.0, -13.0), math.pi / 2.0,
                           velocity=(0.0, 10.0), density=55.0),
            ),
            background_points=1500,
        )
    if name == "mixed":
        # A bit of everything: near/far static vehicles, an adjacent pair,
        # a truncated vehicle, a crossing vehicle, a pedestrian, a cyclist.
        return SceneSpec(
            seed=seed,
            objects=(
                ObjectSpec(VEHICLE, _VEH, (12.0, 5.0), 0.3, density=55.0),
                ObjectSpec(VEHICLE, _VEH, (42.0, -6.0), -0.4, density=90.0),
                ObjectSpec(VEHICLE, _VEH, (16.0, -8.0), 0.0, density=55.0),
                ObjectSpec(VEHICLE, _VEH, (16.0, -10.3), 0.0, density=55.0),
                ObjectSpec(VEHICLE, _VEH, (20.0, 10.0), math.pi / 2.0,
                           density=60.0, center_gap=0.8),
                ObjectSpec(VEHICLE, _VEH, (26.0, -16.0), math.pi / 2.0,
                           velocity=(0.0, 9.0), density=55.0),
                ObjectSpec(PEDESTRIAN, _PED, (9.0, -3.0), 0.0, density=130.0),
                ObjectSpec(CYCLIST, _CYC, (18.0, 2.5), 1.0, density=130.0),
            ),
            ego_velocity=(4.0, 0.0),
            background_points=2500,
        )
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("adjacent", "truncated", "sparse-far", "moving", "mixed")


def perf_scene(seed: int, points_per_frame: int = 100_000) -> SceneSpec:
    """Large scene for throughput measurements: ~points_per_frame per frame."""
    objects = []
    rng = np.random.default_rng(seed ^ 0x5EED)
    for k in range(8):
        ang = 2.0 * math.pi * k / 8.0
        r = 12.0 + 3.0 * (k % 3)
        objects.append(ObjectSpec(
            VEHICLE, _VEH,
            (r * math.cos(ang), r * math.sin(ang)),
            float(rng.uniform(-math.pi, math.pi)),
            density=55.0,
        ))
    base = preset_scene("mixed", seed)
    # Object surfaces emit roughly 2.4k points per frame; clutter fills the
    # rest of the budget.
    return replace(base, objects=base.objects + tuple(objects),
                   background_points=points_per_frame - 2400)
