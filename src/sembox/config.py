"""Pipeline configuration: one validated document for ~20 coupled tunables.

Defaults reproduce the published operating point where one exists (score
grid resolution 7, equal score weights, weight thresholds 0.4/0.8); the
remaining values (clustering radii, cell size, window size, shape priors,
NMS threshold) are documented project defaults, not published ones.

``read_json`` is the one reader of every JSON input (config, dataset
manifest, noise profile); each becomes a frozen dataclass, type-checked.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .clustering import ClusterParams
from .geometry import Box3D, PointCloud
from .scoring import (MetaShape, PseudoLabel, ScoreBreakdown, label_weight,
                      msf_score_in_frame, validate_lambdas)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class ClassConfig:
    """Per-class knobs: clustering radii, cluster floor, shape prior."""

    name: str
    radii: tuple[float, ...]
    min_cluster_size: int
    meta_shape: tuple[float, float, float]


def _is_int(value) -> bool:
    """True for integers; JSON true/false are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for finite real numbers; JSON true/false are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_numbers(values) -> bool:
    return isinstance(values, (list, tuple)) and all(map(_is_number, values))


# Type check of each declared field type, keyed by its annotation as written
# (annotations are strings here): (predicate, what the message asks for).
# A field whose type is missing from this table fails every construction.
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer"),
    "float": (_is_number, "a finite number"),
    "tuple[float, ...]": (_is_numbers, "a list of finite numbers"),
    "tuple[float, float, float]": (_is_numbers, "a list of finite numbers"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict[int, ClassConfig]": (lambda v: isinstance(v, dict), "an object"),
    "dict[int, str]": (lambda v: isinstance(v, dict), "an object"),
    "tuple[ManifestFrame, ...]": (lambda v: isinstance(v, tuple) and v != (),
                                  "a non-empty list"),
}
_type_hints = functools.cache(typing.get_type_hints)  # a class's field types


def _check_types(obj, where: str = "") -> None:
    """Raise a ConfigError naming the first field of the dataclass obj, at
    where in its document, whose value does not have the declared type."""
    for f in fields(obj):
        is_valid, what = _TYPE_CHECKS[f.type]
        value = getattr(obj, f.name)
        if not is_valid(value):
            raise ConfigError(f"{_join(where, f.name)}: must be {what}, got {value!r}")


def _join(where: str, name: str) -> str:
    """The place of field name of the object at where ("" for a document)."""
    return f"{where}.{name}" if where else name


def read_json(path: str | Path, cls, error: type[ValueError] = ConfigError):
    """The dataclass cls built from the JSON document in the file at path:
    the config, a dataset manifest or a noise profile. The file must be
    UTF-8 and no object in it may repeat a key; every fault is raised as
    error, naming the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
        return build(cls, json.loads(text, object_pairs_hook=_unique_keys))
    except OSError as e:
        raise error(f"{path}: cannot read: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from e
    except (ValueError, RecursionError) as e:  # bad or deep JSON, any check
        raise error(f"{path}: {e}") from e


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads's object hook: a repeated key is an error, not a lost value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for n, (k, _) in enumerate(pairs) if k in dict(pairs[:n]))
        raise ValueError(f"key {key!r} is repeated in one object")
    return obj


def build(cls, data, where: str = ""):
    """An instance of the dataclass cls from the JSON object data at where
    in its document: each key a field, each field without a default given,
    each value converted by _from_json, then checked by cls itself."""
    if not isinstance(data, dict):
        at = f"{where}: " if where else ""
        raise ConfigError(f"{at}must be an object, got {data!r}")
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            raise ConfigError(f"{_join(where, key)}: unknown field")
    types = _type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = _from_json(types[f.name], data[f.name],
                                        _join(where, f.name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{_join(where, f.name)}: missing required field")
    return cls(**kwargs)


def _from_json(kind, value, where: str):
    """A JSON value as type kind where shapes agree: an object as a
    dataclass, a list as a tuple of kind's one element type, an object as
    a class table keyed by id; other values stay, for the type check."""
    if is_dataclass(kind):
        return build(kind, value, where)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple and isinstance(value, list):
        return tuple(_from_json(args[0], v, f"{where}[{n}]")
                     for n, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {_class_id(k, where): _from_json(args[1], v, f"{where}[{k}]")
                for k, v in value.items()}
    return value


def _class_id(key: str, where: str) -> int:
    """A class table key as its id. Only an integer's canonical decimal
    form (str(int(key)) == key) is a key, so no two keys name one id."""
    if re.fullmatch(r"0|-?[1-9][0-9]*", key):
        return int(key)
    raise ConfigError(f"{where}: keys must be integers in canonical decimal "
                      f"form, got {key!r}")


# Bounds on what a config makes the program allocate, each far past any
# useful value, so that a config that passes validation can run:
# BEV cells per side of the motion grid, ceil(2 * detection_range /
# cell_size): its per-cell label array holds 16384^2 bytes, 256 MiB;
_MAX_BEV_CELLS = 16384
# yaws the box fit tries, ceil(90 / yaw_step_deg): each is a projection of
# every cluster point, and 900 is a 0.1 degree step;
_MAX_YAWS = 900
# occ_grid_r: the score's r x r footprint grid; at 100, its 10^4 cells far
# outnumber the points of a box, so occupancy would only measure sparsity.
_MAX_OCC_GRID_R = 100


def _default_classes() -> dict[int, ClassConfig]:
    return {
        1: ClassConfig("vehicle", (0.4, 0.7, 1.0, 1.5), 10, (4.6, 1.8, 1.6)),
        2: ClassConfig("pedestrian", (0.2, 0.35, 0.5), 5, (0.8, 0.8, 1.7)),
        3: ClassConfig("cyclist", (0.3, 0.5, 0.8), 5, (1.8, 0.6, 1.7)),
    }


@dataclass(frozen=True)
class PipelineConfig:
    window_half_size: int = 5
    epsilon: int | None = None  # None: ceil(0.6 * actual window length)
    cell_size: float = 0.3
    detection_range: float = 80.0
    min_pts: int = 5
    yaw_step_deg: float = 1.0
    fit_criterion: str = "area"  # or "closeness"; see clustering.fit_box
    occ_grid_r: int = 7
    lambdas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    nms_iou_threshold: float = 0.2
    theta_low: float = 0.4
    theta_high: float = 0.8
    scf_min_points: int = 3
    scf_min_fraction: float = 0.05
    confidence_floor: float = 0.3
    range_bin_edges: tuple[float, ...] = (0.0, 30.0, 50.0)
    eval_iou_thresholds: tuple[float, ...] = (0.3, 0.5, 0.7)
    class_agnostic_eval: bool = False
    seed: int = 0
    classes: dict[int, ClassConfig] = field(default_factory=_default_classes)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _check_types(self)
        if self.window_half_size < 0:
            raise ConfigError("window_half_size: must be >= 0")
        if self.epsilon is not None and self.epsilon < 1:
            raise ConfigError("epsilon: must be >= 1 when set")
        if self.cell_size <= 0:
            raise ConfigError("cell_size: must be > 0")
        if self.detection_range <= 0:
            raise ConfigError("detection_range: must be > 0")
        # x > n exactly when ceil(x) > n; a float quotient past the range is inf.
        if (cells := 2.0 * self.detection_range / self.cell_size) > _MAX_BEV_CELLS:
            raise ConfigError(f"detection_range/cell_size: the BEV cells per side, "
                              f"2 * detection_range / cell_size, must be <= "
                              f"{_MAX_BEV_CELLS}, got {cells:g}")
        if self.min_pts < 1:
            raise ConfigError("min_pts: must be >= 1")
        if self.yaw_step_deg <= 0 or self.yaw_step_deg > 90:
            raise ConfigError("yaw_step_deg: must be in (0, 90]")
        if (yaws := 90.0 / self.yaw_step_deg) > _MAX_YAWS:
            raise ConfigError(f"yaw_step_deg: the yaws each box fit tries, 90 / "
                              f"yaw_step_deg, must be <= {_MAX_YAWS}, got {yaws:g}")
        if self.fit_criterion not in ("area", "closeness"):
            raise ConfigError("fit_criterion: must be 'area' or 'closeness'")
        if not 1 <= self.occ_grid_r <= _MAX_OCC_GRID_R:
            raise ConfigError(f"occ_grid_r: must be in [1, {_MAX_OCC_GRID_R}]")
        try:
            validate_lambdas(self.lambdas)
        except ValueError as e:
            raise ConfigError(f"lambdas: {e}") from e
        if not (0.0 <= self.nms_iou_threshold <= 1.0):
            raise ConfigError("nms_iou_threshold: must be in [0, 1]")
        if not (0.0 <= self.theta_low < self.theta_high <= 1.0):
            raise ConfigError("theta_low/theta_high: need 0 <= low < high <= 1")
        if self.scf_min_points < 1:
            raise ConfigError("scf_min_points: must be >= 1")
        if not (0.0 <= self.scf_min_fraction <= 1.0):
            raise ConfigError("scf_min_fraction: must be in [0, 1]")
        if not (0.0 <= self.confidence_floor <= 1.0):
            raise ConfigError("confidence_floor: must be in [0, 1]")
        if not self.range_bin_edges:
            raise ConfigError("range_bin_edges: must be non-empty")
        if any(b <= a for a, b in zip(self.range_bin_edges, self.range_bin_edges[1:])):
            raise ConfigError("range_bin_edges: must be strictly ascending")
        if self.range_bin_edges[0] < 0:
            raise ConfigError("range_bin_edges: must start at >= 0")
        if not self.eval_iou_thresholds or any(
                not 0 < t <= 1 for t in self.eval_iou_thresholds):
            raise ConfigError("eval_iou_thresholds: must be in (0, 1]")
        if len({f"{t:g}" for t in self.eval_iou_thresholds}) < len(self.eval_iou_thresholds):
            raise ConfigError("eval_iou_thresholds: must be distinct as the report "
                              "keys them, printed with %g")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if not self.classes:
            raise ConfigError("classes: at least one foreground class required")
        for cid, cc in self.classes.items():
            if cid < 1:
                raise ConfigError(f"classes[{cid}]: class ids must be >= 1")
            _check_types(cc, f"classes[{cid}]")
            try:
                ClusterParams(tuple(cc.radii), self.min_pts, cc.min_cluster_size)
            except ValueError as e:
                raise ConfigError(f"classes[{cid}].{e}") from e
            if len(cc.meta_shape) != 3:
                raise ConfigError(f"classes[{cid}].meta_shape: must have 3 components")
            if any(v <= 0 for v in cc.meta_shape):
                raise ConfigError(f"classes[{cid}].meta_shape: components must be > 0")

    # Derived accessors -------------------------------------------------

    def effective_epsilon(self, window_len: int) -> int:
        if self.epsilon is not None:
            return self.epsilon
        return int(math.ceil(0.6 * window_len))

    def cluster_params(self) -> dict[int, ClusterParams]:
        return {cid: ClusterParams(tuple(cc.radii), self.min_pts, cc.min_cluster_size)
                for cid, cc in self.classes.items()}

    def meta_shape(self, class_id: int) -> MetaShape:
        cc = self.classes.get(class_id)
        if cc is None:
            raise ConfigError(f"classes: no configuration for class id {class_id}")
        return MetaShape(*cc.meta_shape)

    def score_boxes(self, boxes: list[Box3D],
                    cloud: PointCloud) -> list[ScoreBreakdown]:
        """Score breakdown of each box against the points of its class in
        the caller's cloud, under this config's shape prior, score weights
        and occupancy grid. Each box is scored on its in-box points of its
        class, which is all msf_score reads, in the box frame the cloud's
        box query rotated them into; equal boxes are scored once."""
        scores: dict[Box3D, ScoreBreakdown] = {}
        for b in boxes:
            if b not in scores:
                hits, p = cloud.inside_frame(b)
                scores[b] = msf_score_in_frame(
                    b, p[cloud.class_id[hits] == b.class_id],
                    self.meta_shape(b.class_id), self.lambdas, self.occ_grid_r)
        return [scores[b] for b in boxes]

    def label(self, box: Box3D, scores: ScoreBreakdown,
              source: str) -> PseudoLabel:
        """A scored box as a label, weighted from its msf by this config's
        thresholds."""
        return PseudoLabel(box, scores, label_weight(
            scores.msf, self.theta_low, self.theta_high), source)

    def class_names(self) -> dict[int, str]:
        return {cid: cc.name for cid, cc in self.classes.items()}
