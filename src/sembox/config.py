"""Pipeline configuration: one validated document for ~20 coupled tunables.

Defaults reproduce the published operating point where one exists (score
grid resolution 7, equal score weights, weight thresholds 0.4/0.8); the
remaining values (clustering radii, cell size, window size, shape priors,
NMS threshold) are documented project defaults, not published ones.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .clustering import ClusterParams
from .geometry import Box3D, PointIndex
from .scoring import (MetaShape, PseudoLabel, ScoreBreakdown, label_weight,
                      msf_score, validate_lambdas)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class ClassConfig:
    """Per-class knobs: clustering radii, cluster floor, shape prior."""

    name: str
    radii: tuple[float, ...]
    min_cluster_size: int
    meta_shape: tuple[float, float, float]


def _classes_from_dict(data: dict) -> dict[int, ClassConfig]:
    """The classes table of a config document, keyed by integer class id."""
    if not isinstance(data, dict):
        raise ConfigError("classes: expected an object")
    classes = {}
    for key, raw in data.items():
        try:
            cid = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"classes: class id {key!r} is not an integer")
        if not isinstance(raw, dict):
            raise ConfigError(f"classes[{cid}]: expected an object, got {raw!r}")
        extra = set(raw) - set(ClassConfig.__dataclass_fields__)
        if extra:
            raise ConfigError(f"classes[{cid}]: unknown fields {sorted(extra)}")
        try:
            classes[cid] = ClassConfig(
                name=raw["name"],
                radii=_as_tuple(raw["radii"]),
                min_cluster_size=raw["min_cluster_size"],
                meta_shape=_as_tuple(raw["meta_shape"]),
            )
        except KeyError as e:
            raise ConfigError(f"classes[{cid}]: missing field {e.args[0]!r}")
        except (TypeError, ValueError) as e:
            raise ConfigError(f"classes[{cid}]: {e}") from e
    return classes


def _is_int(value) -> bool:
    """True for integers; JSON true/false are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for finite real numbers; JSON true/false are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _as_tuple(value):
    """A JSON list as a tuple; any other value unchanged, for validate to
    reject by name."""
    return tuple(value) if isinstance(value, list) else value


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
}


def _check_types(obj, prefix: str = "") -> None:
    """Raise a ConfigError naming the first field of the dataclass obj
    whose value does not have the field's declared type."""
    for f in fields(obj):
        is_valid, what = _TYPE_CHECKS[f.type]
        value = getattr(obj, f.name)
        if not is_valid(value):
            raise ConfigError(f"{prefix}{f.name}: must be {what}, got {value!r}")


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
        if self.min_pts < 1:
            raise ConfigError("min_pts: must be >= 1")
        if self.yaw_step_deg <= 0 or self.yaw_step_deg > 90:
            raise ConfigError("yaw_step_deg: must be in (0, 90]")
        if self.fit_criterion not in ("area", "closeness"):
            raise ConfigError("fit_criterion: must be 'area' or 'closeness'")
        if self.occ_grid_r < 1:
            raise ConfigError("occ_grid_r: must be >= 1")
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
        if len(self.range_bin_edges) < 1 or any(
                b <= a for a, b in zip(self.range_bin_edges, self.range_bin_edges[1:])):
            raise ConfigError("range_bin_edges: must be strictly ascending")
        if self.range_bin_edges[0] < 0:
            raise ConfigError("range_bin_edges: must start at >= 0")
        if not self.eval_iou_thresholds or any(
                not 0 < t <= 1 for t in self.eval_iou_thresholds):
            raise ConfigError("eval_iou_thresholds: must be in (0, 1]")
        if len(set(self.eval_iou_thresholds)) < len(self.eval_iou_thresholds):
            raise ConfigError("eval_iou_thresholds: must be distinct")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if not self.classes:
            raise ConfigError("classes: at least one foreground class required")
        for cid, cc in self.classes.items():
            if cid < 1:
                raise ConfigError(f"classes[{cid}]: class ids must be >= 1")
            _check_types(cc, f"classes[{cid}].")
            try:
                ClusterParams(tuple(cc.radii), self.min_pts, cc.min_cluster_size)
            except ValueError as e:
                raise ConfigError(f"classes[{cid}].radii: {e}") from e
            if len(cc.meta_shape) != 3 or any(v <= 0 for v in cc.meta_shape):
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
                    index: PointIndex) -> list[ScoreBreakdown]:
        """Score breakdown of each box against the points of its class in
        the caller's indexed cloud, under this config's shape prior, score
        weights and occupancy grid. Each box is scored on its in-box points
        of its class, which is all msf_score reads; equal boxes are scored once."""
        scores: dict[Box3D, ScoreBreakdown] = {}
        for b in boxes:
            if b not in scores:
                hits = index.inside(b)
                hits = hits[index.class_id[hits] == b.class_id]
                scores[b] = msf_score(b, index.xyz[hits],
                                      self.meta_shape(b.class_id),
                                      self.lambdas, self.occ_grid_r)
        return [scores[b] for b in boxes]

    def label(self, box: Box3D, scores: ScoreBreakdown,
              source: str) -> PseudoLabel:
        """A scored box as a label, weighted from its msf by this config's
        thresholds."""
        return PseudoLabel(box, scores, label_weight(
            scores.msf, self.theta_low, self.theta_high), source)

    @property
    def num_classes(self) -> int:
        return max(self.classes)

    def class_names(self) -> dict[int, str]:
        return {cid: cc.name for cid, cc in self.classes.items()}

    # Serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["classes"] = {str(cid): asdict(cc) for cid, cc in self.classes.items()}
        return d

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be an object")
        known = set(PipelineConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        kwargs = dict(data)
        try:
            if "classes" in kwargs:
                kwargs["classes"] = _classes_from_dict(kwargs["classes"])
            for name in ("lambdas", "range_bin_edges", "eval_iou_thresholds"):
                if name in kwargs:
                    kwargs[name] = _as_tuple(kwargs[name])
            return PipelineConfig(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as e:  # a value of the wrong type
            raise ConfigError(f"config: {e}") from e

    @staticmethod
    def from_json(path: str | Path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"config: invalid JSON in {path}: {e}") from e
        return PipelineConfig.from_dict(data)
