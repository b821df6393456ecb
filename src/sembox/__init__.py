"""Box pseudo-labels for LiDAR scenes from per-point semantic labels."""

from .aggregation import (CELL_EMPTY, CELL_MOVING, CELL_STATIC, DenseCloud,
                          Frame, MotionGrid, build_dense_cloud,
                          build_motion_grid, register_window)
from .clustering import BoxCandidate, ClusterParams, dbscan, fit_box, \
    multi_scale_cluster
from .config import ClassConfig, ConfigError, PipelineConfig
from .evaluation import EvalReport, compute_report, match_labels, write_report
from .geometry import (BevGridSpec, Box3D, PointCloud, Pose, bev_iou,
                       grid_indices, iou_3d, points_in_box, transform_box)
from .pipeline import aggregate_window, generate_labels, process_frame
from .refine import (NoiseModel, Prediction, RefinedLabelSet,
                     box_absent_foreground_filter, mock_detector, refine_round,
                     semantic_consistency_filter, spatial_temporal_fine_tune)
from .scoring import (MetaShape, PseudoLabel, ScoreBreakdown, label_weight,
                      meta_shape_score, msf_score, nms_select)
from .synth import ObjectSpec, SceneSpec, generate_sequence, preset_scene

__version__ = "0.1.0"
