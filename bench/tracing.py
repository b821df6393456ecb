"""Per-layer tracing from outside the program.

The tracer replaces each traced function with a timing wrapper in every
``sembox`` module that holds it, so the wrapper is what callers resolve
whether they call ``dataio.read_points`` through the module or
``points_in_box`` through a ``from .geometry import`` binding. Nothing in
``src/`` changes. Spans are kept in memory as
``(name, start, end, parent, rep)`` tuples; counts are taken at the same
boundaries from the wrapped calls' arguments and return values, and they
repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
from sembox.scoring import SOURCE_REFINED


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_read_points(c, args, kwargs, out):
    c["dataio.read_points.mb"] += os.path.getsize(_first(args, kwargs)) / 1e6


def _count_register_window(c, args, kwargs, out):
    c["aggregation.register_window.points"] += sum(len(p) for p in out)
    c["aggregation.fg_points"] += sum(int(p.foreground.sum()) for p in out)


def _count_dense_cloud(c, args, kwargs, out):
    c["aggregation.build_dense_cloud.points"] += len(out.points)


def _count_dbscan(c, args, kwargs, out):
    c["clustering.dbscan.points"] += len(out)


def _count_candidates(c, args, kwargs, out):
    c["clustering.candidates"] += len(out)


def _count_nms(c, args, kwargs, out):
    c["scoring.nms_in"] += len(_first(args, kwargs))
    c["scoring.nms_kept"] += len(out)


def _count_points_in_box(c, args, kwargs, out):
    c["geometry.points_in_box.points"] += len(out)


def _count_bev_iou(c, args, kwargs, out):
    c["geometry.bev_iou.nonzero"] += out > 0.0


def _count_scf(c, args, kwargs, out):
    c["refine.semantic_consistency_filter.in"] += len(_first(args, kwargs))
    c["refine.semantic_consistency_filter.kept"] += len(out)


def _count_stcf(c, args, kwargs, out):
    c["refine.spatial_temporal_fine_tune.refined"] += sum(
        rb.source == SOURCE_REFINED for boxes in out.values() for rb in boxes)


def _count_baf(c, args, kwargs, out):
    frame = _first(args, kwargs)
    c["refine.box_absent_foreground_filter.removed_points"] += \
        len(frame.points) - len(out)


# (module, function, count hook). The span name is "<module>.<function>".
TRACED = (
    ("dataio", "read_points", _count_read_points),
    ("dataio", "read_box_dir", None),
    ("dataio", "write_box_dir", None),
    ("dataio", "write_dataset", None),
    ("aggregation", "register_window", _count_register_window),
    ("aggregation", "build_motion_grid", None),
    ("aggregation", "build_dense_cloud", _count_dense_cloud),
    ("clustering", "multi_scale_cluster", _count_candidates),
    ("clustering", "dbscan", _count_dbscan),
    ("clustering", "fit_box", None),
    ("scoring", "msf_score", None),
    ("scoring", "nms_select", _count_nms),
    ("geometry", "points_in_box", _count_points_in_box),
    ("geometry", "bev_iou", _count_bev_iou),
    ("pipeline", "process_frame", None),
    ("refine", "refine_round", None),
    ("refine", "semantic_consistency_filter", _count_scf),
    ("refine", "sequence_motion_grid", None),
    ("refine", "spatial_temporal_fine_tune", _count_stcf),
    ("refine", "box_absent_foreground_filter", _count_baf),
    ("refine", "mock_detector", None),
    ("evaluation", "compute_report", None),
    ("evaluation", "match_labels", None),
)

CLI_COMMANDS = ("generate", "mock-detect", "refine", "evaluate")

# Per-layer metrics: name -> (unit, better). Every traced run reports all
# of them; a layer the workload never enters reports 0.
PER_LAYER = {
    "dataio.read_points.calls": ("count", "lower"),
    "dataio.read_points.s": ("s", "lower"),
    "dataio.read_points.mb": ("MB", "lower"),
    "dataio.write_dataset.s": ("s", "lower"),
    "dataio.read_box_dir.s": ("s", "lower"),
    "dataio.write_box_dir.s": ("s", "lower"),
    "aggregation.register_window.calls": ("count", "lower"),
    "aggregation.register_window.s": ("s", "lower"),
    "aggregation.register_window.points": ("count", "lower"),
    "aggregation.build_motion_grid.s": ("s", "lower"),
    "aggregation.build_dense_cloud.s": ("s", "lower"),
    "aggregation.build_dense_cloud.points": ("count", "lower"),
    "aggregation.fg_share": ("ratio", "higher"),
    "clustering.dbscan.calls": ("count", "lower"),
    "clustering.dbscan.s": ("s", "lower"),
    "clustering.dbscan.points": ("count", "lower"),
    "clustering.fit_box.calls": ("count", "lower"),
    "clustering.fit_box.s": ("s", "lower"),
    "clustering.multi_scale_cluster.self_s": ("s", "lower"),
    "clustering.candidates": ("count", "lower"),
    "scoring.msf_score.calls": ("count", "lower"),
    "scoring.msf_score.s": ("s", "lower"),
    "scoring.nms_select.s": ("s", "lower"),
    "scoring.nms_kept": ("count", "higher"),
    "scoring.nms_keep_ratio": ("ratio", "higher"),
    "geometry.points_in_box.calls": ("count", "lower"),
    "geometry.points_in_box.points": ("count", "lower"),
    "geometry.points_in_box.s": ("s", "lower"),
    "geometry.bev_iou.calls": ("count", "lower"),
    "geometry.bev_iou.s": ("s", "lower"),
    "geometry.bev_iou.nonzero_ratio": ("ratio", "higher"),
    "pipeline.process_frame.calls": ("count", "lower"),
    "pipeline.process_frame.s": ("s", "lower"),
    "pipeline.process_frame.p50_ms": ("ms", "lower"),
    "pipeline.process_frame.p90_ms": ("ms", "lower"),
    "refine.refine_round.s": ("s", "lower"),
    "refine.semantic_consistency_filter.s": ("s", "lower"),
    "refine.semantic_consistency_filter.kept": ("count", "higher"),
    "refine.semantic_consistency_filter.kept_ratio": ("ratio", "higher"),
    "refine.sequence_motion_grid.s": ("s", "lower"),
    "refine.spatial_temporal_fine_tune.s": ("s", "lower"),
    "refine.spatial_temporal_fine_tune.refined": ("count", "higher"),
    "refine.box_absent_foreground_filter.s": ("s", "lower"),
    "refine.box_absent_foreground_filter.removed_points": ("count", "lower"),
    "refine.mock_detector.s": ("s", "lower"),
    "evaluation.compute_report.s": ("s", "lower"),
    "evaluation.match_labels.calls": ("count", "lower"),
    "evaluation.recall_0.5": ("ratio", "higher"),
    "evaluation.precision_0.5": ("ratio", "higher"),
    "evaluation.pos_mae_m": ("m", "lower"),
    **{f"cli.{cmd}.{kind}": ("s", "lower")
       for cmd in CLI_COMMANDS for kind in ("s", "self_s")},
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Collects spans and counts while installed; ``rep`` tags each span."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.rep = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.rep)

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts[self.rep], args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever a sembox module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sembox" or key.startswith("sembox."))]
        patched = []
        try:
            for mod_name, fn_name, hook in TRACED:
                original = getattr(sys.modules[f"sembox.{mod_name}"], fn_name)
                wrapper = self._wrap(original, f"{mod_name}.{fn_name}", hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def layer_metrics(self, rep) -> dict[str, float]:
        """Every PER_LAYER metric of one repetition, from its spans and
        counts. Metrics measured outside the worker (set-up, quality,
        tracing overhead) read 0 here and are filled in by run.py."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rep]
        by_stat = {"s": defaultdict(float), "calls": defaultdict(int),
                   "self_s": defaultdict(float)}
        durations = defaultdict(list)
        child_time = defaultdict(float)
        for _, (name, start, end, parent, _) in spans:
            by_stat["s"][name] += end - start
            by_stat["calls"][name] += 1
            durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in spans:
            by_stat["self_s"][name] += (end - start) - child_time[i]
        c = self.counts[rep]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for metric in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            m[metric] = by_stat[stat][span] if stat in by_stat else c[metric]
        m["aggregation.fg_share"] = ratio(c["aggregation.fg_points"],
                                          c["aggregation.register_window.points"])
        m["scoring.nms_keep_ratio"] = ratio(c["scoring.nms_kept"], c["scoring.nms_in"])
        m["geometry.bev_iou.nonzero_ratio"] = ratio(c["geometry.bev_iou.nonzero"],
                                                    by_stat["calls"]["geometry.bev_iou"])
        m["refine.semantic_consistency_filter.kept_ratio"] = ratio(
            c["refine.semantic_consistency_filter.kept"],
            c["refine.semantic_consistency_filter.in"])
        frame_ms = np.array(durations["pipeline.process_frame"]) * 1e3
        for q in (50, 90):
            m[f"pipeline.process_frame.p{q}_ms"] = \
                float(np.percentile(frame_ms, q)) if len(frame_ms) else 0.0
        return {k: float(v) for k, v in m.items()}


def write_spans(path, header: dict, spans: list) -> None:
    """Write spans as tab-separated rows after a JSON header line; parent
    is the row index of the enclosing span, or -1."""
    with open(path, "w") as f:
        f.write("# " + json.dumps(header) + "\n")
        f.write("rep\tname\tstart\tend\tparent\n")
        for name, start, end, parent, rep in spans:
            f.write(f"{rep}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
