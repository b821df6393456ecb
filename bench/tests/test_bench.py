"""Tests of the benchmark's own machinery: tracing, counts and checks.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import sembox.aggregation  # noqa: E402
import sembox.pipeline  # noqa: E402
from sembox.synth import preset_scene  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402
from run import END_TO_END_UNITS, check_plan  # noqa: E402
from worker import run_plan  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

# Decision counts of generate + two self-training rounds on preset
# "adjacent", seed 0. They repeat exactly; a change that moves one changes
# the labels.
PINNED = {
    "clustering.candidates": 55.0,
    "scoring.nms_kept": 22.0,
    "refine.semantic_consistency_filter.kept": 37.0,
    "refine.spatial_temporal_fine_tune.refined": 44.0,
    "refine.box_absent_foreground_filter.removed_points": 4924.0,
}


@pytest.fixture(scope="module")
def adjacent(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    return WORKLOADS["selftrain-perf-text"].build_datasets(
        root, 0, {"adjacent": preset_scene("adjacent", 0)})


def _plan(datasets, out: Path) -> Plan:
    gen = WORKLOADS["gen-presets-bin"].plan(datasets, out / "gen", 0)
    loop = WORKLOADS["selftrain-perf-text"].plan(datasets, out / "loop", 0)
    return Plan(gen.commands + loop.commands, gen.finals + loop.finals)


@pytest.fixture(scope="module")
def untraced(adjacent, tmp_path_factory):
    plan = _plan(adjacent, tmp_path_factory.mktemp("untraced"))
    _, results = run_plan(plan)
    digests, failures = check_plan(plan, results, None)
    assert failures == []
    return plan, digests


def test_traced_run_keeps_label_bytes_and_pins_decision_counts(
        adjacent, untraced, tmp_path):
    tracer = Tracer()
    tracer.rep = 0
    plan = _plan(adjacent, tmp_path)
    with tracer.installed():
        _, results = run_plan(plan, tracer)
    _, failures = check_plan(plan, results, untraced[1])
    assert failures == []
    metrics = tracer.layer_metrics(0)
    assert {k: metrics[k] for k in PINNED} == PINNED
    assert set(metrics) == set(PER_LAYER)


def test_tracer_restores_the_program_functions():
    original = sembox.aggregation.register_window
    with Tracer().installed():
        assert sembox.pipeline.register_window is not original
        assert sembox.pipeline.register_window.__wrapped__ is original
    assert sembox.pipeline.register_window is original


def test_check_detects_changed_label_bytes(untraced):
    plan, digests = untraced
    label_file = next(plan.commands[0].labels[0].glob("frame_*.txt"))
    saved = label_file.read_bytes()
    try:
        label_file.write_bytes(saved + b"\n")
        results = [(c.name, 0, 0.0) for c in plan.commands]
        _, failures = check_plan(plan, results, digests)
        assert failures == ["generate: output bytes differ from the first repetition"]
    finally:
        label_file.write_bytes(saved)


def test_check_counts_nonzero_exit_as_failure(untraced):
    plan, digests = untraced
    results = [(c.name, 1 if k == 0 else 0, 0.0) for k, c in enumerate(plan.commands)]
    _, failures = check_plan(plan, results, digests)
    assert failures == ["generate: exit code 1"]


def test_self_time_and_frame_percentiles_from_spans():
    tracer = Tracer()
    tracer.spans = [
        ("cli.generate", 0.0, 10.0, -1, 0),
        ("pipeline.process_frame", 1.0, 4.0, 0, 0),
        ("clustering.dbscan", 1.5, 3.5, 1, 0),
        ("pipeline.process_frame", 5.0, 6.0, 0, 0),
        ("cli.generate", 20.0, 21.0, -1, 1),
    ]
    m = tracer.layer_metrics(0)
    assert m["cli.generate.s"] == 10.0
    assert m["cli.generate.self_s"] == 6.0
    assert m["pipeline.process_frame.calls"] == 2
    assert m["pipeline.process_frame.s"] == 4.0
    assert m["pipeline.process_frame.p50_ms"] == pytest.approx(2000.0)
    assert m["clustering.dbscan.s"] == 2.0
    assert m["clustering.multi_scale_cluster.self_s"] == 0.0


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
