"""Command-line surface tying the pipeline together.

Subcommands:

* ``synth``: write a synthetic dataset (with ground truth) for a preset.
* ``generate``: run pseudo-label generation end to end over a dataset.
* ``refine``: run one self-training refinement round over predictions.
* ``score-labels``: recompute score breakdowns for existing label files.
* ``evaluate``: compare labels against ground truth, emit a report.
* ``mock-detect``: run the mock detector over boxes to produce predictions.

Exit codes: 0 on success, 2 on validation/usage errors, 1 on runtime
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import dataio, evaluation, pipeline
from .aggregation import Frame
from .config import ConfigError, PipelineConfig, read_json
from .dataio import FormatError
from .refine import (NOISE_PROFILES, NoiseModel, PoseSpanError, mock_detector,
                     refine_round)
from .synth import PRESET_NAMES, generate_sequence, preset_scene

logger = logging.getLogger("sembox")


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="pipeline config JSON (defaults used when omitted)")
    p.add_argument("--threads", type=_int_at_least(1), default=None,
                   help=(f"worker count of generate and score-labels, the commands that "
                         f"start workers (default: the CPUs this process may run on, or "
                         f"${pipeline.THREADS_ENV_VAR})"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sembox",
        description="3D box pseudo-labels from per-point semantic labels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    _add_common(p)

    p = sub.add_parser("generate", help="generate pseudo-labels for a dataset")
    p.add_argument("dataset", type=Path)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("refine", help="run one self-training refinement round")
    p.add_argument("dataset", type=Path)
    p.add_argument("--preds", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("score-labels", help="recompute score breakdowns")
    p.add_argument("dataset", type=Path)
    p.add_argument("--labels", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None,
                   help="write rescored label files here (else report only)")
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate labels against ground truth")
    p.add_argument("dataset", type=Path)
    p.add_argument("--labels", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("mock-detect", help="noisy mock detector over boxes")
    p.add_argument("dataset", type=Path)
    p.add_argument("--labels", type=Path, required=True,
                   help="input boxes (label files, e.g. gt_labels)")
    p.add_argument("--noise", default="default",
                   help=f"profile name {sorted(NOISE_PROFILES)} or a JSON file")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="noise seed (default: the config's seed)")
    _add_common(p)
    return parser


def _load_noise(spec: str) -> NoiseModel:
    if spec in NOISE_PROFILES:
        return NOISE_PROFILES[spec]
    if Path(spec).is_file():
        return read_json(spec, NoiseModel)
    raise ConfigError(
        f"noise: unknown profile {spec!r} (expected one of "
        f"{sorted(NOISE_PROFILES)} or a JSON file path)")


def _read_frame_boxes(dir_path: Path, dataset: Path, frame_ids, kind: str,
                      config: PipelineConfig | None = None) -> dict:
    """read_box_dir, rejecting a file of a frame the dataset's manifest lacks."""
    boxes = dataio.read_box_dir(dir_path, kind, config)
    for fid in sorted(boxes):
        if fid not in frame_ids:
            raise FormatError(f"{dir_path}: frame {fid} is not in the dataset's "
                              f"manifest {dataset / 'manifest.json'}")
    return boxes


def _load_frames(dataset: Path, config: PipelineConfig) -> list[Frame]:
    """load_dataset, warning once per foreground class id that the config
    has no entry for: its points are never clustered, nor counted in any
    box's score."""
    frames = dataio.load_dataset(dataset)
    ids, counts = np.unique(np.concatenate([fr.foreground.class_id for fr in frames]),
                            return_counts=True)
    for cid, n in zip(ids.tolist(), counts.tolist()):
        if cid not in config.classes:
            logger.warning("class id %d: %d foreground points, but the config has "
                           "no entry for it, so none is clustered or scored", cid, n)
    return frames


def _write_summary(out_dir: Path, summary: dict) -> None:
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def cmd_synth(args, config: PipelineConfig) -> int:
    spec = preset_scene(args.preset, args.seed)
    frames, gt = generate_sequence(spec)
    dataio.write_dataset(args.out, frames, config.class_names(), gt=gt,
                         points_format=args.format)
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def cmd_generate(args, config: PipelineConfig) -> int:
    frames = _load_frames(args.dataset, config)
    labels = pipeline.generate_labels(frames, config, threads=args.threads)
    out = Path(args.out)
    dataio.write_box_dir(out / "labels", labels, kind="labels")
    _write_summary(out, pipeline.summarize_labels(labels))
    print(f"generated {sum(len(v) for v in labels.values())} labels "
          f"over {len(frames)} frames to {out}")
    return 0


def cmd_refine(args, config: PipelineConfig) -> int:
    frames = _load_frames(args.dataset, config)
    preds = _read_frame_boxes(args.preds, args.dataset,
                              [fr.frame_id for fr in frames], "predictions")
    if not any(preds.values()):
        logger.warning("predictions directory %s holds no boxes", args.preds)
    for cid, n in sorted(Counter(p.box.class_id for ps in preds.values() for p in ps
                                 if p.box.class_id not in config.classes).items()):
        logger.warning("class id %d: %d predictions, but the config has no "
                       "entry for it, so refine sets them aside", cid, n)
    try:
        result = refine_round(frames, preds, config)
    except PoseSpanError as e:  # the poses are data: name their files
        poses = {m.frame_id: args.dataset / m.pose
                 for m in dataio.read_manifest(args.dataset)[0]}
        raise FormatError(f"{', '.join(str(poses[f]) for f in e.frame_ids)}: {e}") from e
    out = Path(args.out)
    dataio.write_box_dir(out / "labels", result.labels, kind="labels")
    dataio.write_retained_indices(out / "retained", result.retained_indices)
    _write_summary(out, pipeline.summarize_labels(result.labels))
    print(f"refined into {sum(len(v) for v in result.labels.values())} labels "
          f"over {len(frames)} frames to {out}")
    return 0


def cmd_score_labels(args, config: PipelineConfig) -> int:
    frames = _load_frames(args.dataset, config)
    loaded = _read_frame_boxes(args.labels, args.dataset,
                               [fr.frame_id for fr in frames], "labels", config)
    scored = pipeline.map_frames(functools.partial(pipeline.score_frame, loaded),
                                 frames, config, args.threads)
    rescored = {fr.frame_id: labs for fr, labs in zip(frames, scored) if labs is not None}
    for fid, labs in rescored.items():
        for old, new in zip(loaded[fid], labs):
            print(f"frame {fid} class {old.box.class_id} msf {old.scores.msf:.4f} "
                  f"-> {new.scores.msf:.4f}")
    if args.out is not None:
        dataio.write_box_dir(Path(args.out), rescored, kind="labels")
        print(f"wrote rescored labels to {args.out}")
    return 0


def cmd_evaluate(args, config: PipelineConfig) -> int:
    frame_ids = [e.frame_id for e in dataio.read_manifest(args.dataset)[0]]
    labels = _read_frame_boxes(args.labels, args.dataset, frame_ids, "labels")
    gts = _read_frame_boxes(args.gt, args.dataset, frame_ids, "labels")
    per_frame = [([lab.box for lab in labels.get(fid, [])],
                  [lab.scores.msf for lab in labels.get(fid, [])],
                  [g.box for g in gts.get(fid, [])]) for fid in frame_ids]
    report = evaluation.compute_report(
        per_frame, thresholds=config.eval_iou_thresholds,
        range_bin_edges=config.range_bin_edges,
        class_agnostic=config.class_agnostic_eval)
    evaluation.write_report(report, args.report)
    overall = report.counts[config.eval_iou_thresholds[0]]["overall"]
    print(f"evaluated {report.n_labels} labels vs {report.n_gts} gts; "
          f"tp@{config.eval_iou_thresholds[0]:g}={overall.tp}; "
          f"report at {args.report}")
    return 0


def cmd_mock_detect(args, config: PipelineConfig) -> int:
    frame_ids = [e.frame_id for e in dataio.read_manifest(args.dataset)[0]]
    noise = _load_noise(args.noise)
    loaded = _read_frame_boxes(args.labels, args.dataset, frame_ids, "labels")
    boxes = {fid: [lab.box for lab in labs] for fid, labs in loaded.items()}
    seed = args.seed if args.seed is not None else config.seed
    preds = mock_detector(boxes, noise, seed,
                          class_ids=tuple(sorted(config.classes)))
    dataio.write_box_dir(Path(args.out), preds, kind="predictions")
    print(f"wrote {sum(len(v) for v in preds.values())} predictions to {args.out}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "generate": cmd_generate,
    "refine": cmd_refine,
    "score-labels": cmd_score_labels,
    "evaluate": cmd_evaluate,
    "mock-detect": cmd_mock_detect,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command checks --threads and reads --config once, before any dataset file.
        args.threads = pipeline.resolve_threads(args.threads)
        config = (PipelineConfig() if args.config is None
                  else read_json(args.config, PipelineConfig))
        return _COMMANDS[args.command](args, config)
    except (ConfigError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure, not a usage problem
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
