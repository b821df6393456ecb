#!/usr/bin/env python3
"""Multi-frame vs single-frame clustering ablation on a synthetic preset.

For each seed the scene is generated once and labels are produced twice,
with the full aggregation window and with the target frame alone; recall
at IoU 0.5 and size/position errors on the center frame are compared.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from sembox.config import PipelineConfig
from sembox.evaluation import compute_report
from sembox.pipeline import process_frame
from sembox.synth import generate_sequence, preset_scene


def frame_metrics(frames, gt, cfg, index):
    """Recall at IoU 0.5 and size/position MAE of the any-overlap pairs on
    frames[index]; an MAE is nan when no label overlaps a gt."""
    labels = process_frame(frames, index, cfg)
    gts = gt[frames[index].frame_id]
    report = compute_report(
        [([l.box for l in labels], [l.scores.msf for l in labels], gts)],
        thresholds=(0.5,), range_bin_edges=(0.0,))
    recall = report.counts[0.5]["overall"].tp / max(1, len(gts))
    pos, size, _ = report.range_bins[0].mae()
    return (recall, np.nan if size is None else size,
            np.nan if pos is None else pos)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="sparse-far")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--window-half-size", type=int, default=5)
    ap.add_argument("--cell-size", type=float, default=1.5)
    ap.add_argument("--epsilon", type=int, default=3)
    ap.add_argument("--fit", default="closeness", choices=("area", "closeness"))
    ap.add_argument("--csv", default=None, help="write per-seed rows here")
    args = ap.parse_args()

    multi_cfg = PipelineConfig(window_half_size=args.window_half_size,
                               cell_size=args.cell_size, epsilon=args.epsilon,
                               fit_criterion=args.fit)
    single_cfg = replace(multi_cfg, window_half_size=0)

    rows = []
    for seed in range(args.seeds):
        frames, gt = generate_sequence(preset_scene(args.preset, seed))
        index = len(frames) // 2
        r_m, s_m, p_m = frame_metrics(frames, gt, multi_cfg, index)
        r_s, s_s, p_s = frame_metrics(frames, gt, single_cfg, index)
        rows.append({
            "seed": seed,
            "recall_multi": r_m, "recall_single": r_s,
            "size_mae_multi": s_m, "size_mae_single": s_s,
            "pos_mae_multi": p_m, "pos_mae_single": p_s,
        })
        print(f"seed {seed:2d}  recall {r_m:.2f} vs {r_s:.2f}   "
              f"size {rows[-1]['size_mae_multi']:.3f} vs "
              f"{rows[-1]['size_mae_single']:.3f}")

    rec_m = np.mean([r["recall_multi"] for r in rows])
    rec_s = np.mean([r["recall_single"] for r in rows])
    print(f"\nmean recall@0.5: multi-frame {rec_m:.3f}  single-frame {rec_s:.3f}")

    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
