#!/usr/bin/env python3
"""Closed self-training loop with the mock detector.

Round 0 detects from ground truth with noise; each following round detects
from the previous round's refined labels (with fresh noise, standing in
for a retrained detector) and refines again. Far-bin position/size errors
per round show the refinement direction.
"""

import argparse
import sys

import numpy as np

from sembox.config import PipelineConfig
from sembox.evaluation import compute_report
from sembox.refine import NOISE_PROFILES, mock_detector, refine_round
from sembox.synth import ObjectSpec, SceneSpec, VEHICLE, generate_sequence

VEH = (4.6, 1.8, 1.6)


def static_heavy(seed):
    objs = (
        ObjectSpec(VEHICLE, VEH, (14.0, 5.0), 0.3, density=60.0),
        ObjectSpec(VEHICLE, VEH, (22.0, -7.0), 1.2, density=60.0),
        ObjectSpec(VEHICLE, VEH, (33.0, 6.0), -0.5, density=80.0),
        ObjectSpec(VEHICLE, VEH, (38.0, -4.0), 0.9, density=90.0),
        ObjectSpec(VEHICLE, VEH, (44.0, 10.0), 0.1, density=100.0),
    )
    return SceneSpec(seed=seed, objects=objs, ego_velocity=(6.0, 0.0),
                     background_points=1200)


def far_mae(boxes_per_frame, scores_per_frame, gt, cutoff=30.0):
    report = compute_report(
        [(boxes_per_frame.get(fid, []), scores_per_frame.get(fid, []), gts)
         for fid, gts in gt.items()], range_bin_edges=(0.0, cutoff))
    far = report.range_bins[-1]
    pos, size, _ = far.mae()
    return (np.nan if pos is None else pos, np.nan if size is None else size,
            far.count)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--noise", default="default", choices=sorted(NOISE_PROFILES))
    args = ap.parse_args()

    cfg = PipelineConfig()
    noise = NOISE_PROFILES[args.noise]
    frames, gt = generate_sequence(static_heavy(args.seed))

    source = gt  # round 0 detects from ground truth
    for rnd in range(args.rounds):
        preds = mock_detector(source, noise, seed=args.seed * 1000 + rnd)
        p_in, s_in, n_in = far_mae(
            {f: [p.box for p in v] for f, v in preds.items()},
            {f: [p.confidence for p in v] for f, v in preds.items()}, gt)
        result = refine_round(frames, preds, cfg)
        p_out, s_out, n_out = far_mae(
            {f: [l.box for l in v] for f, v in result.labels.items()},
            {f: [l.scores.msf for l in v] for f, v in result.labels.items()}, gt)
        print(f"round {rnd}: detector far MAE pos {p_in:.3f} size {s_in:.3f} "
              f"(n={n_in}) -> refined pos {p_out:.3f} size {s_out:.3f} "
              f"(n={n_out})")
        source = {fid: [l.box for l in labs]
                  for fid, labs in result.labels.items()}
    return 0


if __name__ == "__main__":
    sys.exit(main())
