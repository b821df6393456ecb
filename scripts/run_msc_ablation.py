#!/usr/bin/env python3
"""Multi-radius vs single-radius clustering ablation.

Pools recall at IoU 0.5 over the adjacent and truncated presets for the
full radius set and for each radius alone.
"""

import argparse
import sys
from dataclasses import replace

from sembox.config import ClassConfig, PipelineConfig
from sembox.evaluation import match_labels
from sembox.pipeline import process_frame
from sembox.synth import generate_sequence, preset_scene


def pooled_recall(cfg, presets, seeds):
    tp = total = 0
    for preset in presets:
        for seed in range(seeds):
            frames, gt = generate_sequence(preset_scene(preset, seed))
            index = len(frames) // 2
            labels = process_frame(frames, index, cfg)
            gts = gt[frames[index].frame_id]
            m = match_labels([l.box for l in labels],
                             [l.scores.msf for l in labels], gts, 0.5)
            tp += len(m.pairs)
            total += len(gts)
    return tp / max(1, total)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="+", default=["adjacent", "truncated"])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    base = PipelineConfig()
    multi = pooled_recall(base, args.presets, args.seeds)
    print(f"multi-radius {base.classes[1].radii}: recall@0.5 = {multi:.3f}")

    for radius in base.classes[1].radii:
        cc = base.classes[1]
        classes = dict(base.classes)
        classes[1] = ClassConfig(cc.name, (radius,), cc.min_cluster_size,
                                 cc.meta_shape)
        single = pooled_recall(replace(base, classes=classes),
                               args.presets, args.seeds)
        print(f"single radius {radius}: recall@0.5 = {single:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
