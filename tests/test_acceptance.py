"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here, not calibrated at runtime.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest, spearmanr

from sembox import dataio
from sembox.aggregation import (build_dense_cloud, build_motion_grid,
                                register_window)
from sembox.cli import main as cli_main
from sembox.clustering import dbscan
from sembox.config import ClassConfig, PipelineConfig
from sembox.evaluation import match_labels
from sembox.geometry import BevGridSpec, Box3D, bev_iou, iou_3d
from sembox.pipeline import generate_labels, process_frame
from sembox.refine import (NOISE_PROFILES, Prediction, mock_detector,
                           refine_round, semantic_consistency_filter)
from sembox.scoring import (MetaShape, alignment_from_angles, combine_scores,
                            label_weight, msf_score)
from sembox.synth import (ObjectSpec, SceneSpec, VEHICLE, _VEH,
                          generate_sequence, perf_scene, preset_scene)

from conftest import monte_carlo_bev_iou, random_box
from test_clustering import brute_force_dbscan, canonical_partition


def verdict(num, text):
    print(f"\n[criterion {num}] {text}")


# --------------------------------------------------------------------------
# 1. Formula exactness


class TestC1FormulaExactness:
    def test_occupancy_closed_form(self, rng):
        n_cases = 10_000
        for _ in range(n_cases // 100):
            r = int(rng.choice([3, 5, 7, 9]))
            box = random_box(rng, span=30)
            for _ in range(100 // 4):
                n_cells = int(rng.integers(0, r * r + 1))
                flat = rng.choice(r * r, size=n_cells, replace=False)
                cells = [(int(f) // r, int(f) % r) for f in flat]
                pts = _cell_points(box, cells, r, rng)
                got = msf_score(box, pts, MetaShape(1.0, 1.0, 1.0), occ_r=r).occ
                assert abs(got - n_cells / (r * r)) <= 1e-12
        verdict(1, "occupancy closed-form at 10^4 inputs, tol 1e-12: PASS")

    def test_label_weight_closed_form(self, rng):
        for _ in range(10_000):
            lo = float(rng.uniform(0.0, 0.8))
            hi = float(rng.uniform(lo + 1e-3, 1.0))
            s = float(rng.uniform(-0.2, 1.2))
            got = label_weight(min(max(s, 0.0), 1.0), lo, hi)
            s_c = min(max(s, 0.0), 1.0)
            if s_c <= lo:
                expect = 0.0
            elif s_c >= hi:
                expect = 1.0
            else:
                expect = (s_c - lo) / (hi - lo)
            assert abs(got - expect) <= 1e-12
        verdict(1, "label weight closed-form at 10^4 inputs, tol 1e-12: PASS")

    def test_combination_identity(self, rng):
        for _ in range(10_000):
            occ, alg, ms = rng.uniform(0, 1, 3)
            raw = rng.uniform(0.05, 1.0, 3)
            lam = tuple(raw / raw.sum())
            lam = (lam[0], lam[1], 1.0 - lam[0] - lam[1])
            sb = combine_scores(occ, alg, ms, lam)
            assert sb.msf == lam[0] * occ + lam[1] * alg + lam[2] * ms
        verdict(1, "score combination identity at 10^4 inputs: PASS")


def _cell_points(box, cells, r, rng):
    pts = []
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    for i, j in cells:
        # Jitter inside the cell with a wide safety margin to its borders.
        u = -box.l / 2 + (i + 0.5 + rng.uniform(-0.3, 0.3)) * box.l / r
        v = -box.w / 2 + (j + 0.5 + rng.uniform(-0.3, 0.3)) * box.w / r
        pts.append([box.cx + c * u - s * v, box.cy + s * u + c * v, box.cz])
    return np.array(pts) if pts else np.zeros((0, 3))


# --------------------------------------------------------------------------
# 2. Alignment branch conformance


class TestC2AlignmentConformance:
    def test_branch_formulas(self, rng):
        """The folded score equals the printed two-branch form wherever the
        branches express a deviation of at most pi/4 from either axis (the
        domain on which they are well-defined as an orientation measure):
        theta - alpha in [0, pi/4] exercises the first branch, [pi/2,
        3pi/4] the second. Elsewhere the printed branches leave [0, 1] or
        contradict the nearest-axis fold the scoring contract specifies."""
        n = 10_000
        alphas = rng.uniform(-math.pi, math.pi, n)
        branch2 = rng.uniform(0, 1, n) < 0.5
        deltas = np.where(branch2,
                          math.pi / 2 + rng.uniform(0, math.pi / 4, n),
                          rng.uniform(0, math.pi / 4, n))
        # Orientation periodicity: shifting theta by multiples of pi must
        # not change anything.
        thetas = alphas + deltas + math.pi * rng.integers(-2, 3, n)
        for a, d, t in zip(alphas, deltas, thetas):
            if d < math.pi / 2:
                expect = 1.0 - math.sin(d)
            else:
                expect = 1.0 - math.sin(abs(a + math.pi / 2 - (a + d)))
            assert abs(alignment_from_angles(a, t) - expect) <= 1e-12
        verdict(2, "alignment equals branch formulas at 10^4 pairs, "
                   "tol 1e-12: PASS")


# --------------------------------------------------------------------------
# 3. Oracle equivalence


class TestC3OracleEquivalence:
    def test_oracle_battery_under_60s(self, rng):
        start = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(5, 201))
            dim = int(rng.choice([2, 3]))
            pts = rng.uniform(-6, 6, (n, dim))
            eps = float(rng.uniform(0.2, 2.5))
            min_pts = int(rng.integers(1, 9))
            got = canonical_partition(dbscan(pts, eps, min_pts))
            want = canonical_partition(brute_force_dbscan(pts, eps, min_pts))
            assert got == want
        dbscan_t = time.monotonic() - start

        worst = 0.0
        for k in range(1000):
            a = random_box(rng, span=2.5)
            b = random_box(rng, span=2.5)
            est = monte_carlo_bev_iou(a, b, n_side=256, rng=rng)
            worst = max(worst, abs(bev_iou(a, b) - est))
            assert abs(bev_iou(a, b) - est) <= 0.01
        total = time.monotonic() - start
        assert total < 60.0
        verdict(3, f"dbscan==brute force on 100 instances ({dbscan_t:.1f}s); "
                   f"bev_iou vs Monte-Carlo max |err| {worst:.4f} <= 0.01; "
                   f"battery {total:.1f}s < 60s: PASS")


# --------------------------------------------------------------------------
# 4. Multi-frame aggregation direction (sparse-far)

SPARSE_CFG = PipelineConfig(window_half_size=5, cell_size=1.5, epsilon=3,
                            fit_criterion="closeness")


def _center_frame_metrics(frames, gt, cfg, index=5):
    labs = process_frame(frames, index, cfg)
    boxes = [l.box for l in labs]
    scores = [l.scores.msf for l in labs]
    gts = gt[frames[index].frame_id]
    recall = len(match_labels(boxes, scores, gts, 0.5).pairs) / max(1, len(gts))
    pairs = match_labels(boxes, scores, gts, 1e-9).pairs
    errs = [(abs(boxes[i].l - gts[j].l) + abs(boxes[i].w - gts[j].w)
             + abs(boxes[i].h - gts[j].h)) / 3 for i, j, _ in pairs]
    return recall, errs


class TestC4MultiFrameDirection:
    def test_aggregation_beats_single_frame(self):
        single_cfg = replace(SPARSE_CFG, window_half_size=0)
        rec_w = rec_l = mae_w = mae_l = 0
        pooled_multi, pooled_single = [], []
        for seed in range(20):
            frames, gt = generate_sequence(preset_scene("sparse-far", seed))
            r11, e11 = _center_frame_metrics(frames, gt, SPARSE_CFG)
            r1, e1 = _center_frame_metrics(frames, gt, single_cfg)
            if r11 > r1:
                rec_w += 1
            elif r11 < r1:
                rec_l += 1
            if e11 and e1:
                m11, m1 = np.mean(e11), np.mean(e1)
                if m11 < m1:
                    mae_w += 1
                elif m11 > m1:
                    mae_l += 1
            pooled_multi.extend(e11)
            pooled_single.extend(e1)
        p_rec = binomtest(rec_w, rec_w + rec_l, 0.5,
                          alternative="greater").pvalue
        p_mae = binomtest(mae_w, mae_w + mae_l, 0.5,
                          alternative="greater").pvalue
        assert p_rec < 0.05, f"recall sign test p={p_rec}"
        assert p_mae < 0.05, f"size MAE sign test p={p_mae}"
        assert np.mean(pooled_multi) < np.mean(pooled_single)
        verdict(4, f"11-frame vs single-frame on sparse-far over 20 seeds: "
                   f"recall wins {rec_w}-{rec_l} (p={p_rec:.2e}), size MAE "
                   f"wins {mae_w}-{mae_l} (p={p_mae:.2e}), pooled size MAE "
                   f"{np.mean(pooled_multi):.3f} < "
                   f"{np.mean(pooled_single):.3f}: PASS")


# --------------------------------------------------------------------------
# 5. Multi-scale direction (adjacent + truncated)


class TestC5MultiScaleDirection:
    def test_multi_radius_beats_best_single(self):
        base = PipelineConfig()
        radii = base.classes[1].radii

        def pooled_recall(cfg):
            tp = total = 0
            for preset in ("adjacent", "truncated"):
                for seed in range(20):
                    frames, gt = generate_sequence(preset_scene(preset, seed))
                    labs = process_frame(frames, 5, cfg)
                    gts = gt[5]
                    m = match_labels([l.box for l in labs],
                                     [l.scores.msf for l in labs], gts, 0.5)
                    tp += len(m.pairs)
                    total += len(gts)
            return tp / max(1, total)

        multi = pooled_recall(base)
        singles = {}
        for r in radii:
            cc = base.classes[1]
            classes = dict(base.classes)
            classes[1] = ClassConfig(cc.name, (r,), cc.min_cluster_size,
                                     cc.meta_shape)
            singles[r] = pooled_recall(replace(base, classes=classes))
        best = max(singles.values())
        assert multi > best, f"multi {multi} vs best single {best}"
        verdict(5, "multi-radius recall@0.5 "
                   f"{multi:.3f} > best single radius {best:.3f} "
                   f"({ {k: round(v, 3) for k, v in singles.items()} }): PASS")


# --------------------------------------------------------------------------
# 6. Score-quality correlation


class TestC6ScoreCorrelation:
    def test_spearman_msf_vs_iou(self):
        from sembox.scoring import msf_score
        cfg = PipelineConfig()
        rng = np.random.default_rng(0)
        msfs, ious = [], []
        frames, gt = generate_sequence(preset_scene("mixed", 11))
        for idx in (3, 5, 7):
            lo = max(0, idx - 5)
            window = frames[lo:idx + 6]
            reg = register_window(window, idx - lo)
            grid = build_motion_grid(
                reg, BevGridSpec.centered(cfg.detection_range, cfg.cell_size),
                cfg.effective_epsilon(len(window)))
            dense = build_dense_cloud(reg, grid, idx - lo)
            for g in gt[idx]:
                cls_xyz = dense.points.xyz[dense.points.class_id == g.class_id]
                for _ in range(25):
                    m = rng.uniform(0.0, 1.0)  # per-box quality grade
                    jb = Box3D(
                        g.cx + rng.normal(0, 0.8 * m),
                        g.cy + rng.normal(0, 0.8 * m),
                        g.cz + rng.normal(0, 0.2 * m),
                        max(0.3, g.l * (1 + rng.uniform(-0.45, 0.7) * m)),
                        max(0.3, g.w * (1 + rng.uniform(-0.45, 0.7) * m)),
                        max(0.3, g.h * (1 + rng.uniform(-0.3, 0.35) * m)),
                        g.yaw + rng.normal(0, 0.5 * m), g.class_id)
                    sb = msf_score(jb, cls_xyz, cfg.meta_shape(g.class_id),
                                   cfg.lambdas, cfg.occ_grid_r)
                    msfs.append(sb.msf)
                    ious.append(iou_3d(jb, g))
        assert len(msfs) >= 500
        rho = spearmanr(msfs, ious).statistic
        assert rho > 0.5, f"spearman {rho}"
        verdict(6, f"Spearman(msf, IoU) = {rho:.3f} > 0.5 over "
                   f"{len(msfs)} jittered boxes: PASS")


# --------------------------------------------------------------------------
# 7. Self-training refinement direction


def _static_heavy(seed):
    objs = (
        ObjectSpec(VEHICLE, _VEH, (14.0, 5.0), 0.3, density=60.0),
        ObjectSpec(VEHICLE, _VEH, (22.0, -7.0), 1.2, density=60.0),
        ObjectSpec(VEHICLE, _VEH, (33.0, 6.0), -0.5, density=80.0),
        ObjectSpec(VEHICLE, _VEH, (38.0, -4.0), 0.9, density=90.0),
        ObjectSpec(VEHICLE, _VEH, (44.0, 10.0), 0.1, density=100.0),
    )
    return SceneSpec(seed=seed, objects=objs, ego_velocity=(6.0, 0.0),
                     background_points=1200)


def _far_errors(boxes_per_frame, scores_per_frame, gt):
    pos, size = [], []
    for fid, gts in gt.items():
        boxes = boxes_per_frame.get(fid, [])
        scores = scores_per_frame.get(fid, [])
        for i, j, _ in match_labels(boxes, scores, gts, 1e-9).pairs:
            g = gts[j]
            if math.hypot(g.cx, g.cy) < 30.0:
                continue
            pos.append(math.hypot(boxes[i].cx - g.cx, boxes[i].cy - g.cy))
            size.append((abs(boxes[i].l - g.l) + abs(boxes[i].w - g.w)
                         + abs(boxes[i].h - g.h)) / 3)
    return pos, size


class TestC7RefinementDirection:
    def test_far_bin_mae_reduced(self):
        cfg = PipelineConfig()
        pos_in, size_in, pos_out, size_out = [], [], [], []
        for seed in range(10):
            frames, gt = generate_sequence(_static_heavy(seed))
            preds = mock_detector(gt, NOISE_PROFILES["default"], seed + 1000)
            result = refine_round(frames, preds, cfg)
            pi, si = _far_errors(
                {f: [p.box for p in v] for f, v in preds.items()},
                {f: [p.confidence for p in v] for f, v in preds.items()}, gt)
            po, so = _far_errors(
                {f: [l.box for l in v] for f, v in result.labels.items()},
                {f: [l.scores.msf for l in v] for f, v in result.labels.items()},
                gt)
            pos_in += pi
            size_in += si
            pos_out += po
            size_out += so
        p_in, p_out = np.mean(pos_in), np.mean(pos_out)
        s_in, s_out = np.mean(size_in), np.mean(size_out)
        assert p_out < p_in, f"position MAE {p_out} !< {p_in}"
        assert s_out < s_in, f"size MAE {s_out} !< {s_in}"
        verdict(7, "one refinement round, far bin (>=30 m), 10 seeds pooled: "
                   f"position MAE {p_in:.3f} -> {p_out:.3f}, size MAE "
                   f"{s_in:.3f} -> {s_out:.3f}, both strictly reduced: PASS")


# --------------------------------------------------------------------------
# 8. Foreground-filter and semantic-filter contracts


class TestC8FilterContracts:
    def test_baf_covers_all_retained_foreground(self):
        from sembox.geometry import points_in_box
        cfg = PipelineConfig()
        violations = 0
        checked = 0
        for seed in range(3):
            frames, gt = generate_sequence(_static_heavy(seed))
            preds = mock_detector(gt, NOISE_PROFILES["default"], seed)
            result = refine_round(frames, preds, cfg)
            for fr in frames:
                labs = result.labels[fr.frame_id]
                kept = result.retained_indices[fr.frame_id]
                fg_kept = [i for i in kept if fr.points.class_id[i] > 0]
                checked += len(fg_kept)
                for i in fg_kept:
                    if not any(points_in_box(fr.points.xyz[[i]], lab.box)[0]
                               for lab in labs):
                        violations += 1
        assert violations == 0
        verdict(8, f"post-filter coverage: {checked} retained foreground "
                   f"points, {violations} outside every label: PASS")

    def test_scf_drops_all_class_flips(self):
        dropped = total = 0
        for seed in range(5):
            frames, gt = generate_sequence(_static_heavy(seed))
            for fr in frames:
                flipped = []
                for g in gt[fr.frame_id]:
                    wrong = 2 if g.class_id != 2 else 3
                    flipped.append(Prediction(
                        Box3D(g.cx, g.cy, g.cz, g.l, g.w, g.h, g.yaw,
                              class_id=wrong), 0.9))
                kept = semantic_consistency_filter(flipped, fr)
                total += len(flipped)
                dropped += len(flipped) - len(kept)
        assert dropped == total
        verdict(8, f"semantic filter dropped {dropped}/{total} injected "
                   "class-flipped predictions: PASS")


# --------------------------------------------------------------------------
# 9. Determinism and permutation stability


class TestC9Determinism:
    def test_cli_byte_identical(self, tmp_path):
        ds = tmp_path / "ds"
        assert cli_main(["synth", "--preset", "adjacent", "--seed", "5",
                         "--out", str(ds)]) == 0
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["generate", str(ds), "--out", str(out),
                             "--threads", "1"]) == 0
            outs.append(out)
        for fa in sorted((outs[0] / "labels").glob("*.txt")):
            assert fa.read_bytes() == (outs[1] / "labels" / fa.name).read_bytes()

        preds = tmp_path / "preds"
        assert cli_main(["mock-detect", str(ds), "--labels",
                         str(ds / "gt_labels"), "--noise", "default",
                         "--out", str(preds), "--seed", "3"]) == 0
        refs = []
        for name in ("ra", "rb"):
            out = tmp_path / name
            assert cli_main(["refine", str(ds), "--preds", str(preds),
                             "--out", str(out), "--threads", "1"]) == 0
            refs.append(out)
        for fa in sorted((refs[0] / "labels").glob("*.txt")):
            assert fa.read_bytes() == (refs[1] / "labels" / fa.name).read_bytes()
        verdict(9, "generate and refine byte-identical across reruns "
                   "(seed fixed, 1 thread): PASS")

    def test_point_permutation_stability(self, tmp_path, rng):
        frames, gt = generate_sequence(preset_scene("adjacent", 2))
        cfg = PipelineConfig()
        base = generate_labels(frames, cfg, threads=1)

        from sembox.aggregation import Frame
        from sembox.geometry import PointCloud
        shuffled = []
        for fr in frames:
            perm = rng.permutation(len(fr.points))
            shuffled.append(Frame(fr.frame_id, fr.timestamp, fr.pose,
                                  PointCloud(fr.points.xyz[perm],
                                             fr.points.class_id[perm])))
        permuted = generate_labels(shuffled, cfg, threads=1)

        worst = 0.0
        for fid in base:
            a, b = base[fid], permuted[fid]
            assert len(a) == len(b)
            for la, lb in zip(a, b):
                for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                    worst = max(worst, abs(getattr(la.box, f)
                                           - getattr(lb.box, f)))
        assert worst <= 1e-9
        verdict(9, f"input point permutation changes boxes by at most "
                   f"{worst:.2e} <= 1e-9: PASS")

    def test_two_workers_byte_identical(self, tmp_path):
        frames, _ = generate_sequence(preset_scene("mixed", 0))
        cfg = PipelineConfig()
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for out, n in zip(outs, (1, 2)):
            dataio.write_box_dir(out, generate_labels(frames, cfg, threads=n))
        names = sorted(f.name for f in outs[0].glob("*.txt"))
        assert len(names) == len(frames)
        assert names == sorted(f.name for f in outs[1].glob("*.txt"))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        verdict(9, f"generate on preset mixed byte-identical with 1 and 2 "
                   f"workers over {len(names)} label files: PASS")


# --------------------------------------------------------------------------
# 10. Performance sanity


@pytest.fixture(scope="module")
def perf_dataset(tmp_path_factory):
    spec = perf_scene(0, points_per_frame=102_500)
    frames, gt = generate_sequence(spec)
    counts = [len(f.points) for f in frames]
    assert np.mean(counts) >= 100_000, counts
    root = tmp_path_factory.mktemp("perf") / "seq"
    dataio.write_dataset(root, frames,
                         {1: "vehicle", 2: "pedestrian", 3: "cyclist"},
                         gt=gt, points_format="binary")
    return root, frames


class TestC10Performance:

    def test_single_thread_under_10s(self, perf_dataset, tmp_path):
        root, _ = perf_dataset
        out = tmp_path / "gen"
        start = time.monotonic()
        assert cli_main(["generate", str(root), "--out", str(out),
                         "--threads", "1"]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"single-threaded generate took {elapsed:.1f}s"
        verdict(10, f"generate over 11 frames x >=100k points in "
                    f"{elapsed:.1f}s < 10s single-threaded: PASS")

    def test_speedup_at_8_threads(self, perf_dataset):
        _, frames = perf_dataset
        cfg = PipelineConfig()
        start = time.monotonic()
        generate_labels(frames, cfg, threads=1)
        t1 = time.monotonic() - start
        start = time.monotonic()
        generate_labels(frames, cfg, threads=8)
        t8 = time.monotonic() - start
        speedup = t1 / t8
        line = (f"speedup at 8 threads: {speedup:.2f}x "
                f"(1t {t1:.1f}s, 8t {t8:.1f}s, {os.cpu_count()} cores)")
        assert speedup >= 3.0, (
            f"{line}; the >=3x bar requires hardware with >=~4 physical "
            "cores, this host cannot reach it")
        verdict(10, line + " >= 3x: PASS")


# --------------------------------------------------------------------------
# 11. SGIM-ST mining: refinement labels instances generate missed


def _found(labels, gts):
    """Ground-truth index -> the label evaluation's matcher pairs with it at
    3D IoU >= 0.3, class-aware."""
    m = match_labels([lab.box for lab in labels],
                     [lab.scores.msf for lab in labels], gts, 0.3)
    return {j: labels[i] for i, j, _ in m.pairs}


class TestC11SelfTrainingMining:
    def test_refinement_labels_missed_instances(self):
        """Instances (a ground-truth box in a frame) that generate's labels
        miss are found by refining mild mock detections, with weight, and
        stay found when the second round detects from the first round's
        labels (the loop of scripts/run_selftrain_loop.py).

        Bounds, fixed from the counts at the commit that added this test
        (sparse-far and mixed, seeds 0 and 7, pooled): 37 instances missed;
        round 1 found 33 of them (0.89), 30 with weight > 0 (0.81); round 2
        still labelled 29 of the 33 (0.88). Each run must find at least half
        of its missed instances in round 1; it found 9 of 11 on sparse-far
        and all of them on mixed.
        """
        cfg = PipelineConfig()
        missed_n = mined_n = weighted_n = kept_n = 0
        for preset in ("sparse-far", "mixed"):
            for seed in (0, 7):
                frames, gt = generate_sequence(preset_scene(preset, seed))
                labels = generate_labels(frames, cfg)
                missed = {(fid, j) for fid, gts in gt.items()
                          for j in range(len(gts))
                          if j not in _found(labels[fid], gts)}
                source, mined = gt, []
                for rnd in range(2):
                    preds = mock_detector(source, NOISE_PROFILES["mild"],
                                          seed * 1000 + rnd)
                    labels = refine_round(frames, preds, cfg).labels
                    hits = {(fid, j): lab for fid, gts in gt.items()
                            for j, lab in _found(labels[fid], gts).items()}
                    mined.append({k: hits[k] for k in missed if k in hits})
                    source = {fid: [lab.box for lab in labs]
                              for fid, labs in labels.items()}
                assert 2 * len(mined[0]) >= len(missed), (preset, seed)
                missed_n += len(missed)
                mined_n += len(mined[0])
                weighted_n += sum(lab.weight > 0 for lab in mined[0].values())
                kept_n += len(mined[0].keys() & mined[1].keys())
        # The claim needs instances that generate misses to be tested on.
        assert missed_n >= 20, f"generate missed only {missed_n} instances"
        assert mined_n >= 0.75 * missed_n, f"found {mined_n}/{missed_n}"
        assert weighted_n >= 0.6 * missed_n, f"weighted {weighted_n}/{missed_n}"
        assert kept_n >= 0.75 * mined_n, f"round 2 kept {kept_n}/{mined_n}"
        verdict(11, f"refinement mined {mined_n}/{missed_n} instances generate "
                    f"missed ({weighted_n} with weight > 0); round 2 still "
                    f"labels {kept_n}/{mined_n}: PASS")
