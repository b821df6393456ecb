import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sembox import evaluation
from sembox.evaluation import compute_report, match_labels, write_report
from sembox.geometry import Box3D, iou_3d

from conftest import random_box


def veh(x, y, yaw=0.0, l=4.6, w=1.8, h=1.6, cls=1):
    return Box3D(x, y, 0.8, l, w, h, yaw, class_id=cls)


def oracle_match(boxes, scores, gts, iou_threshold, class_agnostic=False):
    """Greedy matching by a per-pair loop: (pairs, unmatched labels,
    unmatched gts)."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    claimed = set()
    pairs, unmatched_labels = [], []
    for i in order:
        best_j, best_iou = -1, -1.0
        for j, gt in enumerate(gts):
            if j in claimed:
                continue
            if not class_agnostic and gt.class_id != boxes[i].class_id:
                continue
            v = iou_3d(boxes[i], gt)
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            claimed.add(best_j)
            pairs.append((i, best_j, best_iou))
        else:
            unmatched_labels.append(i)
    unmatched_gts = [j for j in range(len(gts)) if j not in claimed]
    return sorted(pairs), sorted(unmatched_labels), unmatched_gts


def oracle_counts(per_frame, thresholds, class_agnostic):
    """{threshold: {"overall" or class id: (tp, fp, fn)}} from the oracle,
    and the number of analysis pairs."""
    counts = {thr: {"overall": [0, 0, 0]} for thr in thresholds}
    n_analysis = 0
    for boxes, scores, gts in per_frame:
        for thr in thresholds:
            pairs, fps, fns = oracle_match(boxes, scores, gts, thr, class_agnostic)
            bucket = counts[thr]
            for b in boxes + gts:
                bucket.setdefault(b.class_id, [0, 0, 0])
            bucket["overall"][0] += len(pairs)
            bucket["overall"][1] += len(fps)
            bucket["overall"][2] += len(fns)
            for _, j, _ in pairs:
                bucket[gts[j].class_id][0] += 1
            for i in fps:
                bucket[boxes[i].class_id][1] += 1
            for j in fns:
                bucket[gts[j].class_id][2] += 1
        n_analysis += len(oracle_match(boxes, scores, gts, 1e-9,
                                       class_agnostic)[0])
    return ({thr: {key: tuple(v) for key, v in bucket.items()}
             for thr, bucket in counts.items()}, n_analysis)


def random_frames(rng):
    """Frames with overlapping boxes of three classes; some frames have no
    labels, some no gts."""
    frames = []
    for _ in range(int(rng.integers(1, 6))):
        gts = [random_box(rng, span=4, class_id=int(rng.integers(1, 4)))
               for _ in range(int(rng.integers(0, 6)))]
        labels = []
        for g in gts:
            if rng.uniform() < 0.7:  # a jittered copy, sometimes of another class
                labels.append(Box3D(
                    g.cx + rng.normal(0, 0.4), g.cy + rng.normal(0, 0.4), g.cz,
                    g.l, g.w, g.h, g.yaw + rng.normal(0, 0.2),
                    int(rng.integers(1, 4)) if rng.uniform() < 0.3 else g.class_id))
        labels += [random_box(rng, span=4, class_id=int(rng.integers(1, 4)))
                   for _ in range(int(rng.integers(0, 4)))]
        scores = [float(v) for v in rng.choice([0.2, 0.5, 0.9], len(labels))]
        frames.append((labels, scores, gts))
    return frames


class TestMatching:
    def test_exact_labels_all_matched(self):
        gts = [veh(5, 0), veh(20, 3, yaw=1.0)]
        m = match_labels(gts, [0.9, 0.8], gts, 0.5)
        assert len(m.pairs) == 2
        assert m.unmatched_labels == []
        assert m.unmatched_gts == []

    def test_empty_labels(self):
        gts = [veh(5, 0)]
        m = match_labels([], [], gts, 0.5)
        assert m.pairs == []
        assert m.unmatched_gts == [0]

    def test_one_to_one(self):
        gt = veh(5, 0)
        labels = [veh(5, 0), veh(5.1, 0)]
        m = match_labels(labels, [0.9, 0.8], [gt], 0.3)
        assert len(m.pairs) == 1
        assert m.pairs[0][0] == 0  # higher score claims the gt
        assert m.unmatched_labels == [1]

    def test_class_must_match(self):
        gt = veh(5, 0, cls=1)
        lab = veh(5, 0, cls=2)
        assert match_labels([lab], [0.9], [gt], 0.3).pairs == []
        agn = match_labels([lab], [0.9], [gt], 0.3, class_agnostic=True)
        assert len(agn.pairs) == 1


class TestReport:
    def test_perfect_labels(self):
        gts = [veh(5, 0), veh(40, -2, yaw=0.7)]
        rep = compute_report([(gts, [0.9, 0.9], gts)])
        for thr in (0.3, 0.5, 0.7):
            overall = rep.counts[thr]["overall"]
            assert overall.recall == 1.0
            assert overall.precision == 1.0
        for rb in rep.range_bins:
            pos, size, yaw = rb.mae()
            if rb.count:
                assert pos == 0.0 and size == 0.0 and yaw == 0.0

    def test_position_shift_mae(self):
        gts = [veh(5, 0), veh(40, -2)]
        labels = [veh(5.2, 0), veh(40.2, -2)]
        rep = compute_report([(labels, [0.9, 0.9], gts)])
        for rb in rep.range_bins:
            if rb.count:
                assert rb.mae()[0] == pytest.approx(0.2, abs=1e-9)

    def test_yaw_pi_fold(self):
        gts = [veh(5, 0, yaw=0.5)]
        labels = [veh(5, 0, yaw=0.5 + math.pi)]
        rep = compute_report([(labels, [0.9], gts)])
        total = sum(rb.yaw_abs for rb in rep.range_bins)
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_gt_below_first_edge_in_no_range_bin(self):
        gts = [veh(5, 0), veh(40, -2)]
        labels = [veh(5.2, 0), veh(40.2, -2)]
        rep = compute_report([(labels, [0.9, 0.9], gts)],
                             range_bin_edges=(10.0, 30.0))
        assert [(rb.lo, rb.hi, rb.count) for rb in rep.range_bins] == [
            (10.0, 30.0, 0), (30.0, math.inf, 1)]
        assert rep.range_bins[1].mae()[0] == pytest.approx(0.2, abs=1e-9)
        assert int(rep.iou_histogram.sum()) == 2

    def test_repeated_threshold_rejected(self):
        # Counted once per threshold entry, a repeat would double every count.
        gts = [veh(5, 0)]
        with pytest.raises(ValueError, match="repeated IoU threshold"):
            compute_report([(gts, [0.9], gts)], thresholds=(0.5, 0.5))
        assert compute_report([(gts, [0.9], gts)],
                              thresholds=(0.5,)).counts[0.5]["overall"].tp == 1

    def test_empty_dataset(self):
        rep = compute_report([])
        assert rep.n_frames == 0
        assert rep.counts[0.5]["overall"].recall is None
        assert rep.counts[0.5]["overall"].precision is None

    def test_recall_monotone_in_threshold(self, rng):
        frames = []
        for _ in range(5):
            gts = [random_box(rng, span=15) for _ in range(4)]
            labels = [random_box(rng, span=15) for _ in range(5)] + gts[:2]
            frames.append((labels, list(rng.uniform(0, 1, len(labels))), gts))
        rep = compute_report(frames)
        recalls = [rep.counts[t]["overall"].recall for t in (0.3, 0.5, 0.7)]
        precs = [rep.counts[t]["overall"].precision for t in (0.3, 0.5, 0.7)]
        assert recalls[0] >= recalls[1] >= recalls[2]
        assert precs[0] >= precs[1] >= precs[2]

    def test_histogram_sums_to_matches(self, rng):
        frames = []
        total_pairs = 0
        for _ in range(4):
            gts = [random_box(rng, span=10) for _ in range(3)]
            labels = gts[:2] + [random_box(rng, span=10)]
            scores = list(rng.uniform(0, 1, len(labels)))
            frames.append((labels, scores, gts))
            total_pairs += len(match_labels(labels, scores, gts, 1e-9).pairs)
        rep = compute_report(frames)
        assert int(rep.iou_histogram.sum()) == total_pairs

    def test_frame_permutation_invariance(self, rng):
        frames = []
        for _ in range(4):
            gts = [random_box(rng, span=10) for _ in range(3)]
            labels = gts[:2] + [random_box(rng, span=10)]
            frames.append((labels, [0.9, 0.5, 0.2], gts))
        a = compute_report(frames).to_dict()
        b = compute_report(frames[::-1]).to_dict()
        assert a == b

    def test_per_class_counts(self):
        gts = [veh(5, 0, cls=1), veh(10, 3, cls=2, l=0.8, w=0.8, h=1.7)]
        labels = [gts[0]]
        rep = compute_report([(labels, [0.9], gts)])
        assert rep.counts[0.5][1].recall == 1.0
        assert rep.counts[0.5][2].recall == 0.0


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), class_agnostic=st.booleans())
    def test_match_labels_equals_oracle(self, seed, class_agnostic):
        rng = np.random.default_rng(seed)
        for boxes, scores, gts in random_frames(rng):
            for thr in (1e-9, 0.1, 0.3, 0.5, 0.7):
                m = match_labels(boxes, scores, gts, thr, class_agnostic)
                assert (m.pairs, m.unmatched_labels, m.unmatched_gts) == \
                    oracle_match(boxes, scores, gts, thr, class_agnostic)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), class_agnostic=st.booleans())
    def test_report_counts_equal_oracle(self, seed, class_agnostic):
        rng = np.random.default_rng(seed)
        frames = random_frames(rng)
        frames.append(([], [], [veh(5, 0), veh(9, 4, cls=2)]))  # no labels
        frames.append(([veh(5, 0, cls=3)], [0.5], []))  # no gts
        thresholds = (0.1, 0.3, 0.5, 0.7)
        rep = compute_report(frames, thresholds, class_agnostic=class_agnostic)
        got = {thr: {key: (pc.tp, pc.fp, pc.fn) for key, pc in bucket.items()}
               for thr, bucket in rep.counts.items()}
        want, n_analysis = oracle_counts(frames, thresholds, class_agnostic)
        assert got == want
        assert int(rep.iou_histogram.sum()) == n_analysis
        assert rep.n_gts == sum(len(g) for _, _, g in frames)

    @pytest.mark.parametrize("class_agnostic", [False, True])
    def test_report_computes_each_iou_at_most_once(self, monkeypatch, rng,
                                                   class_agnostic):
        frames = random_frames(rng)
        calls = []

        def counting(a, b):
            calls.append((id(a), id(b)))
            return iou_3d(a, b)

        monkeypatch.setattr(evaluation, "iou_3d", counting)
        compute_report(frames, (0.3, 0.5, 0.7), class_agnostic=class_agnostic)
        assert len(calls) == len(set(calls))
        assert len(calls) <= sum(len(b) * len(g) for b, _, g in frames)


class TestWriteReport:
    def test_emits_json_and_csvs(self, tmp_path, rng):
        gts = [veh(5, 0), veh(40, -2)]
        rep = compute_report([(gts, [0.9, 0.9], gts)])
        out = tmp_path / "report.json"
        write_report(rep, out)
        data = json.loads(out.read_text())
        assert data["counts"]["gts"] == 2
        assert data["per_threshold"]["0.5"]["overall"]["recall"] == 1.0
        assert len(data["iou_histogram"]["counts"]) == 20
        for suffix in ("_metrics.csv", "_iou_histogram.csv", "_mae_by_range.csv"):
            assert (tmp_path / f"report{suffix}").is_file()
