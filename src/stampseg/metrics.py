"""Segmentation quality scores: frame accuracy, segmental edit score, F1@k.

Corpus-level aggregation pools frame accuracy over all frames, averages the
edit score per video, and pools F1 match counts across the whole corpus.
"""

from dataclasses import dataclass

import numpy as np

from .data import _check_labels, segments_from_labels

F1_THRESHOLDS = (10, 25, 50)


def _check_pair(pred, gt):
    pred, gt = _check_labels(pred), _check_labels(gt)
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: {len(pred)} predicted vs {len(gt)} true frames")
    return pred, gt


def frame_accuracy(pred, gt) -> float:
    """Percentage of frames whose predicted class matches the truth."""
    pred, gt = _check_pair(pred, gt)
    return 100.0 * float(np.mean(pred == gt))


def _levenshtein(a: list[int], b: list[int]) -> int:
    # rolling single-row DP with unit insert, delete, and substitute costs
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[len(b)]


def edit_score(pred, gt) -> float:
    """Normalized edit distance between the segment class sequences, as a score.

    100 means identical segment orderings; the distance is divided by the
    longer of the two sequences.
    """
    pred, gt = _check_pair(pred, gt)
    seq_p = [c for c, _, _ in segments_from_labels(pred)]
    seq_g = [c for c, _, _ in segments_from_labels(gt)]
    dist = _levenshtein(seq_p, seq_g)
    return 100.0 * (1.0 - dist / max(len(seq_p), len(seq_g)))


def _segment_iou(a, b) -> float:
    inter = min(a[2], b[2]) - max(a[1], b[1])
    if inter <= 0:
        return 0.0
    union = (a[2] - a[1]) + (b[2] - b[1]) - inter
    return inter / union


def f1_counts(pred_segments, gt_segments, k: float) -> tuple[int, int, int]:
    """Greedy segment matching; returns (tp, fp, fn) at IoU threshold k/100.

    Predicted segments are visited in order; each matches the unmatched
    ground-truth segment of the same class with the highest IoU (earliest on
    ties) and counts as a true positive when that IoU is >= k/100.
    """
    threshold = k / 100.0
    matched = [False] * len(gt_segments)
    tp = fp = 0
    for seg in pred_segments:
        best_iou = -1.0
        best = -1
        for j, gt_seg in enumerate(gt_segments):
            if matched[j] or gt_seg[0] != seg[0]:
                continue
            iou = _segment_iou(seg, gt_seg)
            if iou > best_iou:
                best_iou = iou
                best = j
        if best >= 0 and best_iou >= threshold:
            tp += 1
            matched[best] = True
        else:
            fp += 1
    fn = matched.count(False)
    return tp, fp, fn


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def f1_at(pred, gt, k: float) -> float:
    """Segmental F1 at IoU threshold k (a percentage in (0, 100))."""
    if not 0.0 < k < 100.0:
        raise ValueError(f"k must be in (0, 100), got {k}")
    pred, gt = _check_pair(pred, gt)
    tp, fp, fn = f1_counts(segments_from_labels(pred), segments_from_labels(gt), k)
    return _f1_from_counts(tp, fp, fn)


@dataclass(frozen=True)
class MetricsReport:
    acc: float
    edit: float
    f1_10: float
    f1_25: float
    f1_50: float

    def line(self) -> str:
        values = (self.acc, self.edit, self.f1_10, self.f1_25, self.f1_50)
        return "\t".join(f"{v:.1f}" for v in values)

    @staticmethod
    def header() -> str:
        return "\t".join(("acc", "edit", "f1_10", "f1_25", "f1_50"))


def report(preds, gts) -> MetricsReport:
    """Score a corpus given as parallel sequences of predicted and true label arrays.

    A single video is a pair of one-element sequences.
    """
    preds, gts = list(preds), list(gts)
    if len(preds) != len(gts):
        raise ValueError("prediction and ground-truth lists differ in length")
    if not preds:
        raise ValueError("empty corpus")
    correct = 0
    total = 0
    edits = []
    counts = {k: [0, 0, 0] for k in F1_THRESHOLDS}
    for p, g in zip(preds, gts):
        p, g = _check_pair(p, g)
        correct += int(np.sum(p == g))
        total += len(p)
        edits.append(edit_score(p, g))
        seg_p = segments_from_labels(p)
        seg_g = segments_from_labels(g)
        for k in F1_THRESHOLDS:
            tp, fp, fn = f1_counts(seg_p, seg_g, k)
            counts[k][0] += tp
            counts[k][1] += fp
            counts[k][2] += fn
    f1s = {k: _f1_from_counts(*counts[k]) for k in F1_THRESHOLDS}
    return MetricsReport(
        acc=100.0 * correct / total,
        edit=float(np.mean(edits)),
        f1_10=f1s[10],
        f1_25=f1s[25],
        f1_50=f1s[50],
    )
