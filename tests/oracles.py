"""Independent reference implementations used only by the tests.

Everything here is written as plainly as possible (python loops, full DP
matrices, per-element means) so that it shares no code path with the package.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# boundaries

def split_energy(feats, span_start, cut, span_end):
    """Energy of one split: left cluster [span_start, cut], right (cut, span_end]."""
    left = feats[span_start : cut + 1]
    right = feats[cut + 1 : span_end + 1]
    center_l = left.mean(axis=0)
    center_r = right.mean(axis=0)
    total = 0.0
    for row in left:
        total += math.sqrt(float(((row - center_l) ** 2).sum()))
    for row in right:
        total += math.sqrt(float(((row - center_r) ** 2).sum()))
    return total


def best_split(feats, span_start, cand_lo, cand_hi, span_end):
    best_cut = None
    best_val = None
    for cut in range(cand_lo, cand_hi):
        val = split_energy(feats, span_start, cut, span_end)
        if best_val is None or val < best_val:
            best_val = val
            best_cut = cut
    return best_cut


def s2s(feats, left, right):
    return best_split(feats, left, left, right, right)


def s2s_prob(probs, left_class, left, right_class, right):
    best_cut = None
    best_val = None
    for cut in range(left, right):
        val = float(np.mean(probs[left : cut + 1, left_class])) + float(
            np.mean(probs[cut + 1 : right + 1, right_class])
        )
        if best_val is None or val > best_val:
            best_val = val
            best_cut = cut
    return best_cut


def fb(feats, frames, num_frames):
    count = len(frames) - 1
    forward = []
    for i in range(count):
        start = 0 if i == 0 else forward[i - 1] + 1
        forward.append(best_split(feats, start, frames[i], frames[i + 1], frames[i + 1]))
    backward = [None] * count
    for i in range(count - 1, -1, -1):
        end = num_frames - 1 if i == count - 1 else backward[i + 1]
        backward[i] = best_split(feats, frames[i], frames[i], frames[i + 1], end)
    return [(f + b) // 2 for f, b in zip(forward, backward)]


# ---------------------------------------------------------------------------
# losses

FLOOR = 1e-8


def logc(p):
    return math.log(max(float(p), FLOOR))


def cls(probs, target, mask=None):
    frames = range(len(probs)) if mask is None else sorted(mask)
    frames = list(frames)
    if not frames:
        return 0.0
    return -sum(logc(probs[t][target[t]]) for t in frames) / len(frames)


def tmse(probs, tau):
    num_frames = len(probs)
    num_classes = len(probs[0])
    total = 0.0
    for t in range(1, num_frames):
        for a in range(num_classes):
            d = abs(logc(probs[t][a]) - logc(probs[t - 1][a]))
            total += min(d, tau) ** 2
    return total / (num_frames * num_classes)


def conf(probs, frames, classes):
    count = len(frames)
    total = 0.0
    for i in range(count):
        lo = frames[i - 1] if i > 0 else frames[0]
        hi = frames[i + 1] if i < count - 1 else frames[-1]
        a = classes[i]
        for t in range(lo, hi + 1):
            if t - 1 < 0:
                continue
            step = logc(probs[t][a]) - logc(probs[t - 1][a])
            if t > frames[i]:
                total += max(0.0, step)
            else:
                total += max(0.0, -step)
    return total / max(1.0, 2.0 * (frames[-1] - frames[0]))


# ---------------------------------------------------------------------------
# metrics

def levenshtein(a, b):
    rows = len(a) + 1
    cols = len(b) + 1
    d = np.zeros((rows, cols), dtype=int)
    d[:, 0] = np.arange(rows)
    d[0, :] = np.arange(cols)
    for i in range(1, rows):
        for j in range(1, cols):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (0 if a[i - 1] == b[j - 1] else 1),
            )
    return int(d[rows - 1, cols - 1])


def rle(labels):
    segs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[t - 1]:
            segs.append((int(labels[start]), start, t))
            start = t
    return segs


def edit(pred, gt):
    a = [c for c, _, _ in rle(pred)]
    b = [c for c, _, _ in rle(gt)]
    return 100.0 * (1.0 - levenshtein(a, b) / max(len(a), len(b)))


def iou(a, b):
    inter = min(a[2], b[2]) - max(a[1], b[1])
    if inter <= 0:
        return 0.0
    return inter / ((a[2] - a[1]) + (b[2] - b[1]) - inter)


def f1_counts(pred, gt, k):
    """Same matching protocol as the package, grouped per class instead."""
    pred_segs = rle(pred)
    gt_segs = rle(gt)
    classes = sorted({s[0] for s in pred_segs} | {s[0] for s in gt_segs})
    tp = fp = fn = 0
    for c in classes:
        ps = [s for s in pred_segs if s[0] == c]
        gs = [s for s in gt_segs if s[0] == c]
        taken = set()
        for seg in ps:
            scored = [(iou(seg, g), j) for j, g in enumerate(gs) if j not in taken]
            best_val = -1.0
            best_j = -1
            for val, j in scored:
                if val > best_val:
                    best_val, best_j = val, j
            if best_j >= 0 and best_val >= k / 100.0:
                tp += 1
                taken.add(best_j)
            else:
                fp += 1
        fn += len(gs) - len(taken)
    return tp, fp, fn


def f1(pred, gt, k):
    tp, fp, fn = f1_counts(pred, gt, k)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 200.0 * precision * recall / (precision + recall)


def accuracy(pred, gt):
    hits = sum(1 for p, g in zip(pred, gt) if p == g)
    return 100.0 * hits / len(pred)


# ---------------------------------------------------------------------------
# synthetic corpora

def synthetic(spec, seed, rho=0.9):
    """Every (features, labels) pair of a synthetic corpus, by the first formula.

    The noise is a separate AR(1) ``drift`` array, one new row per frame, and
    the features are ``means[labels] + noise * drift``; the draws come from
    one Generator in the package's order.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((spec.num_classes, spec.dim))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    lo_t = int(round(0.85 * spec.mean_frames))
    hi_t = int(round(1.15 * spec.mean_frames))
    out = []
    for _ in range(spec.videos):
        num_frames = int(rng.integers(lo_t, hi_t + 1))
        count = int(rng.integers(spec.segment_range[0], spec.segment_range[1] + 1))
        classes = [int(rng.integers(spec.num_classes))]
        for _ in range(1, count):
            step = int(rng.integers(spec.num_classes - 1))
            classes.append(step if step < classes[-1] else step + 1)
        min_len = max(1, num_frames // (4 * count))
        shares = rng.dirichlet(np.ones(count))
        lengths = min_len + rng.multinomial(num_frames - count * min_len, shares)
        labels = np.repeat(np.array(classes, dtype=np.int64), lengths)
        white = rng.standard_normal((num_frames, spec.dim))
        drift = np.empty_like(white)
        drift[0] = white[0]
        scale = math.sqrt(1.0 - rho**2)
        for t in range(1, num_frames):
            drift[t] = rho * drift[t - 1] + scale * white[t]
        out.append((means[labels] + spec.noise * drift, labels))
    return out


# ---------------------------------------------------------------------------
# misc

def expand_segments(segments):
    out = []
    for c, s, e in segments:
        out.extend([c] * (e - s))
    return np.array(out, dtype=np.int64)


def nearest_centroid(feats, means):
    dists = np.linalg.norm(feats[:, None, :] - means[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def random_labels(rng, num_frames, num_classes, max_segments=8):
    """Random dense labels with at least one segment."""
    count = int(rng.integers(1, max_segments + 1))
    count = min(count, num_frames)
    cuts = np.sort(rng.choice(np.arange(1, num_frames), size=count - 1, replace=False)) if count > 1 else np.array([], dtype=int)
    edges = np.concatenate(([0], cuts, [num_frames]))
    labels = np.empty(num_frames, dtype=np.int64)
    prev = -1
    for i in range(count):
        choices = [c for c in range(num_classes) if c != prev]
        cls_pick = int(rng.choice(choices))
        labels[edges[i] : edges[i + 1]] = cls_pick
        prev = cls_pick
    return labels
