"""Action-change detection between annotated frames and pseudo-label generation.

A boundary estimate b holds N-1 frame indices for N timestamps; b[i] is the
last frame of the segment annotated at timestamps.frames[i], so the next
segment starts at b[i] + 1.
"""

import numpy as np

from .data import TimestampSet, _check_classes

BOUNDARY_METHODS = ("fb", "s2s_features", "s2s_prob")

# Candidate splits scored per matrix product in _split_energies; it bounds that
# function's working memory to a few (window frames x _BLOCK) float64 arrays.
_BLOCK = 256


def _check_features(features) -> np.ndarray:
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a (T, F) array with T >= 1")
    return features


def _check_pair(left: int, right: int, num_frames: int) -> None:
    if not 0 <= left < right < num_frames:
        raise ValueError(
            f"need 0 <= left < right < T, got left={left}, right={right}, T={num_frames}"
        )


def _cluster_distances(rows, sq_rows, means):
    """(len(rows), len(means)) Euclidean distances from one matrix product.

    Uses |x - m|^2 = |x|^2 - 2 x.m + |m|^2, clamped at 0 before the square root.
    """
    dist = rows @ means.T
    dist *= -2.0
    dist += sq_rows[:, None]
    dist += np.einsum("ij,ij->i", means, means)[None, :]
    np.maximum(dist, 0.0, out=dist)
    return np.sqrt(dist, out=dist)


def _split_energies(feats, span_start, cand_lo, cand_hi, span_end):
    """Energy of every split t in [cand_lo, cand_hi).

    For split t the left cluster is feats[span_start .. t] and the right
    cluster is feats[t + 1 .. span_end], both inclusive; each cluster is scored
    by the sum of Euclidean distances of its frames to the cluster mean.

    The window is copied to float64 and centred on its mean, which keeps the
    expanded distance |x|^2 - 2 x.m + |m|^2 from cancelling when the frames
    share a large offset. Cluster means come from prefix and suffix sums, and
    each block of _BLOCK candidates takes one matrix product per side. For a
    window of L frames of dimension F this runs in O(L^2 F) time and
    O(_BLOCK L + L F) memory; no (frames, candidates, F) array is built.
    """
    window = feats[span_start : span_end + 1].astype(np.float64)
    # The clamp below would turn a NaN distance into 0, so refuse non-finite frames.
    if not np.isfinite(window).all():
        raise ValueError("non-finite value in input features")
    window -= window.mean(axis=0)
    num = window.shape[0]
    sq = np.einsum("ij,ij->i", window, window)
    prefix = np.cumsum(window, axis=0)
    suffix = np.cumsum(window[::-1], axis=0)[::-1]

    # Split a (window-relative) puts frames 0 .. a on the left and a + 1 .. num - 1
    # on the right. In a block of splits lo + k, k < hi - lo, frames before lo are
    # on the left of every split and frames from hi + 1 on the right of every
    # split; only the frames in between need the triangular masks.
    blocks = []
    for lo in range(cand_lo - span_start, cand_hi - span_start, _BLOCK):
        hi = min(lo + _BLOCK, cand_hi - span_start)
        splits = np.arange(lo, hi)
        means_l = prefix[lo:hi] / (splits + 1)[:, None]
        dist = _cluster_distances(window[:hi], sq[:hi], means_l)
        energy = dist[:lo].sum(axis=0) + np.triu(dist[lo:]).sum(axis=0)
        means_r = suffix[lo + 1 : hi + 1] / (num - 1 - splits)[:, None]
        dist = _cluster_distances(window[lo + 1 :], sq[lo + 1 :], means_r)
        energy += np.tril(dist[: hi - lo]).sum(axis=0) + dist[hi - lo :].sum(axis=0)
        blocks.append(energy)
    return np.concatenate(blocks)


def s2s_boundary(features, left: int, right: int) -> int:
    """Best split between two annotated frames, judged on the features alone.

    Returns the t in [left, right) minimizing the summed distance of
    features[left .. t] to their mean plus features[t + 1 .. right] to theirs.
    Ties go to the smallest t. For L = right - left + 1 frames of dimension F
    this takes O(L^2 F) time and O(_BLOCK L + L F) memory (see _split_energies).
    A non-finite value in features[left .. right] raises ValueError.
    """
    features = _check_features(features)
    _check_pair(left, right, features.shape[0])
    energies = _split_energies(features, left, left, right, right)
    return left + int(np.argmin(energies))


def s2s_boundary_prob(probs, left_class: int, left: int, right_class: int, right: int) -> int:
    """Probability variant: maximize the mean left-class and right-class scores.

    The objective for split t is mean(probs[left .. t, left_class]) +
    mean(probs[t + 1 .. right, right_class]); ties go to the smallest t.
    Non-finite probabilities raise ValueError; the means are summed in float64.
    """
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError("probs must be a (T, C) array")
    if not np.isfinite(probs).all():
        raise ValueError("non-finite value in input probabilities")
    num_frames, num_classes = probs.shape
    _check_pair(left, right, num_frames)
    _check_classes("segment", np.array((left_class, right_class)), num_classes)
    count = right - left
    idx = np.arange(count)
    mean_l = np.cumsum(probs[left:right, left_class], dtype=np.float64) / (idx + 1)
    col_r = probs[left + 1 : right + 1, right_class]
    mean_r = np.cumsum(col_r[::-1], dtype=np.float64)[::-1] / (count - idx)
    return left + int(np.argmax(mean_l + mean_r))


def fb_boundaries(features, timestamps: TimestampSet, num_frames: int) -> np.ndarray:
    """Forward-backward boundary estimation between consecutive timestamps.

    The forward pass scans left to right; the left cluster of boundary i
    starts right after the previous forward estimate (at the video start for
    i = 0) and the right cluster ends at the next timestamp. The backward pass
    mirrors this right to left, with the right cluster ending at the following
    backward estimate (the last frame for the final boundary). The result is
    the floor average of the two passes; each pass lies in [t_i, t_{i+1}), so
    their floor mean does too. With two or more timestamps every frame lies in
    some split window, so a non-finite feature raises ValueError.
    """
    features = _check_features(features)
    if features.shape[0] != num_frames:
        raise ValueError(f"features have {features.shape[0]} frames, expected {num_frames}")
    timestamps.check_within(num_frames)
    frames = timestamps.frames
    count = len(frames) - 1

    forward = np.empty(count, dtype=np.int64)
    for i in range(count):
        span_start = 0 if i == 0 else int(forward[i - 1]) + 1
        energies = _split_energies(features, span_start, frames[i], frames[i + 1], frames[i + 1])
        forward[i] = frames[i] + int(np.argmin(energies))

    backward = np.empty(count, dtype=np.int64)
    for i in range(count - 1, -1, -1):
        span_end = num_frames - 1 if i == count - 1 else int(backward[i + 1])
        energies = _split_energies(features, frames[i], frames[i], frames[i + 1], span_end)
        backward[i] = frames[i] + int(np.argmin(energies))

    return (forward + backward) // 2


def uniform_boundaries(timestamps: TimestampSet, num_frames: int) -> np.ndarray:
    """Midpoint boundaries: b[i] = floor((t_i + t_{i+1}) / 2)."""
    timestamps.check_within(num_frames)
    frames = timestamps.frames
    return (frames[:-1] + frames[1:]) // 2


def labels_from_boundaries(
    timestamps: TimestampSet, boundaries: np.ndarray, num_frames: int
) -> np.ndarray:
    """Expand boundaries into dense frame labels covering every frame.

    Frames 0 .. b[0] take the first annotated class, frames b[i-1]+1 .. b[i]
    the i-th, and frames after the last boundary the final class.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    timestamps.check_within(num_frames)
    frames, classes = timestamps.frames, timestamps.labels
    if len(boundaries) != len(frames) - 1:
        raise ValueError(
            f"got {len(boundaries)} boundaries for {len(frames)} timestamps"
        )
    if len(boundaries) and (
        np.any(boundaries < frames[:-1]) or np.any(boundaries >= frames[1:])
    ):
        raise ValueError("inconsistent boundary ordering: need t_i <= b_i < t_{i+1}")
    edges = np.concatenate(([0], boundaries + 1, [num_frames]))
    return np.repeat(classes, np.diff(edges))

