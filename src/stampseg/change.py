"""Action-change detection between annotated frames and pseudo-label generation.

A boundary estimate b holds N-1 frame indices for N timestamps; b[i] is the
last frame of the segment annotated at timestamps.frames[i], so the next
segment starts at b[i] + 1.
"""

import numpy as np

from .data import TimestampSet

BOUNDARY_METHODS = ("fb", "s2s_features", "s2s_prob")


def _check_features(features) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a (T, F) array with T >= 1")
    return features


def _split_energies(feats, span_start, cand_lo, cand_hi, span_end):
    """Energy of every split t in [cand_lo, cand_hi).

    For split t the left cluster is feats[span_start .. t] and the right
    cluster is feats[t + 1 .. span_end], both inclusive; each cluster is scored
    by the sum of Euclidean distances of its frames to the cluster mean.
    Runs in O(L^2 F) time for a window of L frames.
    """
    count = cand_hi - cand_lo
    idx = np.arange(count)

    left = feats[span_start:cand_hi]
    sizes_l = (cand_lo - span_start) + idx + 1
    means_l = np.cumsum(left, axis=0)[sizes_l - 1] / sizes_l[:, None]
    dist_l = np.linalg.norm(left[:, None, :] - means_l[None, :, :], axis=2)
    energy_l = np.cumsum(dist_l, axis=0)[sizes_l - 1, idx]

    right = feats[cand_lo + 1 : span_end + 1]
    sizes_r = len(right) - idx
    suffix = np.cumsum(right[::-1], axis=0)[::-1]
    means_r = suffix[idx] / sizes_r[:, None]
    dist_r = np.linalg.norm(right[:, None, :] - means_r[None, :, :], axis=2)
    energy_r = np.cumsum(dist_r[::-1], axis=0)[::-1][idx, idx]

    return energy_l + energy_r


def s2s_boundary(features, left: int, right: int) -> int:
    """Best split between two annotated frames, judged on the features alone.

    Returns the t in [left, right) minimizing the summed distance of
    features[left .. t] to their mean plus features[t + 1 .. right] to theirs.
    Ties go to the smallest t.
    """
    features = _check_features(features)
    num_frames = features.shape[0]
    if not 0 <= left < right < num_frames:
        raise ValueError(
            f"need 0 <= left < right < T, got left={left}, right={right}, T={num_frames}"
        )
    energies = _split_energies(features, left, left, right, right)
    return left + int(np.argmin(energies))


def s2s_boundary_prob(probs, left_class: int, left: int, right_class: int, right: int) -> int:
    """Probability variant: maximize the mean left-class and right-class scores.

    The objective for split t is mean(probs[left .. t, left_class]) +
    mean(probs[t + 1 .. right, right_class]); ties go to the smallest t.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("probs must be a (T, C) array")
    num_frames, num_classes = probs.shape
    if not 0 <= left < right < num_frames:
        raise ValueError(
            f"need 0 <= left < right < T, got left={left}, right={right}, T={num_frames}"
        )
    for cls in (left_class, right_class):
        if not 0 <= cls < num_classes:
            raise ValueError(f"class index {cls} out of range for {num_classes} classes")
    count = right - left
    idx = np.arange(count)
    col_l = probs[left:right, left_class]
    mean_l = np.cumsum(col_l) / (idx + 1)
    col_r = probs[left + 1 : right + 1, right_class]
    mean_r = np.cumsum(col_r[::-1])[::-1] / (count - idx)
    return left + int(np.argmax(mean_l + mean_r))


def fb_boundaries(features, timestamps: TimestampSet, num_frames: int) -> np.ndarray:
    """Forward-backward boundary estimation between consecutive timestamps.

    The forward pass scans left to right; the left cluster of boundary i
    starts right after the previous forward estimate (at the video start for
    i = 0) and the right cluster ends at the next timestamp. The backward pass
    mirrors this right to left, with the right cluster ending at the following
    backward estimate (the last frame for the final boundary). The result is
    the floor average of the two passes; each pass lies in [t_i, t_{i+1}), so
    their floor mean does too.
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
    labels = np.empty(num_frames, dtype=np.int64)
    edges = np.concatenate(([0], boundaries + 1, [num_frames]))
    for i in range(len(frames)):
        labels[edges[i] : edges[i + 1]] = classes[i]
    return labels

