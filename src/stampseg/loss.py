"""Training losses over per-frame class probabilities.

All three terms operate on a (T, C) probability matrix. Every logarithm of a
probability is clamped below at log(1e-8). Each term is one ``*_grad``
function that returns the loss together with its exact gradient with respect
to the probabilities; entries at or below the clamp floor get zero gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import TimestampSet, _check_classes

LOG_FLOOR = 1e-8


@dataclass(frozen=True)
class LossWeights:
    """Term weights: total = cls + alpha * tmse + beta * conf."""

    alpha: float = 0.15
    beta: float = 0.075
    tau: float = 4.0

    def __post_init__(self):
        for name in ("alpha", "beta", "tau"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.tau == 0.0:
            raise ValueError("tau must be positive")


def _check_probs(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 1:
        raise ValueError("probs must be a (T, C) array with T, C >= 1")
    return probs


def _clamped_log(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(max(p, LOG_FLOOR)) and its derivative, 1 / p above the floor and 0 at or below it."""
    dlog = np.divide(1.0, probs, out=np.zeros_like(probs), where=probs > LOG_FLOOR)
    return np.log(np.maximum(probs, LOG_FLOOR)), dlog


def _mask_indices(mask, num_frames: int) -> np.ndarray:
    """The mask's frames, ascending; refuses a frame outside the video or listed twice."""
    if mask is None:
        return np.arange(num_frames)
    idx = np.asarray(sorted(int(t) for t in mask), dtype=np.int64)
    if len(idx) and (idx[0] < 0 or idx[-1] >= num_frames):
        raise ValueError(f"mask frame outside [0, {num_frames})")
    repeats = np.flatnonzero(idx[1:] == idx[:-1])
    if len(repeats):
        raise ValueError(f"mask lists frame {idx[repeats[0]]} more than once")
    return idx


# ---------------------------------------------------------------------------
# classification

def cls_loss_grad(probs, target, mask=None) -> tuple[float, np.ndarray]:
    """Mean negative log probability of the target class over the masked frames.

    ``mask`` is an optional set of frame indices; None means every frame, an
    empty mask yields loss 0, and a frame listed twice is refused. Averaging
    is over the mask size.
    """
    probs = _check_probs(probs)
    num_frames, num_classes = probs.shape
    target = np.asarray(target, dtype=np.int64)
    if target.shape != (num_frames,):
        raise ValueError(f"target must have shape ({num_frames},)")
    idx = _mask_indices(mask, num_frames)
    grad = np.zeros_like(probs)
    if len(idx) == 0:
        return 0.0, grad
    picked = target[idx]
    _check_classes("target", picked, num_classes)
    logs, dlogs = _clamped_log(probs[idx, picked])
    value = float(-logs.sum() / len(idx))
    grad[idx, picked] = -dlogs / len(idx)
    return value, grad


# ---------------------------------------------------------------------------
# truncated smoothing

def tmse_loss_grad(probs, tau: float = 4.0) -> tuple[float, np.ndarray]:
    """Mean squared adjacent-frame log-probability difference, clipped at tau.

    Each |log p_t - log p_{t-1}| is clipped to at most tau before squaring;
    the sum over t >= 1 and all classes is divided by T * C. Both sides of
    every difference receive gradient.
    """
    probs = _check_probs(probs)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    num_frames, num_classes = probs.shape
    logs, dlogs = _clamped_log(probs)
    diff = logs[1:] - logs[:-1]
    clipped = np.minimum(np.abs(diff), tau)
    scale = 1.0 / (num_frames * num_classes)
    value = float((clipped**2).sum() * scale)

    inner = np.abs(diff) < tau
    coef = 2.0 * clipped * np.sign(diff) * inner * scale
    grad_logs = np.zeros_like(logs)
    grad_logs[1:] += coef
    grad_logs[:-1] -= coef
    return value, grad_logs * dlogs


# ---------------------------------------------------------------------------
# timestamp confidence

def conf_loss_grad(probs, timestamps: TimestampSet) -> tuple[float, np.ndarray]:
    """Hinge penalty on confidence rising while moving away from a timestamp.

    For annotation (t_i, a_i) the window spans the neighbouring timestamps
    [t_{i-1}, t_{i+1}] (clamped to [t_1, t_N] at the ends). Right of t_i a
    positive step log p_t - log p_{t-1} is penalized; at and left of t_i the
    reverse step is. Windows of adjacent annotations overlap and both count.
    The total is divided by max(1, 2 * (t_N - t_1)).
    The steps end at t = max(t_{i-1}, 1) .. t_{i+1}, so a window's first step
    starts one frame before its lower stamp, and the step into t_i counts on the
    left (README, "The confidence term, as implemented", where the paper's
    formula is recalled, not read).
    """
    probs = _check_probs(probs)
    num_frames, num_classes = probs.shape
    timestamps.check_within(num_frames)
    frames, classes = timestamps.frames, timestamps.labels
    _check_classes("timestamp", classes, num_classes)
    logs, dlogs = _clamped_log(probs)
    # stamp i's window is t = max(lo_i, 1) .. hi_i (t = 0 has no left neighbour);
    # every window's frames sit in one run of index arrays, stamp after stamp
    lo = np.maximum(np.concatenate((frames[:1], frames[:-1])), 1)
    hi = np.concatenate((frames[1:], frames[-1:]))
    sizes = hi - lo + 1  # 0 only for a lone stamp at frame 0
    ends = np.cumsum(sizes)
    starts = ends - sizes
    t = np.arange(ends[-1]) + np.repeat(lo - starts, sizes)
    cls = np.repeat(classes, sizes)
    away_right = t > np.repeat(frames, sizes)
    step = logs[t, cls] - logs[t - 1, cls]
    delta = np.where(away_right, step, -step)
    active = delta > 0.0
    # each stamp's value is its own pairwise sum, added in stamp order
    # (np.add.reduceat would sum each window sequentially, in other bits)
    total = 0.0
    for a, b in zip(starts.tolist(), ends.tolist()):
        window = delta[a:b]
        total += float(window[window > 0.0].sum())
    sign = np.where(away_right, 1.0, -1.0) * active
    # +sign at (t, cls) and -sign at (t - 1, cls); the signs are small integers,
    # so the scattered sums are exact in any order
    flat = t * num_classes + cls
    grad_logs = np.bincount(
        np.concatenate((flat, flat - num_classes)), np.concatenate((sign, -sign)), logs.size
    ).reshape(logs.shape)
    norm = max(1.0, 2.0 * float(frames[-1] - frames[0]))
    return total / norm, (grad_logs / norm) * dlogs


# ---------------------------------------------------------------------------
# combination

def total_loss_grad(
    probs, target, mask=None, timestamps=None, weights: LossWeights = LossWeights()
) -> tuple[float, np.ndarray]:
    """cls + alpha * tmse + beta * conf; conf applies when ``timestamps`` are given.

    ``pipeline.train`` gives none in ``full`` mode, whose loss is MS-TCN's.

    ``probs`` is widened to float64 once, and every term reads that one copy.
    The gradient comes back in the float dtype of ``probs`` (float64 for others).
    """
    given = np.asarray(probs)
    probs = _check_probs(given)
    value, grad = cls_loss_grad(probs, target, mask)
    if weights.alpha != 0.0:
        tv, tg = tmse_loss_grad(probs, weights.tau)
        value += weights.alpha * tv
        grad += weights.alpha * tg
    if weights.beta != 0.0 and timestamps is not None:
        cv, cg = conf_loss_grad(probs, timestamps)
        value += weights.beta * cv
        grad += weights.beta * cg
    if given.dtype.kind == "f":
        grad = grad.astype(given.dtype, copy=False)
    return value, grad
