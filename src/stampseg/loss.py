"""Training losses over per-frame class probabilities.

All three terms operate on a (T, C) probability matrix. Every logarithm of a
probability is clamped below at log(1e-8). Each term is one ``*_grad``
function that returns the loss together with its exact gradient with respect
to the probabilities; entries at or below the clamp floor get zero gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import TimestampSet

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


def _safe_log(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, LOG_FLOOR))


def _dlog(values: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(values)
    above = values > LOG_FLOOR
    grad[above] = 1.0 / values[above]
    return grad


def _mask_indices(mask, num_frames: int) -> np.ndarray:
    if mask is None:
        return np.arange(num_frames)
    idx = np.asarray(sorted(int(t) for t in mask), dtype=np.int64)
    if len(idx) and (idx[0] < 0 or idx[-1] >= num_frames):
        raise ValueError(f"mask frame outside [0, {num_frames})")
    return idx


# ---------------------------------------------------------------------------
# classification

def cls_loss_grad(probs, target, mask=None) -> tuple[float, np.ndarray]:
    """Mean negative log probability of the target class over the masked frames.

    ``mask`` is an optional set of frame indices; None means every frame, an
    empty mask yields loss 0. Averaging is over the mask size.
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
    if picked.min() < 0 or picked.max() >= num_classes:
        raise ValueError(f"target class index out of range for {num_classes} classes")
    chosen = probs[idx, picked]
    value = float(-_safe_log(chosen).sum() / len(idx))
    grad[idx, picked] = -_dlog(chosen) / len(idx)
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
    logs = _safe_log(probs)
    diff = logs[1:] - logs[:-1]
    clipped = np.minimum(np.abs(diff), tau)
    scale = 1.0 / (num_frames * num_classes)
    value = float((clipped**2).sum() * scale)

    inner = np.abs(diff) < tau
    coef = 2.0 * clipped * np.sign(diff) * inner * scale
    grad_logs = np.zeros_like(logs)
    grad_logs[1:] += coef
    grad_logs[:-1] -= coef
    return value, grad_logs * _dlog(probs)


# ---------------------------------------------------------------------------
# timestamp confidence

def conf_loss_grad(probs, timestamps: TimestampSet) -> tuple[float, np.ndarray]:
    """Hinge penalty on confidence rising while moving away from a timestamp.

    For annotation (t_i, a_i) the window spans the neighbouring timestamps
    [t_{i-1}, t_{i+1}] (clamped to [t_1, t_N] at the ends). Right of t_i a
    positive step log p_t - log p_{t-1} is penalized; at and left of t_i the
    reverse step is. Windows of adjacent annotations overlap and both count.
    The total is divided by max(1, 2 * (t_N - t_1)).
    """
    probs = _check_probs(probs)
    num_frames, num_classes = probs.shape
    timestamps.check_within(num_frames)
    frames, classes = timestamps.frames, timestamps.labels
    if classes.min() < 0 or classes.max() >= num_classes:
        raise ValueError(f"timestamp class index out of range for {num_classes} classes")
    count = len(frames)
    logs = _safe_log(probs)
    grad_logs = np.zeros_like(logs)
    total = 0.0
    for i in range(count):
        lo = int(frames[i - 1]) if i > 0 else int(frames[0])
        hi = int(frames[i + 1]) if i < count - 1 else int(frames[-1])
        cls = int(classes[i])
        t = np.arange(max(lo, 1), hi + 1)  # t = 0 has no left neighbour
        if len(t) == 0:
            continue
        step = logs[t, cls] - logs[t - 1, cls]
        away_right = t > int(frames[i])
        delta = np.where(away_right, step, -step)
        active = delta > 0.0
        total += float(delta[active].sum())
        sign = np.where(away_right, 1.0, -1.0) * active
        np.add.at(grad_logs[:, cls], t, sign)
        np.add.at(grad_logs[:, cls], t - 1, -sign)
    norm = max(1.0, 2.0 * float(frames[-1] - frames[0]))
    return total / norm, (grad_logs / norm) * _dlog(probs)


# ---------------------------------------------------------------------------
# combination

def total_loss_grad(
    probs, target, mask=None, timestamps=None, weights: LossWeights = LossWeights()
) -> tuple[float, np.ndarray]:
    """cls + alpha * tmse + beta * conf; the conf term needs timestamps.

    ``probs`` is widened to float64 once, and every term reads that one copy.
    """
    probs = _check_probs(probs)
    value, grad = cls_loss_grad(probs, target, mask)
    if weights.alpha != 0.0:
        tv, tg = tmse_loss_grad(probs, weights.tau)
        value += weights.alpha * tv
        grad += weights.alpha * tg
    if weights.beta != 0.0 and timestamps is not None:
        cv, cg = conf_loss_grad(probs, timestamps)
        value += weights.beta * cv
        grad += weights.beta * cg
    return value, grad
