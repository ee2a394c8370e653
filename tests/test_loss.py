import math

import numpy as np
import pytest

import oracles
from stampseg import loss
from stampseg.data import TimestampSet


def _rand_probs(rng, num_frames, num_classes):
    logits = rng.standard_normal((num_frames, num_classes))
    return np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)


def _ts(frames, labels):
    return TimestampSet(np.array(frames), np.array(labels))


# ---------------------------------------------------------------------------
# classification

def test_cls_perfect_prediction_is_zero():
    probs = np.eye(3)[np.array([0, 2, 1, 1])]
    assert loss.cls_loss_grad(probs, np.array([0, 2, 1, 1]))[0] == 0.0


def test_cls_uniform_four_classes():
    probs = np.full((6, 4), 0.25)
    target = np.array([0, 1, 2, 3, 0, 1])
    assert abs(loss.cls_loss_grad(probs, target)[0] - math.log(4.0)) < 1e-9


def test_cls_masked_subset():
    probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    target = np.array([0, 0, 1])
    expected = -(math.log(0.9) + math.log(0.8)) / 2
    assert abs(loss.cls_loss_grad(probs, target, mask={0, 2})[0] - expected) < 1e-12


def test_cls_empty_mask_zero():
    probs = np.full((4, 2), 0.5)
    value, grad = loss.cls_loss_grad(probs, np.zeros(4, dtype=int), mask=set())
    assert value == 0.0
    assert not grad.any()


def test_cls_refuses_a_mask_that_lists_a_frame_twice():
    probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8], [0.3, 0.7]])
    target = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="^mask lists frame 3 more than once$"):
        loss.cls_loss_grad(probs, target, mask=[3, 3, 1])
    # a sorted array and a set of the same frames are the same mask
    want = loss.cls_loss_grad(probs, target, mask={3, 1})
    got = loss.cls_loss_grad(probs, target, mask=np.array([1, 3]))
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])


def test_cls_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(40):
        num_frames = int(rng.integers(1, 30))
        num_classes = int(rng.integers(2, 6))
        probs = _rand_probs(rng, num_frames, num_classes)
        target = rng.integers(0, num_classes, size=num_frames)
        mask = None
        if rng.random() < 0.5:
            size = int(rng.integers(0, num_frames + 1))
            mask = set(int(x) for x in rng.choice(num_frames, size=size, replace=False))
        got = loss.cls_loss_grad(probs, target, mask)[0]
        want = oracles.cls(probs, target, mask)
        assert abs(got - want) < 1e-10


def test_cls_target_out_of_range():
    probs = np.full((3, 2), 0.5)
    with pytest.raises(ValueError, match="out of range"):
        loss.cls_loss_grad(probs, np.array([0, 2, 1]))


@pytest.mark.parametrize(
    "call, match",
    [(lambda p: loss.cls_loss_grad(p[0], [0]), r"^probs must be a \(T, C\) array with T, C >= 1$"),
     (lambda p: loss.tmse_loss_grad(p[:0]), r"^probs must be a \(T, C\) array with T, C >= 1$"),
     (lambda p: loss.cls_loss_grad(p, [0, 1, 0], {3}), r"^mask frame outside \[0, 3\)$"),
     (lambda p: loss.cls_loss_grad(p, [0, 1, 0], {-1}), r"^mask frame outside \[0, 3\)$"),
     (lambda p: loss.cls_loss_grad(p, [0, 1]), r"^target must have shape \(3,\)$"),
     (lambda p: loss.tmse_loss_grad(p, tau=0.0), "^tau must be finite and positive, got 0.0$"),
     (lambda p: loss.tmse_loss_grad(p, tau=math.inf), "^tau must be finite and positive, got inf$")],
    ids=["probs-1d", "probs-no-frames", "mask-past-end", "mask-negative", "target-shape",
         "tau-zero", "tau-inf"],
)
def test_loss_terms_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call(np.full((3, 2), 0.5))


def test_cls_clamp_floor():
    probs = np.array([[0.0, 1.0]])
    value = loss.cls_loss_grad(probs, np.array([0]))[0]
    assert abs(value - (-math.log(1e-8))) < 1e-9


# ---------------------------------------------------------------------------
# smoothing

def test_tmse_constant_probs_zero():
    probs = np.tile(np.array([[0.2, 0.3, 0.5]]), (9, 1))
    assert loss.tmse_loss_grad(probs)[0] == 0.0


def test_tmse_clip_arithmetic():
    # one column, log ratio of 10 clipped at 4, then 4^2 / (T*C) = 16 / 2
    probs = np.array([[1.0], [math.exp(-10.0)]])
    assert abs(loss.tmse_loss_grad(probs, tau=4.0)[0] - 8.0) < 1e-9


def test_tmse_single_frame_zero():
    assert loss.tmse_loss_grad(np.array([[0.4, 0.6]]))[0] == 0.0


def test_tmse_matches_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        probs = _rand_probs(rng, int(rng.integers(1, 25)), int(rng.integers(1, 5)))
        tau = float(rng.uniform(0.5, 6.0))
        assert abs(loss.tmse_loss_grad(probs, tau)[0] - oracles.tmse(probs, tau)) < 1e-10


def test_tmse_nonnegative_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs = _rand_probs(rng, 12, 3)
        tau = 4.0
        value = loss.tmse_loss_grad(probs, tau)[0]
        assert 0.0 <= value <= tau * tau


# ---------------------------------------------------------------------------
# confidence

def _peaked_probs(num_frames, num_classes, ts):
    """Columns that decay monotonically while moving away from each timestamp."""
    probs = np.full((num_frames, num_classes), 1e-3)
    for t, c in zip(ts.frames, ts.labels):
        dist = np.abs(np.arange(num_frames) - int(t))
        probs[:, c] = np.maximum(probs[:, c], 0.9 * (0.8**dist))
    return probs


def test_conf_monotone_columns_zero():
    ts = _ts([3, 10, 17], [0, 1, 2])
    probs = _peaked_probs(22, 3, ts)
    assert loss.conf_loss_grad(probs, ts)[0] == 0.0


def test_conf_violation_positive():
    ts = _ts([2, 8], [0, 1])
    probs = _peaked_probs(12, 2, ts)
    probs[5, 0] = probs[4, 0] * 2.0  # bump while moving away from frame 2
    assert loss.conf_loss_grad(probs, ts)[0] > 0.0


def test_conf_single_timestamp_guard():
    ts = _ts([0], [0])
    probs = np.full((6, 2), 0.5)
    assert loss.conf_loss_grad(probs, ts)[0] == 0.0
    ts2 = _ts([3], [0])
    assert math.isfinite(loss.conf_loss_grad(probs, ts2)[0])


def test_conf_matches_oracle_random():
    rng = np.random.default_rng(4)
    for _ in range(40):
        num_frames = int(rng.integers(4, 30))
        num_classes = int(rng.integers(2, 5))
        probs = _rand_probs(rng, num_frames, num_classes)
        count = int(rng.integers(1, min(5, num_frames) + 1))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        classes = rng.integers(0, num_classes, size=count)
        ts = _ts(frames, classes)
        got = loss.conf_loss_grad(probs, ts)[0]
        want = oracles.conf(probs, [int(f) for f in frames], [int(c) for c in classes])
        assert abs(got - want) < 1e-10


def test_conf_timestamp_outside():
    probs = np.full((5, 2), 0.5)
    with pytest.raises(ValueError, match="outside"):
        loss.conf_loss_grad(probs, _ts([7], [0]))


# ---------------------------------------------------------------------------
# total

def test_total_reduces_to_cls():
    rng = np.random.default_rng(5)
    probs = _rand_probs(rng, 10, 3)
    target = rng.integers(0, 3, size=10)
    weights = loss.LossWeights(alpha=0.0, beta=0.0)
    want = loss.cls_loss_grad(probs, target)[0]
    assert abs(loss.total_loss_grad(probs, target, weights=weights)[0] - want) < 1e-12


def test_total_is_weighted_sum():
    rng = np.random.default_rng(6)
    probs = _rand_probs(rng, 14, 3)
    target = rng.integers(0, 3, size=14)
    ts = _ts([2, 7, 12], [0, 1, 2])
    weights = loss.LossWeights(alpha=0.15, beta=0.075, tau=4.0)
    want = (
        loss.cls_loss_grad(probs, target)[0]
        + 0.15 * loss.tmse_loss_grad(probs, 4.0)[0]
        + 0.075 * loss.conf_loss_grad(probs, ts)[0]
    )
    assert abs(loss.total_loss_grad(probs, target, None, ts, weights)[0] - want) < 1e-12


def test_total_without_timestamps_drops_conf():
    rng = np.random.default_rng(7)
    probs = _rand_probs(rng, 8, 2)
    target = rng.integers(0, 2, size=8)
    weights = loss.LossWeights(alpha=0.2, beta=0.5)
    want = loss.cls_loss_grad(probs, target)[0] + 0.2 * loss.tmse_loss_grad(probs, weights.tau)[0]
    assert abs(loss.total_loss_grad(probs, target, weights=weights)[0] - want) < 1e-12


def test_total_empty_mask_zero_when_unweighted():
    probs = np.full((5, 2), 0.5)
    weights = loss.LossWeights(alpha=0.0, beta=0.0)
    value, grad = loss.total_loss_grad(probs, np.zeros(5, dtype=int), set(), None, weights)
    assert value == 0.0
    assert not grad.any()


def test_total_widens_probs_once_for_all_terms(monkeypatch):
    rng = np.random.default_rng(9)
    probs = _rand_probs(rng, 14, 3).astype(np.float32)
    target = rng.integers(0, 3, size=14)
    ts = _ts([2, 7, 12], [0, 1, 2])
    want = loss.total_loss_grad(probs, target, None, ts)
    seen = []
    for name in ("cls_loss_grad", "tmse_loss_grad", "conf_loss_grad"):

        def spy(p, *args, _original=getattr(loss, name)):
            seen.append(p)
            return _original(p, *args)

        monkeypatch.setattr(loss, name, spy)
    value, grad = loss.total_loss_grad(probs, target, None, ts)
    assert value == want[0]
    np.testing.assert_array_equal(grad, want[1])
    assert len(seen) == 3
    assert seen[0].dtype == np.float64
    assert all(p is seen[0] for p in seen)


def test_total_returns_the_gradient_in_the_probs_dtype():
    rng = np.random.default_rng(10)
    probs = _rand_probs(rng, 14, 3).astype(np.float32)
    target = rng.integers(0, 3, size=14)
    ts = _ts([2, 7, 12], [0, 1, 2])
    value, grad = loss.total_loss_grad(probs, target, None, ts)
    wide_value, wide_grad = loss.total_loss_grad(probs.astype(np.float64), target, None, ts)
    assert wide_grad.dtype == np.float64
    assert value == wide_value
    assert grad.dtype == np.float32
    np.testing.assert_array_equal(grad, wide_grad.astype(np.float32))


def test_losses_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        probs = _rand_probs(rng, 16, 4)
        target = rng.integers(0, 4, size=16)
        ts = _ts([3, 9, 14], rng.integers(0, 4, size=3))
        assert loss.cls_loss_grad(probs, target)[0] >= 0.0
        assert loss.tmse_loss_grad(probs)[0] >= 0.0
        assert loss.conf_loss_grad(probs, ts)[0] >= 0.0


def test_weights_validation():
    with pytest.raises(ValueError):
        loss.LossWeights(alpha=-0.1)
    with pytest.raises(ValueError):
        loss.LossWeights(tau=0.0)


# ---------------------------------------------------------------------------
# gradients against central finite differences

def _fd_grad(fn, probs, eps=1e-4):
    grad = np.zeros_like(probs)
    for i in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            up = probs.copy()
            up[i, j] += eps
            down = probs.copy()
            down[i, j] -= eps
            grad[i, j] = (fn(up) - fn(down)) / (2 * eps)
    return grad


def _away_from_kinks(probs, ts, tau, margin=1e-3):
    logs = np.log(np.maximum(probs, 1e-8))
    diff = np.abs(logs[1:] - logs[:-1])
    if np.any(np.abs(diff - tau) < margin):
        return False
    if np.any(probs < 1e-6):
        return False
    if ts is not None:
        frames, classes = ts.frames, ts.labels
        for i in range(len(frames)):
            lo = int(frames[i - 1]) if i > 0 else int(frames[0])
            hi = int(frames[i + 1]) if i < len(frames) - 1 else int(frames[-1])
            c = int(classes[i])
            for t in range(max(lo, 1), hi + 1):
                if abs(logs[t, c] - logs[t - 1, c]) < margin:
                    return False
    return True


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 2000:
        attempts += 1
        num_frames = int(rng.integers(3, 10))
        num_classes = int(rng.integers(2, 5))
        probs = _rand_probs(rng, num_frames, num_classes)
        target = rng.integers(0, num_classes, size=num_frames)
        count = int(rng.integers(1, min(4, num_frames) + 1))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        ts = _ts(frames, rng.integers(0, num_classes, size=count))
        tau = float(rng.uniform(1.0, 5.0))
        if not _away_from_kinks(probs, ts, tau):
            continue
        checked += 1
        cases = [
            (lambda p: loss.cls_loss_grad(p, target)[0], loss.cls_loss_grad(probs, target)[1]),
            (lambda p: loss.tmse_loss_grad(p, tau)[0], loss.tmse_loss_grad(probs, tau)[1]),
            (lambda p: loss.conf_loss_grad(p, ts)[0], loss.conf_loss_grad(probs, ts)[1]),
        ]
        for fn, analytic in cases:
            numeric = _fd_grad(fn, probs)
            err = np.abs(analytic - numeric)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            assert np.max(err / denom) < 1e-3
    assert checked == 50
