import numpy as np
import pytest

import oracles
from stampseg import change, data


def _ts(frames, labels):
    return data.TimestampSet(np.array(frames), np.array(labels))


# ---------------------------------------------------------------------------
# stamp-to-stamp on features

def test_s2s_separable_recovers_change():
    feats = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    assert change.s2s_boundary(feats, 0, 5) == 2


def test_s2s_all_equal_rows_ties_to_left():
    feats = np.full((8, 3), 0.5)
    assert change.s2s_boundary(feats, 0, 7) == 0
    assert change.s2s_boundary(feats, 2, 6) == 2


def test_s2s_invalid_range():
    feats = np.zeros((5, 2))
    with pytest.raises(ValueError):
        change.s2s_boundary(feats, 3, 3)
    with pytest.raises(ValueError):
        change.s2s_boundary(feats, 0, 5)
    with pytest.raises(ValueError, match=r"^features must be a \(T, F\) array with T >= 1$"):
        change.s2s_boundary(np.zeros(5), 0, 3)
    with pytest.raises(ValueError, match=r"^probs must be a \(T, C\) array$"):
        change.s2s_boundary_prob(np.zeros(5), 0, 0, 1, 3)
    with pytest.raises(ValueError, match="^features have 5 frames, expected 6$"):
        change.fb_boundaries(feats, _ts([0, 3], [0, 1]), 6)


def test_s2s_matches_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        num_frames = int(rng.integers(3, 40))
        feats = rng.standard_normal((num_frames, int(rng.integers(1, 6))))
        left = int(rng.integers(0, num_frames - 1))
        right = int(rng.integers(left + 1, num_frames))
        assert change.s2s_boundary(feats, left, right) == oracles.s2s(feats, left, right)


def test_s2s_feature_permutation_invariant():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((30, 8))
    perm = rng.permutation(8)
    assert change.s2s_boundary(feats, 2, 25) == change.s2s_boundary(feats[:, perm], 2, 25)


# ---------------------------------------------------------------------------
# stamp-to-stamp on probabilities

def test_s2s_prob_uniform_ties_to_left():
    probs = np.full((10, 4), 0.25)
    assert change.s2s_boundary_prob(probs, 0, 0, 1, 9) == 0


def test_s2s_prob_separable():
    probs = np.zeros((6, 2))
    probs[:3, 0] = 1.0
    probs[3:, 1] = 1.0
    assert change.s2s_boundary_prob(probs, 0, 0, 1, 5) == 2


def test_s2s_prob_matches_oracle_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        num_frames = int(rng.integers(3, 40))
        num_classes = int(rng.integers(2, 5))
        logits = rng.standard_normal((num_frames, num_classes))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        left = int(rng.integers(0, num_frames - 1))
        right = int(rng.integers(left + 1, num_frames))
        c_l = int(rng.integers(num_classes))
        c_r = int(rng.integers(num_classes))
        assert change.s2s_boundary_prob(probs, c_l, left, c_r, right) == oracles.s2s_prob(
            probs, c_l, left, c_r, right
        )


def test_s2s_prob_class_out_of_range():
    probs = np.full((5, 2), 0.5)
    with pytest.raises(ValueError, match="class"):
        change.s2s_boundary_prob(probs, 2, 0, 0, 4)


# ---------------------------------------------------------------------------
# forward-backward

def test_fb_symmetric_two_stamps():
    feats = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    ts = _ts([0, 5], [0, 1])
    np.testing.assert_array_equal(change.fb_boundaries(feats, ts, 6), [2])


def test_fb_all_equal_returns_timestamps():
    feats = np.full((12, 2), 1.0)
    ts = _ts([2, 5, 9], [0, 1, 0])
    np.testing.assert_array_equal(change.fb_boundaries(feats, ts, 12), [2, 5])


def test_fb_single_timestamp_empty():
    feats = np.zeros((5, 2))
    ts = _ts([3], [0])
    assert len(change.fb_boundaries(feats, ts, 5)) == 0


def test_fb_matches_oracle_random():
    rng = np.random.default_rng(23)
    for _ in range(60):
        num_frames = int(rng.integers(6, 45))
        feats = rng.standard_normal((num_frames, int(rng.integers(1, 5))))
        count = int(rng.integers(2, min(6, num_frames) + 1))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        ts = _ts(frames, rng.integers(0, 3, size=count))
        got = change.fb_boundaries(feats, ts, num_frames)
        np.testing.assert_array_equal(got, oracles.fb(feats, [int(f) for f in frames], num_frames))


def test_fb_boundaries_in_range_property():
    rng = np.random.default_rng(31)
    for _ in range(40):
        num_frames = int(rng.integers(8, 60))
        feats = rng.standard_normal((num_frames, 4))
        count = int(rng.integers(2, 7))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        ts = _ts(frames, rng.integers(0, 4, size=count))
        bounds = change.fb_boundaries(feats, ts, num_frames)
        assert np.all(bounds >= frames[:-1])
        assert np.all(bounds < frames[1:])
        assert np.all(np.diff(bounds) > 0)


def test_fb_recovers_exact_changes_on_separable_features():
    spec = data.SyntheticSpec(videos=4, num_classes=4, mean_frames=100, dim=6, noise=0.0)
    for feats, labels in data.generate_synthetic(spec, seed=3):
        ts = data.sample_timestamps(labels, "random", seed=8)
        bounds = change.fb_boundaries(feats, ts, len(labels))
        segs = data.segments_from_labels(labels)
        true_bounds = [end - 1 for _, _, end in segs[:-1]]
        np.testing.assert_array_equal(bounds, true_bounds)
        np.testing.assert_array_equal(
            change.labels_from_boundaries(ts, bounds, len(labels)), labels
        )


def test_fb_feature_permutation_invariant():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((40, 6))
    ts = _ts([3, 17, 33], [0, 1, 2])
    perm = rng.permutation(6)
    np.testing.assert_array_equal(
        change.fb_boundaries(feats, ts, 40), change.fb_boundaries(feats[:, perm], ts, 40)
    )


def test_fb_timestamp_outside_video():
    feats = np.zeros((10, 2))
    ts = _ts([2, 12], [0, 1])
    with pytest.raises(ValueError, match="outside"):
        change.fb_boundaries(feats, ts, 10)


# ---------------------------------------------------------------------------
# split energies

def _triu_split_energies(feats, span_start, cand_lo, cand_hi, span_end):
    """``change._split_energies`` written with np.triu, np.tril, .sum and .mean."""
    window = feats[span_start : span_end + 1].astype(np.float64)
    window -= window.mean(axis=0)
    num = window.shape[0]
    sq = np.einsum("ij,ij->i", window, window)
    prefix = np.cumsum(window, axis=0)
    suffix = np.cumsum(window[::-1], axis=0)[::-1]
    blocks = []
    for lo in range(cand_lo - span_start, cand_hi - span_start, change._BLOCK):
        hi = min(lo + change._BLOCK, cand_hi - span_start)
        splits = np.arange(lo, hi)
        means_l = prefix[lo:hi] / (splits + 1)[:, None]
        dist = change._cluster_distances(window[:hi], sq[:hi], means_l)
        energy = dist[:lo].sum(axis=0) + np.triu(dist[lo:]).sum(axis=0)
        means_r = suffix[lo + 1 : hi + 1] / (num - 1 - splits)[:, None]
        dist = change._cluster_distances(window[lo + 1 :], sq[lo + 1 :], means_r)
        energy += np.tril(dist[: hi - lo]).sum(axis=0) + dist[hi - lo :].sum(axis=0)
        blocks.append(energy)
    return np.concatenate(blocks)


@pytest.mark.parametrize("candidates", [1, 255, 256, 257, 600, "random"])
def test_split_energies_bit_equal_to_triangular_masks(candidates):
    # candidate counts around one block (256) and over two; the random windows
    # put the candidates anywhere inside a span, in float32 and float64
    rng = np.random.default_rng(23)
    for trial in range(40 if candidates == "random" else 4):
        dim = int(rng.integers(1, 12))
        count = int(rng.integers(1, 80)) if candidates == "random" else candidates
        before, after = (int(n) for n in rng.integers(0, 30, size=2))
        num_frames = before + count + 1 + after
        feats = 5.0 * rng.standard_normal(dim) + rng.standard_normal((num_frames, dim))
        feats = feats.astype((np.float32, np.float64)[trial % 2])
        args = (0, before, before + count, num_frames - 1)
        got = change._split_energies(feats, *args)
        want = _triu_split_energies(feats, *args)
        assert len(got) == count and got.tobytes() == want.tobytes(), (candidates, trial)


@pytest.mark.parametrize("candidates", [1, 256, 600])
def test_split_energies_of_equal_rows_bit_equal_to_triangular_masks(candidates):
    # equal dyadic rows centre to exact zeros, so every distance is 0.0 and the
    # masks decide each energy's sign of zero alone
    rng = np.random.default_rng(29)
    for trial, row in enumerate([(0.0,), (3.0, -2.5), (-0.75, 1024.0, 0.125)]):
        before, after = (int(n) for n in rng.integers(0, 30, size=2))
        num_frames = before + candidates + 1 + after
        feats = np.tile(np.array(row), (num_frames, 1)).astype((np.float32, np.float64)[trial % 2])
        args = (0, before, before + candidates, num_frames - 1)
        got = change._split_energies(feats, *args)
        assert got.tobytes() == _triu_split_energies(feats, *args).tobytes(), (candidates, trial)
        assert got.tobytes() == np.zeros(candidates).tobytes()


def test_uniform_midpoints():
    ts = _ts([2, 8], [0, 1])
    np.testing.assert_array_equal(change.uniform_boundaries(ts, 10), [5])


def test_uniform_adjacent_frames():
    ts = _ts([3, 4], [0, 1])
    np.testing.assert_array_equal(change.uniform_boundaries(ts, 6), [3])


def test_uniform_single_timestamp():
    ts = _ts([3], [1])
    assert len(change.uniform_boundaries(ts, 6)) == 0


def test_labels_from_boundaries_basic():
    ts = _ts([1, 5, 9], [2, 0, 1])
    labels = change.labels_from_boundaries(ts, np.array([3, 7]), 12)
    np.testing.assert_array_equal(labels, [2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 1, 1])


def test_labels_from_boundaries_single_timestamp():
    ts = _ts([4], [3])
    labels = change.labels_from_boundaries(ts, np.empty(0, dtype=int), 7)
    np.testing.assert_array_equal(labels, np.full(7, 3))


def test_labels_from_boundaries_validates_order():
    ts = _ts([1, 5], [0, 1])
    with pytest.raises(ValueError, match="ordering"):
        change.labels_from_boundaries(ts, np.array([5]), 8)
    with pytest.raises(ValueError, match="ordering"):
        change.labels_from_boundaries(ts, np.array([0]), 8)
    with pytest.raises(ValueError, match="boundaries"):
        change.labels_from_boundaries(ts, np.array([2, 3]), 8)


def test_labels_from_boundaries_covers_timestamps_property():
    rng = np.random.default_rng(6)
    for _ in range(40):
        num_frames = int(rng.integers(6, 50))
        count = int(rng.integers(1, 6))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        classes = rng.integers(0, 5, size=count)
        ts = _ts(frames, classes)
        if count > 1:
            bounds = np.array(
                [int(rng.integers(frames[i], frames[i + 1])) for i in range(count - 1)]
            )
        else:
            bounds = np.empty(0, dtype=int)
        labels = change.labels_from_boundaries(ts, bounds, num_frames)
        assert len(labels) == num_frames
        np.testing.assert_array_equal(labels[frames], classes)
        # label changes happen only right after a boundary
        changes = np.flatnonzero(np.diff(labels))
        assert set(changes.tolist()) <= set(bounds.tolist())

