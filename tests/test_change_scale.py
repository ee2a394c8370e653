"""Boundary detection on offset features, long windows and non-finite input."""

import tracemalloc

import numpy as np
import pytest

import oracles
from stampseg import change, data

OFFSET = 1e4


def _ts(frames, labels):
    return data.TimestampSet(np.array(frames), np.array(labels))


# ---------------------------------------------------------------------------
# non-finite input

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fb_refuses_non_finite_features(bad):
    feats = np.random.default_rng(0).standard_normal((20, 3))
    feats[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        change.fb_boundaries(feats, _ts([2, 10, 17], [0, 1, 2]), 20)


def test_s2s_refuses_non_finite_features():
    feats = np.zeros((10, 2))
    feats[4, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        change.s2s_boundary(feats, 0, 9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_s2s_prob_refuses_non_finite_probs(bad):
    probs = np.full((10, 3), bad)
    with pytest.raises(ValueError, match="non-finite"):
        change.s2s_boundary_prob(probs, 0, 2, 1, 8)
    probs = np.full((10, 3), 1.0 / 3.0)
    probs[5, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        change.s2s_boundary_prob(probs, 0, 2, 1, 8)


# ---------------------------------------------------------------------------
# features with a large common offset

def test_s2s_offset_matches_oracle_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        num_frames = int(rng.integers(3, 40))
        feats = OFFSET + rng.standard_normal((num_frames, int(rng.integers(1, 6))))
        left = int(rng.integers(0, num_frames - 1))
        right = int(rng.integers(left + 1, num_frames))
        assert change.s2s_boundary(feats, left, right) == oracles.s2s(feats, left, right)


def test_fb_offset_matches_oracle_random():
    rng = np.random.default_rng(103)
    for _ in range(60):
        num_frames = int(rng.integers(6, 45))
        feats = OFFSET + rng.standard_normal((num_frames, int(rng.integers(1, 5))))
        count = int(rng.integers(2, min(6, num_frames) + 1))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        ts = _ts(frames, rng.integers(0, 3, size=count))
        got = change.fb_boundaries(feats, ts, num_frames)
        np.testing.assert_array_equal(got, oracles.fb(feats, [int(f) for f in frames], num_frames))


@pytest.mark.parametrize("value", [OFFSET + 0.5, OFFSET + 0.1, OFFSET + 1.0 / 3.0])
def test_offset_all_equal_rows_tie_to_left(value):
    # OFFSET + 0.1 and OFFSET + 1/3 rows do not average back to themselves.
    feats = np.full((40, 3), value)
    assert change.s2s_boundary(feats, 0, 39) == 0
    assert change.s2s_boundary(feats, 2, 36) == 2
    ts = _ts([2, 15, 31], [0, 1, 0])
    np.testing.assert_array_equal(change.fb_boundaries(feats, ts, 40), [2, 15])


@pytest.mark.parametrize(
    "span_start, cand_lo, cand_hi, span_end",
    [(0, 0, 299, 299), (0, 40, 299, 299), (0, 0, 260, 299), (10, 20, 290, 295)],
)
def test_long_window_matches_oracle_best_split(span_start, cand_lo, cand_hi, span_end):
    # More candidates than one block of _split_energies, so block seams are crossed.
    rng = np.random.default_rng(107)
    feats = OFFSET + rng.standard_normal((300, 5))
    feats[150:] += 0.3
    energies = change._split_energies(feats, span_start, cand_lo, cand_hi, span_end)
    assert len(energies) == cand_hi - cand_lo
    want = oracles.best_split(feats, span_start, cand_lo, cand_hi, span_end)
    assert cand_lo + int(np.argmin(energies)) == want
    # Rounding of |x|^2 - 2 x.m + |m|^2 is amplified by the square root only
    # where a distance is near 0, and such terms are a small part of a sum
    # over 300 frames.
    cuts = sorted({want, cand_lo, cand_hi - 1, *range(cand_lo, cand_hi, 10)})
    np.testing.assert_allclose(
        energies[np.array(cuts) - cand_lo],
        [oracles.split_energy(feats, span_start, cut, span_end) for cut in cuts],
        rtol=1e-9,
    )


# ---------------------------------------------------------------------------
# float32 input

@pytest.mark.parametrize("offset", [0.0, OFFSET])
def test_float32_input_matches_its_float64_widening(offset):
    rng = np.random.default_rng(113)
    for _ in range(60):
        num_frames = int(rng.integers(6, 60))
        dim = int(rng.integers(1, 6))
        feats = (offset + rng.standard_normal((num_frames, dim))).astype(np.float32)
        probs = rng.dirichlet(np.ones(3), size=num_frames).astype(np.float32)
        count = int(rng.integers(2, min(6, num_frames) + 1))
        frames = np.sort(rng.choice(num_frames, size=count, replace=False))
        ts = _ts(frames, rng.integers(0, 3, size=count))
        left, right = int(frames[0]), int(frames[-1])
        wide_feats, wide_probs = feats.astype(np.float64), probs.astype(np.float64)
        np.testing.assert_array_equal(
            change.fb_boundaries(feats, ts, num_frames),
            change.fb_boundaries(wide_feats, ts, num_frames),
        )
        assert change.s2s_boundary(feats, left, right) == (
            change.s2s_boundary(wide_feats, left, right)
        )
        assert change.s2s_boundary_prob(probs, 0, left, 2, right) == (
            change.s2s_boundary_prob(wide_probs, 0, left, 2, right)
        )


def test_split_energies_reads_the_callers_array(monkeypatch):
    # each split widens only its own window; no whole-video float64 copy is made
    feats = np.random.default_rng(127).standard_normal((40, 4)).astype(np.float32)
    ts = _ts([3, 15, 30], [0, 1, 2])
    want = change.fb_boundaries(feats, ts, 40), change.s2s_boundary(feats, 3, 15)
    original = change._split_energies
    seen = []

    def spy(array, *args):
        seen.append(array)
        return original(array, *args)

    monkeypatch.setattr(change, "_split_energies", spy)
    np.testing.assert_array_equal(change.fb_boundaries(feats, ts, 40), want[0])
    assert change.s2s_boundary(feats, 3, 15) == want[1]
    assert len(seen) == 2 * 2 + 1
    assert all(array is feats for array in seen)


# ---------------------------------------------------------------------------
# memory

def test_fb_long_window_memory_bounded():
    # Stamps at 1000 and 3000 give a forward window of 3001 frames and a
    # backward window of 3000, 2000 candidates each. Broadcasting every
    # frame against every candidate mean would take 3001 * 2000 * 64 * 8 bytes
    # (about 3 GB) per array.
    rng = np.random.default_rng(109)
    num_frames = 4000
    feats = rng.standard_normal((num_frames, 64))
    feats[2000:] += 1.0
    ts = _ts([1000, 3000], [0, 1])
    tracemalloc.start()
    try:
        bounds = change.fb_boundaries(feats, ts, num_frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1000 <= bounds[0] < 3000
    assert abs(int(bounds[0]) - 1999) <= 20
    assert peak < 64 * 2**20


def test_split_energies_hold_one_distance_block_at_a_time():
    # a forward-pass window of the long-video shape: 1196 frames of 64 dims,
    # 679 candidates. The float64 window, its prefix and suffix sums take
    # 3 L F values; one (frames x _BLOCK) distance block takes L _BLOCK more.
    frames, dim = 1196, 64
    feats = np.random.default_rng(131).standard_normal((frames, dim)).astype(np.float32)
    args = (0, 516, frames - 1, frames - 1)
    tracemalloc.start()
    try:
        energies = change._split_energies(feats, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(energies) == frames - 1 - 516
    assert peak <= (3 * frames * dim + 1.25 * frames * change._BLOCK) * 8
