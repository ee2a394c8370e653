import io
import re

import numpy as np
import pytest

import oracles
from stampseg import change, data


# ---------------------------------------------------------------------------
# vocabulary

def test_load_vocab_roundtrip(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("0 pour\n1 stir\n2 cut\n", encoding="utf-8")
    vocab = data.load_vocab(path)
    assert vocab.num_classes == 3
    assert vocab.entries == [(0, "pour"), (1, "stir"), (2, "cut")]
    assert vocab.index_of("stir") == 1
    assert vocab.name_of(2) == "cut"


def test_load_vocab_out_of_order(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("1 stir\n0 pour\n", encoding="utf-8")
    vocab = data.load_vocab(path)
    assert vocab.names == ("pour", "stir")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty vocabulary"),
        ("0 pour\n2 cut\n", "gap"),
        ("0 pour\n0 cut\n", "duplicate class index"),
        ("0 pour\n1 pour\n", "duplicate action name"),
        ("x pour\n", "malformed"),
        ("0\n", "expected"),
    ],
)
def test_load_vocab_errors(tmp_path, text, fragment):
    path = tmp_path / "mapping.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=fragment):
        data.load_vocab(path)


def test_load_vocab_error_reports_line(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("0 pour\nbogus\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        data.load_vocab(path)


def test_vocab_name_with_spaces(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("0 cut tomato\n1 peel cucumber\n", encoding="utf-8")
    vocab = data.load_vocab(path)
    assert vocab.name_of(0) == "cut tomato"


# ---------------------------------------------------------------------------
# features

def test_feature_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((17, 5))
    path = tmp_path / "x.feat"
    data.write_features(frames, path)
    assert [p.name for p in tmp_path.iterdir()] == ["x.feat"]
    assert np.load(path).shape == (5, 17)
    loaded = data.load_features(path)
    assert loaded.shape == (17, 5)
    assert loaded.dtype == np.float64
    np.testing.assert_allclose(loaded, frames, atol=1e-6)


def _refused(path, message):
    """pytest.raises for a ValueError whose message is '<path>: <message>'."""
    return pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}")


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "x.npy"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with _refused(path, r"not a \.npy file \(.*magic"):
        data.load_features(path)


def test_feature_truncated(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "x.npy"
    data.write_features(rng.standard_normal((4, 3)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with _refused(path, "truncated payload, expected 48 bytes, found 40$"):
        data.load_features(path)


def test_feature_nonfinite_located(tmp_path):
    arr = np.ones((2, 3), dtype=np.float32)  # (D, T) on disk
    arr[1, 2] = np.inf
    path = tmp_path / "x.npy"
    np.save(path, arr)
    with _refused(path, "non-finite value at frame 2, dim 1$"):
        data.load_features(path)


def test_feature_npy_transposed(tmp_path):
    # real corpora store each video as a C-ordered (D, T) float32 array
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((6, 30)).astype(np.float32)  # (D, T) on disk
    path = tmp_path / "x.npy"
    np.save(path, arr)
    loaded = data.load_features(path)
    data.write_features(arr.T, tmp_path / "written.npy")
    written = data.load_features(tmp_path / "written.npy")
    for frames in (loaded, written):
        assert frames.shape == (30, 6)
        assert frames.dtype == np.float64
        assert frames.flags.c_contiguous
        np.testing.assert_array_equal(frames, arr.T.astype(np.float64))


@pytest.mark.parametrize("shape", [(5, 0), (0, 7)])
def test_feature_npy_refuses_empty(tmp_path, shape):
    path = tmp_path / "x.npy"
    np.save(path, np.zeros(shape, dtype=np.float32))
    with _refused(path, "invalid shape"):
        data.load_features(path)


def _npy(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _npy_header(shape, descr):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    return buf.getvalue()


def _npz(path):
    np.savez(path, x=np.ones((2, 3), dtype=np.float32))
    return path.read_bytes()


_GOOD = _npy(np.ones((2, 3), dtype=np.float32))

# every refusal of load_features not covered by the tests above:
# name -> (bytes of the file given a scratch path, message after "<path>: ")
REFUSED_FEATURES = {
    "empty": (lambda tmp: b"", r"not a \.npy file"),
    "npz": (lambda tmp: _npz(tmp / "a.npz"), r"not a \.npy file"),
    "truncated-header": (lambda tmp: _GOOD[:20], r"truncated or malformed \.npy header"),
    "huge-shape": (
        lambda tmp: _npy_header((10**6, 10**6), "<f4") + bytes(24),
        "truncated payload, expected 4000000000000 bytes, found 24$",
    ),
    "trailing": (lambda tmp: _GOOD + bytes(3), "3 unexpected trailing bytes$"),
    "pickled": (lambda tmp: _npy_header((2, 1), "|O") + bytes(16), "pickled data refused$"),
    "complex": (lambda tmp: _npy(np.ones((2, 3), complex)), "dtype complex128 is not a real"),
    "bool": (lambda tmp: _npy(np.ones((2, 3), bool)), "dtype bool is not a real"),
    "text": (lambda tmp: _npy(np.array([["a", "b"]])), "dtype <U1 is not a real"),
    "1d": (lambda tmp: _npy(np.ones(4, np.float32)), r"invalid shape \(4,\)"),
    "3d": (lambda tmp: _npy(np.ones((1, 2, 3))), r"invalid shape \(1, 2, 3\)"),
}


@pytest.mark.parametrize("case", list(REFUSED_FEATURES))
def test_feature_file_refused(tmp_path, case):
    make, message = REFUSED_FEATURES[case]
    path = tmp_path / "v.npy"
    path.write_bytes(make(tmp_path))
    with _refused(path, message):
        data.load_features(path)


# ---------------------------------------------------------------------------
# labels

def test_labels_roundtrip(tmp_path):
    vocab = data.ActionVocab(("a", "b", "c"))
    labels = np.array([0, 0, 2, 1, 1])
    path = tmp_path / "v.txt"
    data.write_labels(labels, vocab, path)
    assert path.read_text() == "a\na\nc\nb\nb\n"
    np.testing.assert_array_equal(data.load_labels(path, vocab), labels)


def test_labels_unknown_name(tmp_path):
    vocab = data.ActionVocab(("a",))
    path = tmp_path / "v.txt"
    path.write_text("a\nz\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2.*unknown"):
        data.load_labels(path, vocab)


def test_labels_empty_file(tmp_path):
    vocab = data.ActionVocab(("a",))
    path = tmp_path / "v.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty label file"):
        data.load_labels(path, vocab)


# ---------------------------------------------------------------------------
# timestamps on disk

def test_timestamps_roundtrip(tmp_path):
    vocab = data.ActionVocab(("a", "b"))
    ts = data.TimestampSet(np.array([2, 9, 14]), np.array([0, 1, 0]))
    path = tmp_path / "t.txt"
    data.write_timestamps(ts, vocab, path)
    assert path.read_text() == "2 a\n9 b\n14 a\n"
    loaded = data.load_timestamps(path, vocab, num_frames=20)
    np.testing.assert_array_equal(loaded.frames, ts.frames)
    np.testing.assert_array_equal(loaded.labels, ts.labels)


def test_timestamps_must_ascend(tmp_path):
    vocab = data.ActionVocab(("a", "b"))
    path = tmp_path / "t.txt"
    path.write_text("9 a\n2 b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="strictly increasing"):
        data.load_timestamps(path, vocab)


def test_timestamps_outside_video(tmp_path):
    vocab = data.ActionVocab(("a",))
    path = tmp_path / "t.txt"
    path.write_text("30 a\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outside"):
        data.load_timestamps(path, vocab, num_frames=20)


def test_range_rule_lives_in_timestamp_set():
    ts = data.TimestampSet(np.array([2, 9]), np.array([0, 1]))
    ts.check_within(10)
    with pytest.raises(ValueError, match="^timestamp frame 9 outside video of 9 frames$"):
        ts.check_within(9)
    # the boundary helpers refuse through it too
    with pytest.raises(ValueError, match="outside"):
        change.uniform_boundaries(ts, 9)
    with pytest.raises(ValueError, match="outside"):
        change.labels_from_boundaries(ts, np.array([5]), 9)


def test_timestamp_set_validation():
    with pytest.raises(ValueError):
        data.TimestampSet(np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        data.TimestampSet(np.array([3, 3]), np.array([0, 1]))
    with pytest.raises(ValueError):
        data.TimestampSet(np.array([-1, 3]), np.array([0, 1]))


# ---------------------------------------------------------------------------
# segments

def test_segments_simple():
    labels = np.array([0, 0, 1, 1, 1])
    assert data.segments_from_labels(labels) == [(0, 0, 2), (1, 2, 5)]


def test_segments_single_frame():
    assert data.segments_from_labels(np.array([7])) == [(7, 0, 1)]


def test_segments_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        labels = oracles.random_labels(rng, int(rng.integers(1, 60)), 4)
        segs = data.segments_from_labels(labels)
        np.testing.assert_array_equal(oracles.expand_segments(segs), labels)
        # run-length encoding never emits touching segments of equal class
        for (c1, _, e1), (c2, s2, _) in zip(segs, segs[1:]):
            assert c1 != c2 and e1 == s2


# ---------------------------------------------------------------------------
# samplers

def test_sample_center():
    labels = np.array([0, 0, 1, 1, 1])
    ts = data.sample_timestamps(labels, "center", seed=3)
    np.testing.assert_array_equal(ts.frames, [0, 3])
    np.testing.assert_array_equal(ts.labels, [0, 1])


def test_sample_center_ignores_seed():
    labels = np.array([0, 0, 0, 2, 2, 1])
    a = data.sample_timestamps(labels, "center", seed=1)
    b = data.sample_timestamps(labels, "center", seed=99)
    np.testing.assert_array_equal(a.frames, b.frames)


def test_sample_start():
    labels = np.array([3, 3, 0, 0, 0, 3])
    ts = data.sample_timestamps(labels, "start")
    np.testing.assert_array_equal(ts.frames, [0, 2, 5])
    np.testing.assert_array_equal(ts.labels, [3, 0, 3])


def test_sample_random_membership():
    rng = np.random.default_rng(11)
    for trial in range(30):
        labels = oracles.random_labels(rng, int(rng.integers(5, 80)), 5)
        ts = data.sample_timestamps(labels, "random", seed=trial)
        segs = data.segments_from_labels(labels)
        assert len(ts) == len(segs)
        for (cls, start, end), t, c in zip(segs, ts.frames, ts.labels):
            assert start <= t < end
            assert c == cls == labels[t]
        assert np.all(np.diff(ts.frames) > 0)


def test_sample_random_deterministic():
    labels = oracles.random_labels(np.random.default_rng(0), 90, 4)
    a = data.sample_timestamps(labels, "random", seed=5)
    b = data.sample_timestamps(labels, "random", seed=5)
    np.testing.assert_array_equal(a.frames, b.frames)


def test_sample_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        data.sample_timestamps(np.array([0, 1]), "middle")


def test_fraction_count_300():
    labels = oracles.random_labels(np.random.default_rng(2), 300, 5)
    ts = data.sample_timestamps_fraction(labels, 0.1, seed=4)
    assert len(ts) == 30
    assert np.all(np.diff(ts.frames) > 0)
    np.testing.assert_array_equal(ts.labels, labels[ts.frames])


def test_fraction_count_tiny():
    labels = oracles.random_labels(np.random.default_rng(2), 100, 3)
    ts = data.sample_timestamps_fraction(labels, 0.01, seed=4)
    assert len(ts) == 1


def test_fraction_full_equals_gt():
    labels = oracles.random_labels(np.random.default_rng(3), 40, 3)
    ts = data.sample_timestamps_fraction(labels, 1.0, seed=0)
    np.testing.assert_array_equal(ts.frames, np.arange(40))
    np.testing.assert_array_equal(ts.labels, labels)


def test_fraction_ceil_property():
    import math

    rng = np.random.default_rng(9)
    for _ in range(30):
        num_frames = int(rng.integers(1, 200))
        labels = oracles.random_labels(rng, num_frames, 3)
        fraction = float(rng.uniform(0.01, 1.0))
        ts = data.sample_timestamps_fraction(labels, fraction, seed=1)
        assert len(ts) == max(1, min(num_frames, math.ceil(fraction * num_frames - 1e-9)))


def test_fraction_invalid():
    with pytest.raises(ValueError, match="fraction"):
        data.sample_timestamps_fraction(np.array([0, 1]), 0.0)
    with pytest.raises(ValueError, match="fraction"):
        data.sample_timestamps_fraction(np.array([0, 1]), 1.5)


# ---------------------------------------------------------------------------
# synthetic corpora

def test_synthetic_exact_means_at_zero_noise():
    spec = data.SyntheticSpec(videos=3, num_classes=4, mean_frames=60, dim=6, noise=0.0)
    pairs = data.generate_synthetic(spec, seed=5)
    assert len(pairs) == 3
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((4, 6))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    for feats, labels in pairs:
        assert feats.shape[0] == len(labels)
        np.testing.assert_array_equal(feats, means[labels])
        segs = data.segments_from_labels(labels)
        for (c1, _, _), (c2, _, _) in zip(segs, segs[1:]):
            assert c1 != c2


def test_synthetic_nearest_centroid_recovers_labels():
    spec = data.SyntheticSpec(videos=5, num_classes=5, mean_frames=200, dim=12, noise=0.1)
    pairs = data.generate_synthetic(spec, seed=13)
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((5, 12))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    total = hits = 0
    for feats, labels in pairs:
        guess = oracles.nearest_centroid(feats, means)
        hits += int(np.sum(guess == labels))
        total += len(labels)
    assert hits / total >= 0.99


def test_synthetic_deterministic():
    spec = data.SyntheticSpec(videos=4, num_classes=3, mean_frames=80, dim=5, noise=0.3)
    a = data.generate_synthetic(spec, seed=21)
    b = data.generate_synthetic(spec, seed=21)
    for (fa, la), (fb, lb) in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(la, lb)


def test_synthetic_segment_counts_in_range():
    spec = data.SyntheticSpec(
        videos=10, num_classes=4, mean_frames=120, dim=4, noise=0.2, segment_range=(3, 7)
    )
    for _, labels in data.generate_synthetic(spec, seed=2):
        count = len(data.segments_from_labels(labels))
        assert 3 <= count <= 7


def test_synthetic_rejects_single_class():
    with pytest.raises(ValueError, match="adjacent"):
        data.SyntheticSpec(videos=1, num_classes=1, mean_frames=50, dim=3, noise=0.1)


# ---------------------------------------------------------------------------
# corpus directories

def test_corpus_roundtrip(tmp_path):
    vocab = data.ActionVocab(("a", "b", "c"))
    rng = np.random.default_rng(4)
    videos = []
    for i in range(4):
        labels = oracles.random_labels(rng, 30, 3)
        videos.append((f"v{i}", rng.standard_normal((30, 5)), labels))
    data.write_corpus(tmp_path, vocab, videos, ["v0", "v1", "v2"], ["v3"])
    vocab2, train = data.load_corpus(tmp_path, "train")
    assert vocab2.names == vocab.names
    assert [r.name for r in train] == ["v0", "v1", "v2"]
    _, test = data.load_corpus(tmp_path, "test")
    assert [r.name for r in test] == ["v3"]
    np.testing.assert_array_equal(test[0].labels, videos[3][2])
    np.testing.assert_allclose(test[0].features, videos[3][1], atol=1e-6)
    assert test[0].timestamps is None


def test_corpus_reads_npy_and_bundle_txt_suffix(tmp_path):
    vocab = data.ActionVocab(("a", "b"))
    rng = np.random.default_rng(6)
    labels = oracles.random_labels(rng, 25, 2)
    (tmp_path / "features").mkdir()
    (tmp_path / "groundTruth").mkdir()
    (tmp_path / "splits").mkdir()
    data.write_vocab(vocab, tmp_path / "mapping.txt")
    np.save(tmp_path / "features" / "clip.npy", rng.standard_normal((5, 25)))
    data.write_labels(labels, vocab, tmp_path / "groundTruth" / "clip.txt")
    (tmp_path / "splits" / "train.bundle").write_text("clip.txt\n")
    _, records = data.load_corpus(tmp_path, "train")
    assert records[0].name == "clip"
    assert records[0].features.shape == (25, 5)


def test_corpus_missing_split(tmp_path):
    vocab = data.ActionVocab(("a",))
    (tmp_path / "splits").mkdir(parents=True)
    data.write_vocab(vocab, tmp_path / "mapping.txt")
    with pytest.raises(ValueError, match="split bundle"):
        data.load_corpus(tmp_path, "train")
