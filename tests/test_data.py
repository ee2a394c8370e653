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
    assert vocab.names == ("pour", "stir", "cut")


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


@pytest.mark.parametrize(
    "names, message",
    [((), "^empty vocabulary$"),
     (("a", ""), "^vocabulary contains an empty action name$"),
     (("a", "b", "a"), "^duplicate action name in vocabulary$")],
    ids=["empty", "empty-name", "duplicate"],
)
def test_vocab_refuses_bad_names(names, message):
    with pytest.raises(ValueError, match=message):
        data.ActionVocab(names)


def test_vocab_name_with_spaces(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("0 cut tomato\n1 peel cucumber\n", encoding="utf-8")
    vocab = data.load_vocab(path)
    assert vocab.names == ("cut tomato", "peel cucumber")


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
    assert loaded.dtype == np.float32
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
        assert frames.dtype == np.float32
        assert frames.flags.c_contiguous
        np.testing.assert_array_equal(frames, arr.T)


@pytest.mark.parametrize(
    "dtype, fortran",
    [("<f4", False), ("<f4", True), (">f4", False), ("<f8", False), ("<f8", True),
     ("<f2", False), ("<i8", False), ("<i2", True), ("u1", False)],
)
def test_feature_load_returns_float32(tmp_path, dtype, fortran):
    rng = np.random.default_rng(2)
    arr = (rng.standard_normal((4, 9)) * 50).astype(dtype)  # (D, T) on disk
    if fortran:
        arr = np.asfortranarray(arr)
    path = tmp_path / "x.npy"
    np.save(path, arr)
    frames = data.load_features(path)
    assert frames.dtype == np.float32
    assert frames.flags.c_contiguous
    # rounded once, as the network would round the values itself
    np.testing.assert_array_equal(frames, arr.T.astype(np.float32), strict=True)


def test_feature_fortran_float32_loads_without_a_copy(tmp_path, monkeypatch):
    read = []
    fromfile = np.fromfile

    def spy(*args, **kwargs):
        read.append(fromfile(*args, **kwargs))
        return read[-1]

    monkeypatch.setattr(np, "fromfile", spy)
    frames = np.random.default_rng(3).standard_normal((12, 5))
    data.write_features(frames, tmp_path / "f.npy")
    np.save(tmp_path / "c.npy", np.ascontiguousarray(frames.T, dtype=np.float32))
    as_written = data.load_features(tmp_path / "f.npy")
    c_order = data.load_features(tmp_path / "c.npy")
    np.testing.assert_array_equal(as_written, c_order)
    # the file's frame-major bytes are the array; a C-ordered file is transposed once
    assert np.shares_memory(as_written, read[0])
    assert not np.shares_memory(c_order, read[1])


@pytest.mark.parametrize("value", [1e300, -1e39])
def test_feature_float32_overflow_located(tmp_path, value):
    arr = np.ones((2, 3))  # float64 (D, T) on disk
    arr[1, 2] = value
    path = tmp_path / "x.npy"
    np.save(path, arr)
    with _refused(path, "value outside the float32 range at frame 2, dim 1$"):
        data.load_features(path)


@pytest.mark.parametrize("value", [1e300, -1e39, np.nan, np.inf])
def test_write_features_refuses_what_it_cannot_store(tmp_path, value):
    frames = np.ones((3, 2))
    frames[2, 1] = value
    path = tmp_path / "x.npy"
    with pytest.raises(ValueError, match="non-finite features or values outside the float32"):
        data.write_features(frames, path)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(5,), (0, 3), (3, 0), (2, 2, 2)])
def test_write_features_refuses_a_non_2d_array(tmp_path, shape):
    path = tmp_path / "x.npy"
    with pytest.raises(ValueError, match=r"^features must be a \(T, D\) array with T, D >= 1$"):
        data.write_features(np.ones(shape), path)
    assert not path.exists()


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
    "version-4": (
        lambda tmp: b"\x93NUMPY\x04\x00" + _GOOD[8:], r"unknown \.npy format version 4$"
    ),
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
    with pytest.raises(ValueError, match="^frames and labels must be 1-D arrays of equal length$"):
        data.TimestampSet(np.array([1, 3]), np.array([0, 1, 0]))


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


@pytest.mark.parametrize(
    "over, match",
    [({"videos": 0}, "^videos must be >= 1$"),
     ({"dim": 0}, "^dim must be >= 1$"),
     ({"noise": -0.1}, "^noise must be finite and >= 0$"),
     ({"noise": float("nan")}, "^noise must be finite and >= 0$"),
     ({"segment_range": (0, 3)}, r"^invalid segment-count range \(0, 3\)$"),
     ({"segment_range": (5, 4)}, r"^invalid segment-count range \(5, 4\)$"),
     ({"mean_frames": 19}, "^mean_frames too small for the segment-count range$")],
    ids=["videos", "dim", "noise", "noise-nan", "segments-zero", "segments-reversed",
         "mean-frames"],
)
def test_synthetic_spec_refuses_bad_settings(over, match):
    spec = {"videos": 1, "num_classes": 2, "mean_frames": 50, "dim": 3, "noise": 0.1,
            "segment_range": (4, 10), **over}
    with pytest.raises(ValueError, match=match):
        data.SyntheticSpec(**spec)


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
    assert test[0].num_frames == 30
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


def _small_corpus(root):
    """Two 20-frame videos, v0 (train, stamped at frames 3 and 12) and v1 (test)."""
    vocab = data.ActionVocab(("a", "b"))
    rng = np.random.default_rng(9)
    labels = np.repeat([0, 1], 10)
    videos = [(f"v{i}", rng.standard_normal((20, 4)), labels) for i in range(2)]
    data.write_corpus(root, vocab, videos, ["v0"], ["v1"])
    (root / "timestamps").mkdir()
    stamps = data.TimestampSet(np.array([3, 12]), np.array([0, 1]))
    data.write_timestamps(stamps, vocab, root / "timestamps" / "v0.txt")
    return root


def test_corpus_skips_blank_bundle_lines(tmp_path):
    root = _small_corpus(tmp_path)
    (root / "splits" / "train.bundle").write_text("v0\n\n  \nv1.txt\n", encoding="utf-8")
    _, records = data.load_corpus(root, "train")
    assert [r.name for r in records] == ["v0", "v1"]


@pytest.mark.parametrize(
    "file, text, message",
    [
        ("mapping.txt", "0 a\n1\n", r"line 2: expected '<index> <name>', got '1'$"),
        ("mapping.txt", "0 a\n1.0 b\n", r"line 2: malformed <index> '1\.0'$"),
        ("timestamps/v0.txt", "3 a\n12\n", r"line 2: expected '<frame> <name>', got '12'$"),
        ("timestamps/v0.txt", "3 a\nx12 b\n", r"line 2: malformed <frame> 'x12'$"),
        ("timestamps/v0.txt", "3 a\n12 z\n", r"line 2: unknown action name 'z'$"),
        ("timestamps/v0.txt", "", "empty timestamp file$"),
        ("groundTruth/v0.txt", "a\n" * 19, "19 labels for 20 feature frames$"),
        ("splits/train.bundle", "\n  \n", "empty split bundle$"),
    ],
    ids=["mapping-no-name", "mapping-number", "stamps-no-name", "stamps-number", "stamps-name",
         "stamps-empty", "labels-count", "bundle-empty"],
)
def test_corpus_refuses_a_bad_text_file(tmp_path, file, text, message):
    root = _small_corpus(tmp_path)
    path = root / file
    path.write_text(text, encoding="utf-8")
    with _refused(path, message):
        data.load_corpus(root, "train")
