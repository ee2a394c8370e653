"""Dataset handling: vocabularies, on-disk formats, annotation sampling, synthetic corpora.

File formats
------------
features    numpy ``.npy``, one (D, T) array per video (feature dimension by
            frame count), the MS-TCN layout real corpora ship; written as
            float32, read from any real dtype into float32, the network's
            dtype (``load_features`` lists refusals).
labels      text, one action name per line; line t holds the label of frame t.
vocabulary  text, lines ``<index> <name>`` covering indices 0..C-1 exactly once.
timestamps  text, lines ``<frame> <name>`` with strictly ascending frame indices.

All text files are UTF-8 with LF line endings; a reader refuses one that is
not UTF-8, naming it. Frame indices are 0-based everywhere, in memory and on
disk.
"""

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLING_STRATEGIES = ("random", "center", "start")


@dataclass(frozen=True)
class ActionVocab:
    """Ordered action names; the class index of a name is its position."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("empty vocabulary")
        if any(not n for n in self.names):
            raise ValueError("vocabulary contains an empty action name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate action name in vocabulary")

    @property
    def num_classes(self) -> int:
        return len(self.names)


@dataclass
class TimestampSet:
    """Sparse frame annotations: frames[i] is annotated with class labels[i]."""

    frames: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.frames.ndim != 1 or self.frames.shape != self.labels.shape:
            raise ValueError("frames and labels must be 1-D arrays of equal length")
        if len(self.frames) == 0:
            raise ValueError("timestamp set must contain at least one entry")
        if self.frames[0] < 0:
            raise ValueError("negative frame index in timestamp set")
        if np.any(np.diff(self.frames) <= 0):
            raise ValueError("timestamp frames must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)

    def check_within(self, num_frames: int) -> None:
        """Refuse the set unless every frame indexes a frame of a num_frames-long video."""
        if self.frames[-1] >= num_frames:
            raise ValueError(
                f"timestamp frame {int(self.frames[-1])} outside video of {num_frames} frames"
            )


@dataclass
class VideoRecord:
    """One video of a corpus; labels and timestamps are optional."""

    name: str
    features: np.ndarray
    labels: np.ndarray | None = None
    timestamps: TimestampSet | None = None

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; a file that is not UTF-8 is refused by name."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


def _numbered_lines(path, number: str) -> list[tuple[int, int, str]]:
    """Each ``<number> <name>`` line as (line number, number, name).

    A refusal names the path, the line and the offending text.
    """
    rows = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        token, sep, name = line.partition(" ")
        if not sep or not name:
            raise ValueError(f"{path}: line {lineno}: expected '<{number}> <name>', got {line!r}")
        try:
            rows.append((lineno, int(token), name))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed <{number}> {token!r}") from None
    return rows


def _class_indices(path, vocab: ActionVocab, named_lines) -> np.ndarray:
    """The class of each (line number, action name) of ``path``, refusing unknown names by line."""
    index = {name: i for i, name in enumerate(vocab.names)}
    out = []
    for lineno, name in named_lines:
        if name not in index:
            raise ValueError(f"{path}: line {lineno}: unknown action name {name!r}")
        out.append(index[name])
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# vocabulary

def load_vocab(path) -> ActionVocab:
    by_index: dict[int, str] = {}
    seen_names: set[str] = set()
    for lineno, idx, name in _numbered_lines(path, "index"):
        if idx in by_index:
            raise ValueError(f"{path}: line {lineno}: duplicate class index {idx}")
        if name in seen_names:
            raise ValueError(f"{path}: line {lineno}: duplicate action name {name!r}")
        by_index[idx] = name
        seen_names.add(name)
    if not by_index:
        raise ValueError(f"{path}: empty vocabulary")
    count = len(by_index)
    if sorted(by_index) != list(range(count)):
        raise ValueError(f"{path}: gap in class indices, expected 0..{count - 1}")
    return ActionVocab(tuple(by_index[i] for i in range(count)))


def write_vocab(vocab: ActionVocab, path) -> None:
    text = "".join(f"{i} {n}\n" for i, n in enumerate(vocab.names))
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# features

def load_features(path) -> np.ndarray:
    """Read a dimension-major (D, T) ``.npy`` file into a C-contiguous float32 (T, D) array.

    float32 is the network's dtype, so nothing converts the frames again. A
    float32 file in Fortran order (what ``write_features`` writes) is returned
    without a copy; any other file is copied or rounded to float32 once.

    A ValueError naming the file refuses anything but a ``.npy`` file with a
    real-number dtype, a non-empty 2-D shape and a payload that fills the rest
    of the file exactly; a non-finite value, or a finite one outside the
    float32 range, is reported by frame and dimension. The header is checked
    first, so a header that claims more data than the file holds allocates
    nothing.
    """
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            major, _ = fmt.read_magic(fh)
        except ValueError as err:
            raise ValueError(f"{path}: not a .npy file ({err})") from None
        if major not in (1, 2, 3):
            raise ValueError(f"{path}: unknown .npy format version {major}")
        read_header = fmt.read_array_header_1_0 if major == 1 else fmt.read_array_header_2_0
        try:
            shape, fortran_order, dtype = read_header(fh)
        except ValueError as err:
            raise ValueError(f"{path}: truncated or malformed .npy header ({err})") from None
        if dtype.hasobject:
            raise ValueError(f"{path}: pickled data refused")
        if dtype.kind not in "iuf":
            raise ValueError(f"{path}: dtype {dtype} is not a real number type")
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError(f"{path}: invalid shape {shape}, expected a non-empty (D, T) array")
        count = shape[0] * shape[1]
        need = count * dtype.itemsize
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have < need:
            raise ValueError(f"{path}: truncated payload, expected {need} bytes, found {have}")
        if have > need:
            raise ValueError(f"{path}: {have - need} unexpected trailing bytes")
        arr = np.fromfile(fh, dtype=dtype, count=count)
    arr = arr.reshape(shape, order="F" if fortran_order else "C")
    with np.errstate(over="ignore"):
        frames = np.ascontiguousarray(arr.T, dtype=np.float32)
    bad = ~np.isfinite(frames)
    if bad.any():
        t, d = np.argwhere(bad)[0]
        what = "value outside the float32 range" if np.isfinite(arr[d, t]) else "non-finite value"
        raise ValueError(f"{path}: {what} at frame {t}, dim {d}")
    return frames


def write_features(frames: np.ndarray, path) -> None:
    """Write (T, D) frames as the (D, T) float32 ``.npy`` file ``load_features`` reads.

    The array is stored in Fortran order, so its bytes are frame-major and
    neither side transposes. The frames are narrowed to float32 before the
    finiteness check, so a value outside the float32 range is refused too,
    before the file is opened. Saving through a file handle keeps ``np.save``
    from appending ``.npy`` to ``path``.
    """
    with np.errstate(over="ignore"):
        frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
        raise ValueError("features must be a (T, D) array with T, D >= 1")
    if not np.isfinite(frames).all():
        raise ValueError(
            "refusing to write non-finite features or values outside the float32 range"
        )
    with open(path, "wb") as fh:
        np.save(fh, frames.T)


# ---------------------------------------------------------------------------
# frame labels

def load_labels(path, vocab: ActionVocab) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty label file")
    return _class_indices(path, vocab, enumerate(lines, start=1))


def write_labels(labels: np.ndarray, vocab: ActionVocab, path) -> None:
    text = "".join(vocab.names[int(c)] + "\n" for c in labels)
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# timestamps on disk

def load_timestamps(path, vocab: ActionVocab, num_frames: int | None = None) -> TimestampSet:
    rows = _numbered_lines(path, "frame")
    if not rows:
        raise ValueError(f"{path}: empty timestamp file")
    labels = _class_indices(path, vocab, ((lineno, name) for lineno, _, name in rows))
    try:
        ts = TimestampSet([frame for _, frame, _ in rows], labels)
        if num_frames is not None:
            ts.check_within(num_frames)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return ts


def write_timestamps(ts: TimestampSet, vocab: ActionVocab, path) -> None:
    text = "".join(
        f"{int(t)} {vocab.names[int(c)]}\n" for t, c in zip(ts.frames, ts.labels)
    )
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# segments and annotation sampling

def _check_labels(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    return labels


def _check_classes(kind: str, classes: np.ndarray, num_classes: int) -> None:
    """Refuse a non-empty array of class indices with one outside [0, num_classes)."""
    if classes.min() < 0 or classes.max() >= num_classes:
        raise ValueError(f"{kind} class index out of range for {num_classes} classes")


def segments_from_labels(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Run-length encode frame labels into (class, start, end) with end exclusive."""
    labels = _check_labels(labels)
    cuts = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(labels)]))
    return [(int(labels[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def sample_timestamps(labels: np.ndarray, strategy: str, seed: int = 0) -> TimestampSet:
    """Pick one annotated frame per segment.

    ``random`` draws uniformly inside each segment, ``center`` takes
    floor((start + end - 1) / 2), ``start`` takes the first frame.
    """
    if strategy not in SAMPLING_STRATEGIES:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    segments = segments_from_labels(labels)
    rng = np.random.default_rng(seed)
    frames = np.empty(len(segments), dtype=np.int64)
    classes = np.empty(len(segments), dtype=np.int64)
    for i, (cls, start, end) in enumerate(segments):
        if strategy == "random":
            frames[i] = rng.integers(start, end)
        elif strategy == "center":
            frames[i] = (start + end - 1) // 2
        else:
            frames[i] = start
        classes[i] = cls
    return TimestampSet(frames, classes)


def sample_timestamps_fraction(labels: np.ndarray, fraction: float, seed: int = 0) -> TimestampSet:
    """Annotate ceil(fraction * T) distinct frames drawn without replacement.

    Segments may receive zero, one, or several annotations, so consecutive
    entries can repeat a class.
    """
    labels = _check_labels(labels)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    num_frames = len(labels)
    # the 1e-9 slack keeps products like 0.1 * 300 from ceiling to 31
    count = math.ceil(fraction * num_frames - 1e-9)
    count = max(1, min(count, num_frames))
    rng = np.random.default_rng(seed)
    frames = np.sort(rng.choice(num_frames, size=count, replace=False))
    return TimestampSet(frames, labels[frames])


# ---------------------------------------------------------------------------
# synthetic corpora

@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic corpus.

    Each class gets a fixed random unit-norm mean vector; every frame is its
    class mean plus isotropic Gaussian noise of scale ``noise``. Segment
    layouts are random with adjacent segments always differing in class.
    """

    videos: int
    num_classes: int
    mean_frames: int
    dim: int
    noise: float
    segment_range: tuple[int, int] = (4, 10)

    def __post_init__(self):
        if self.videos < 1:
            raise ValueError("videos must be >= 1")
        if self.num_classes < 2:
            raise ValueError(
                "num_classes must be >= 2: adjacent segments need distinct classes"
            )
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError("noise must be finite and >= 0")
        lo, hi = self.segment_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid segment-count range {self.segment_range}")
        if self.mean_frames < 2 * hi:
            raise ValueError("mean_frames too small for the segment-count range")


NOISE_RHO = 0.9


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate ``spec.videos`` pairs of (features, labels), deterministic in seed.

    Each frame is its class mean plus Gaussian noise of scale ``spec.noise``.
    The noise is temporally correlated (stationary AR(1), so the per-frame
    marginal stays N(0, noise^2)): consecutive video frames share most of
    their appearance, which is what makes dense supervision informative.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((spec.num_classes, spec.dim))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    lo_t = max(spec.segment_range[1], int(round(0.85 * spec.mean_frames)))
    hi_t = max(lo_t, int(round(1.15 * spec.mean_frames)))
    out = []
    for _ in range(spec.videos):
        num_frames = int(rng.integers(lo_t, hi_t + 1))
        count = int(rng.integers(spec.segment_range[0], spec.segment_range[1] + 1))
        count = min(count, num_frames)

        classes = np.empty(count, dtype=np.int64)
        classes[0] = rng.integers(spec.num_classes)
        for j in range(1, count):
            step = int(rng.integers(spec.num_classes - 1))
            classes[j] = step if step < classes[j - 1] else step + 1

        min_len = max(1, num_frames // (4 * count))
        extra = num_frames - count * min_len
        shares = rng.dirichlet(np.ones(count))
        lengths = min_len + rng.multinomial(extra, shares)

        labels = np.repeat(classes, lengths)
        white = rng.standard_normal((num_frames, spec.dim))
        drift = np.empty_like(white)
        drift[0] = white[0]
        scale = math.sqrt(1.0 - NOISE_RHO**2)
        for t in range(1, num_frames):
            drift[t] = NOISE_RHO * drift[t - 1] + scale * white[t]
        feats = means[labels] + spec.noise * drift
        out.append((feats, labels))
    return out


# ---------------------------------------------------------------------------
# corpus directories

def _video_names(bundle_path) -> list[str]:
    names = []
    for line in _read_lines(bundle_path):
        line = line.strip()
        if not line:
            continue
        # split bundles from other tools list "<video>.txt"
        names.append(line[:-4] if line.endswith(".txt") else line)
    if not names:
        raise ValueError(f"{bundle_path}: empty split bundle")
    return names


def write_corpus(
    out_dir,
    vocab: ActionVocab,
    videos: list[tuple[str, np.ndarray, np.ndarray]],
    train_names: list[str],
    test_names: list[str],
) -> None:
    """Lay out a corpus directory: features/, groundTruth/, mapping.txt, splits/."""
    root = Path(out_dir)
    (root / "features").mkdir(parents=True, exist_ok=True)
    (root / "groundTruth").mkdir(exist_ok=True)
    (root / "splits").mkdir(exist_ok=True)
    write_vocab(vocab, root / "mapping.txt")
    for name, feats, labels in videos:
        write_features(feats, root / "features" / f"{name}.npy")
        write_labels(labels, vocab, root / "groundTruth" / f"{name}.txt")
    for split, names in (("train", train_names), ("test", test_names)):
        bundle = "".join(n + "\n" for n in names)
        (root / "splits" / f"{split}.bundle").write_text(bundle, encoding="utf-8")


def load_corpus(data_dir, split: str = "train") -> tuple[ActionVocab, list[VideoRecord]]:
    """Load one split of a corpus directory.

    Features are read from features/<name>.npy (see ``load_features``).
    Ground-truth labels and timestamps are attached when present.
    """
    root = Path(data_dir)
    vocab = load_vocab(root / "mapping.txt")
    bundle = root / "splits" / f"{split}.bundle"
    if not bundle.exists():
        raise ValueError(f"{bundle}: split bundle not found")
    records = []
    for name in _video_names(bundle):
        feats_path = root / "features" / f"{name}.npy"
        if not feats_path.exists():
            raise ValueError(f"{feats_path}: feature file not found")
        feats = load_features(feats_path)
        labels = None
        gt = root / "groundTruth" / f"{name}.txt"
        if gt.exists():
            labels = load_labels(gt, vocab)
            if len(labels) != feats.shape[0]:
                raise ValueError(
                    f"{gt}: {len(labels)} labels for {feats.shape[0]} feature frames"
                )
        ts = None
        ts_path = root / "timestamps" / f"{name}.txt"
        if ts_path.exists():
            ts = load_timestamps(ts_path, vocab, num_frames=feats.shape[0])
        records.append(VideoRecord(name=name, features=feats, labels=labels, timestamps=ts))
    return vocab, records
