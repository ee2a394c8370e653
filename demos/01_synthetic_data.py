"""
Generating a synthetic segmentation corpus and sampling sparse annotations
==========================================================================

Each video is a sequence of frame features plus one action label per frame.
Actions form contiguous segments; supervision can be full frame labels or a
single annotated frame (a timestamp) inside every segment.
"""

import numpy as np

from stampseg import data

# Five action classes, feature vectors in R^10, about 200 frames per video.
spec = data.SyntheticSpec(
    videos=4, num_classes=5, mean_frames=200, dim=10, noise=0.25,
    segment_range=(4, 8),
)
pairs = data.generate_synthetic(spec, seed=7)

for i, (feats, labels) in enumerate(pairs):
    segs = data.segments_from_labels(labels)
    print(f"video {i}: {feats.shape[0]} frames, {len(segs)} segments,",
          "classes", [c for c, _, _ in segs])

# A timestamp annotation keeps one frame per segment. Three strategies:
# a uniformly random frame, the segment center, or the first frame.
feats, labels = pairs[0]
for strategy in ("random", "center", "start"):
    ts = data.sample_timestamps(labels, strategy, seed=0)
    print(f"{strategy:>6}: frames {ts.frames.tolist()} labels {ts.labels.tolist()}")

# Every sampled frame really carries its segment's label.
ts = data.sample_timestamps(labels, "random", seed=3)
assert (labels[ts.frames] == ts.labels).all()

# Corpora are written as plain directories: a .npy feature file and a label
# file per video, a class-name mapping, and train/test bundles.
import tempfile
from pathlib import Path

root = Path(tempfile.mkdtemp()) / "corpus"
vocab = data.ActionVocab(tuple(f"action_{c}" for c in range(5)))
videos = [(f"video_{i}", f, l) for i, (f, l) in enumerate(pairs)]
data.write_corpus(root, vocab, videos, ["video_0", "video_1", "video_2"], ["video_3"])
print("corpus files:", sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())[:6], "...")

vocab2, records = data.load_corpus(root, split="train")
print("reloaded", len(records), "training videos;",
      "labels intact:", all((r.labels == pairs[i][1]).all() for i, r in enumerate(records)))
