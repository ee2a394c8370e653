"""Benchmark workloads: shapes, training schedules and seeded input generation.

Every workload runs the same user cycle (``stampseg train`` followed by
``stampseg eval``): train from the annotated corpus, save the checkpoint, then
load the test split and the checkpoint and evaluate. They differ in the shapes
that decide which layer dominates.

The workload seed draws every input (features, class order, segment
lengths), the model initialisation and the shuffling order. The shapes that
set the cost of a run (video and window lengths, model size, schedule) belong
to the workload, so two seeds cost about the same.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from stampseg import data, net, pipeline


@dataclass(frozen=True)
class Workload:
    name: str
    # SyntheticSpec fields. With segments_per_video set, each generated
    # "video" is a one-segment clip and clips are joined into videos.
    corpus: dict
    train_videos: int
    test_videos: int
    segments_per_video: int | None
    model: dict
    schedule: dict
    eval_passes: int  # after each round, on its checkpoint
    eval_passes_per_epoch: int  # after each epoch from the second round on
    setup_repeats: int

    def model_config(self) -> net.ModelConfig:
        return net.ModelConfig(
            input_dim=self.corpus["dim"], num_classes=self.corpus["num_classes"], **self.model
        )

    def train_config(self, seed: int) -> pipeline.TrainConfig:
        return pipeline.TrainConfig(
            supervision="timestamps", boundary_method="fb", seed=seed, **self.schedule
        )

    def to_dict(self) -> dict:
        return asdict(self)


WORKLOADS = {
    # The acceptance-study corpus and model: short videos and short windows
    # between stamps, so net, loss and change carry comparable shares. Long
    # enough a schedule for the pseudo-labels and test accuracy to mean
    # something. An evaluation pass takes about a tenth of a second, so
    # passes after every epoch spread its samples over the run, and a few
    # seconds of a faster or slower machine move their median less.
    "study": Workload(
        name="study",
        corpus=dict(videos=80, num_classes=5, mean_frames=300, dim=4, noise=0.25,
                    segment_range=(4, 7)),
        train_videos=60,
        test_videos=20,
        segments_per_video=None,
        model=dict(num_stages=2, layers_per_stage=6, channels=32),
        schedule=dict(epochs=8, warmup_epochs=3, lr=0.0005, batch_size=8),
        eval_passes=5,
        eval_passes_per_epoch=2,
        setup_repeats=5,
    ),
    # Breakfast-shaped videos (about 2000 frames, I3D-sized features) with the
    # paper-size model. Three segments of about 680 frames, stamped at their
    # centres, put 680 frames between stamps, where the O(L^2 F) boundary
    # search dominates the post-warmup epochs and sets the peak memory. A short
    # schedule, so that two rounds spread the samples over the run. No
    # evaluation passes between epochs: they would hold the test split in
    # memory during training and raise peak_rss_mb.
    "long-video": Workload(
        name="long-video",
        corpus=dict(videos=1, num_classes=10, mean_frames=800, dim=2048, noise=0.25,
                    segment_range=(1, 1)),
        train_videos=2,
        test_videos=3,
        segments_per_video=3,
        model=dict(num_stages=4, layers_per_stage=10, channels=64),
        schedule=dict(epochs=3, warmup_epochs=2, lr=0.0005, batch_size=8),
        eval_passes=4,
        eval_passes_per_epoch=0,
        setup_repeats=3,
    ),
}


def shrunk(workload: Workload) -> Workload:
    """The same workload at toy size, for the harness self-test."""
    corpus = dict(workload.corpus, dim=min(workload.corpus["dim"], 16))
    if workload.segments_per_video is None:
        corpus.update(videos=6, mean_frames=40, segment_range=(2, 4))
        sizes = dict(train_videos=4, test_videos=2)
    else:
        corpus.update(mean_frames=30)
        sizes = dict(train_videos=2, test_videos=1)
    return replace(
        workload,
        corpus=corpus,
        model=dict(num_stages=2, layers_per_stage=2, channels=8),
        schedule=dict(workload.schedule, epochs=2, warmup_epochs=1),
        eval_passes=1,
        setup_repeats=1,
        **sizes,
    )


def _joined_clips(workload: Workload, seed: int):
    """Videos of ``segments_per_video`` one-class clips, adjacent classes distinct.

    Clips come in generation order; a clip whose class repeats the previous
    one waits for the next video. Every clip is cut to the shortest clip's
    length, so that segment lengths, and with them the quadratic cost of the
    boundary search, do not change from seed to seed.
    """
    count = workload.train_videos + workload.test_videos
    per_video = workload.segments_per_video
    spec = data.SyntheticSpec(**dict(workload.corpus, videos=count * per_video + count + 4))
    pool = data.generate_synthetic(spec, seed=seed)
    length = min(len(lab) for _f, lab in pool)
    videos = []
    for _ in range(count):
        parts = []
        for _ in range(per_video):
            pick = next(
                (i for i, (_f, lab) in enumerate(pool) if not parts or lab[0] != parts[-1][1][0]),
                None,
            )
            if pick is None:
                raise ValueError("clip pool exhausted; raise the pool margin")
            parts.append(pool.pop(pick))
        videos.append((
            np.concatenate([f[:length] for f, _ in parts]),
            np.concatenate([lab[:length] for _, lab in parts]),
        ))
    return videos


def make_videos(workload: Workload, seed: int):
    """(train, test): train holds (features, labels, stamps), test (features, labels)."""
    if workload.segments_per_video is None:
        videos = data.generate_synthetic(data.SyntheticSpec(**workload.corpus), seed=seed)
    else:
        videos = _joined_clips(workload, seed)
    # Centre stamps: with random ones the longest window, and with it the
    # peak memory of the boundary search, changes by a third from seed to seed.
    stamps = [data.sample_timestamps(labels, "center") for _f, labels in videos[: workload.train_videos]]
    train = [(f, lab, ts) for (f, lab), ts in zip(videos, stamps)]
    test = videos[workload.train_videos : workload.train_videos + workload.test_videos]
    return train, test


def write_inputs(workload: Workload, seed: int, out_dir) -> dict:
    """Generate the corpus and write it as a corpus directory; returns its shape."""
    train, test = make_videos(workload, seed)
    vocab = data.ActionVocab(tuple(f"a{c}" for c in range(workload.corpus["num_classes"])))
    train_names = [f"train{i:03d}" for i in range(len(train))]
    test_names = [f"test{i:03d}" for i in range(len(test))]
    videos = [(n, f, lab) for n, (f, lab, _ts) in zip(train_names, train)]
    videos += [(n, f, lab) for n, (f, lab) in zip(test_names, test)]
    data.write_corpus(out_dir, vocab, videos, train_names, test_names)
    (out_dir / "timestamps").mkdir(exist_ok=True)
    for name, (_f, _lab, ts) in zip(train_names, train):
        data.write_timestamps(ts, vocab, out_dir / "timestamps" / f"{name}.txt")
    windows = np.concatenate([np.diff(ts.frames) for _f, _lab, ts in train])
    return {
        "train_videos": len(train),
        "test_videos": len(test),
        "train_frames": int(sum(len(lab) for _f, lab, _ts in train)),
        "test_frames": int(sum(len(lab) for _f, lab in test)),
        "dim": workload.corpus["dim"],
        "num_classes": workload.corpus["num_classes"],
        "stamps": int(sum(len(ts) for _f, _lab, ts in train)),
        "window_frames_median": float(np.median(windows)) if len(windows) else 0.0,
        "window_frames_max": int(windows.max()) if len(windows) else 0,
    }
