"""Training schedules, inference, and corpus evaluation.

Supervision modes
-----------------
timestamps  warm up on the annotated frames only, then regenerate dense
            pseudo-labels at every step from the activations of the forward
            pass that the step trains on.
full        dense ground-truth labels for every frame.
naive       the annotated frames only, for the whole run.
uniform     dense labels from midpoint boundaries, fixed before training.

The smoothing term always applies; the confidence term applies whenever
timestamps are available. One optimizer step is taken per batch of videos,
with per-video gradients summed in batch order, so a run is a pure function
of the data, the configs, and the seed. Features and models are float32
wherever a caller sees them. Float64 lives only in the training loop's
optimiser (master weights and Adam moments), which sums each batch's
gradients in float64, in batch order, and refreshes the float32 model after
every Adam step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import change, net
from .data import TimestampSet
from .loss import LossWeights
from .metrics import MetricsReport, report

SUPERVISION_MODES = ("timestamps", "full", "naive", "uniform")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    warmup_epochs: int = 30
    lr: float = 0.0005
    batch_size: int = 8
    weights: LossWeights = field(default_factory=LossWeights)
    supervision: str = "timestamps"
    boundary_method: str = "fb"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and positive")
        if self.supervision not in SUPERVISION_MODES:
            raise ValueError(f"unknown supervision mode {self.supervision!r}")
        if self.boundary_method not in change.BOUNDARY_METHODS:
            raise ValueError(f"unknown boundary method {self.boundary_method!r}")


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    report: MetricsReport | None = None


def format_log(entries: list[EpochLog]) -> str:
    lines = []
    for e in entries:
        line = f"{e.epoch}\t{e.mean_loss:.6f}"
        if e.report is not None:
            line += "\t" + e.report.line()
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def pseudo_boundaries(
    outputs: net.StageOutputs, timestamps: TimestampSet, method: str = "fb"
) -> np.ndarray:
    """The estimator's N-1 boundaries for one video's N timestamps (empty for one).

    ``fb`` and ``s2s_features`` split on the penultimate activations,
    ``s2s_prob`` on the final-stage probabilities. Each method widens that
    network output to float64 once per call, not once per pair of timestamps.
    """
    frames, classes = timestamps.frames, timestamps.labels
    pairs = range(len(frames) - 1)
    if method == "fb":
        feats = outputs.penultimate
        return change.fb_boundaries(feats, timestamps, feats.shape[0])
    if method == "s2s_features":
        feats = np.asarray(outputs.penultimate, dtype=np.float64)
        bounds = [change.s2s_boundary(feats, int(frames[i]), int(frames[i + 1])) for i in pairs]
    elif method == "s2s_prob":
        probs = np.asarray(outputs.probs[-1], dtype=np.float64)
        bounds = [
            change.s2s_boundary_prob(
                probs, int(classes[i]), int(frames[i]), int(classes[i + 1]), int(frames[i + 1])
            )
            for i in pairs
        ]
    else:
        raise ValueError(f"unknown boundary method {method!r}")
    return np.array(bounds, dtype=np.int64)


def pseudo_labels(
    outputs: net.StageOutputs, timestamps: TimestampSet, method: str = "fb"
) -> np.ndarray:
    """Dense labels for one video: its ``pseudo_boundaries`` expanded over every frame."""
    return change.labels_from_boundaries(
        timestamps,
        pseudo_boundaries(outputs, timestamps, method),
        outputs.penultimate.shape[0],
    )


def _sparse_target(ts: TimestampSet, num_frames: int) -> np.ndarray:
    target = np.zeros(num_frames, dtype=np.int64)
    target[ts.frames] = ts.labels
    return target


def _check_video(where: str, feats, labels, input_dim: int) -> None:
    """Refuse features that are not (T, input_dim), or labels (when given) not T long."""
    shape = np.shape(feats)
    if len(shape) != 2 or shape[1] != input_dim:
        raise ValueError(f"{where}: features of shape {shape}, the model takes (T, {input_dim})")
    if labels is not None and len(labels) != shape[0]:
        raise ValueError(f"{where}: {len(labels)} labels for {shape[0]} frames")


def _float32(m: net.ModelState) -> net.ModelState:
    """A float32 copy of the float64 master weights: the model every caller sees."""
    return net.ModelState(m.config, {k: p.astype(np.float32) for k, p in m.params.items()})


def _chunks(order, size):
    for i in range(0, len(order), size):
        yield order[i : i + size]


def train(
    dataset,
    annotations,
    config: TrainConfig,
    model_config: net.ModelConfig,
    val_data=None,
    on_epoch=None,
) -> tuple[net.ModelState, list[EpochLog]]:
    """Train a fresh model; returns it, float32, with one log entry per epoch.

    ``dataset`` is a non-empty sequence of (features, labels-or-None) pairs
    and ``annotations`` a parallel sequence of timestamp sets (or None per
    video, or None entirely). Float32 features are used as they are; others
    are converted to float32 once. ``val_data`` is an optional (features,
    labels) list evaluated after each epoch. ``on_epoch(epoch, model, entry)``
    runs after each epoch when given. Validation, ``on_epoch`` and the return
    value all see the float32 model that ``net.save_model`` writes bit for
    bit; the float64 master weights and Adam moments never leave this loop.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if annotations is None:
        annotations = [None] * len(dataset)
    if len(annotations) != len(dataset):
        raise ValueError("annotations and dataset differ in length")
    mode = config.supervision
    input_dim = model_config.input_dim
    # one (features, stamps, target, mask) per video; timestamps mode uses its target in warmup
    videos = []
    for i, ((feats, labels), ts) in enumerate(zip(dataset, annotations)):
        feats = np.asarray(feats, dtype=np.float32)
        if mode in ("timestamps", "naive", "uniform") and ts is None:
            raise ValueError(f"supervision mode {mode!r} needs timestamps for video {i}")
        if mode == "full" and labels is None:
            raise ValueError(f"supervision mode 'full' needs frame labels for video {i}")
        _check_video(f"video {i}", feats, labels if mode == "full" else None, input_dim)
        num_frames = feats.shape[0]
        if ts is not None:
            try:
                ts.check_within(num_frames)
            except ValueError as err:
                raise ValueError(f"video {i}: {err}") from None
        if mode == "full":
            target, mask = labels, None
        elif mode == "uniform":
            bounds = change.uniform_boundaries(ts, num_frames)
            target, mask = change.labels_from_boundaries(ts, bounds, num_frames), None
        else:
            target, mask = _sparse_target(ts, num_frames), ts.frames
        videos.append((feats, ts, target, mask))
    for i, (feats, labels) in enumerate(val_data or ()):
        if labels is None:
            raise ValueError(f"val_data video {i} has no frame labels")
        _check_video(f"val_data video {i}", feats, labels, input_dim)

    master = net.init_model(model_config, config.seed)
    adam = net.AdamState.zeros(master.params)
    model = _float32(master)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    logs: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(videos))
        epoch_losses = []
        for batch in _chunks(order, config.batch_size):
            batch_grads = {k: np.zeros_like(p) for k, p in master.params.items()}
            for vi in batch:
                feats, ts, target, mask = videos[vi]
                if mode == "timestamps" and epoch > config.warmup_epochs:
                    target = lambda outputs: pseudo_labels(outputs, ts, config.boundary_method)
                    mask = None
                try:
                    value, grads = net.loss_and_grad(
                        model, feats, target, mask, ts, config.weights
                    )
                except FloatingPointError as err:
                    raise FloatingPointError(
                        f"training diverged at epoch {epoch}, video {vi}: {err}"
                    ) from None
                epoch_losses.append(value)
                for key in batch_grads:
                    batch_grads[key] += grads[key]  # widened to float64
            net.adam_step(master, adam, batch_grads, config.lr)
            model = _float32(master)
        entry = EpochLog(epoch=epoch, mean_loss=float(np.mean(epoch_losses)))
        if val_data is not None:
            entry.report = evaluate(model, val_data)
        logs.append(entry)
        if on_epoch is not None:
            on_epoch(epoch, model, entry)
    return model, logs


def infer(model: net.ModelState, features) -> np.ndarray:
    """Final-stage argmax per frame; ties resolve to the smallest class index."""
    outputs = net.forward(model, features)
    return np.argmax(outputs.probs[-1], axis=1).astype(np.int64)


def evaluate(model: net.ModelState, dataset) -> MetricsReport:
    """Predict every video of (features, labels) pairs and pool the metrics."""
    dataset = list(dataset)
    preds = [infer(model, feats) for feats, _ in dataset]
    return report(preds, [labels for _, labels in dataset])
