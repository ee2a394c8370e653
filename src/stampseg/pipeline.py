"""Training schedules, inference, and corpus evaluation.

Supervision modes
-----------------
``_recipe`` builds each video's targets once, before the first training step,
from one of two inputs. ``full`` trains on the frame labels for the whole run.
Every other mode reads the stamps: the annotated frames only in warmup, then
dense labels that a label rule (a row of ``pseudo_boundaries``) makes at every
step from the forward pass that the step trains on. Each stamp mode is a
(``boundary_method``, ``warmup_epochs``) schedule, which ``TrainConfig`` sets
when the config is made, and ``train`` reads the two fields as they are:
timestamps  (``boundary_method``, ``warmup_epochs``) as given.
naive       (``boundary_method``, ``epochs``): the annotated frames only.
uniform     (``"uniform"``, 0): midpoint labels for the whole run.
``full`` gets ``warmup_epochs`` 0, since its one target never changes.

A mode reads its one input, whatever else a video holds. The smoothing term
always applies; the confidence term applies in every mode but ``full``, whose
loss is MS-TCN's.
One optimizer step is taken per batch of videos, with per-video gradients
summed in batch order, so a run is a pure function of the data, the configs,
and the seed. Features and models are float32 wherever a caller sees them.
Float64 lives only in the training loop's optimiser (master weights and Adam
moments and the batch sum, into which each video's backward pass adds its
gradients, in batch order). The batch sum is allocated once per run and zeroed
in place before each batch, and the float32 model is refreshed in place after
every Adam step, so the loop itself allocates nothing per step.
``on_epoch`` and the return value get a float32 model that training no longer
writes: after the hook returns, the next epoch trains a fresh copy.
``train`` runs no validation itself: its one per-epoch hook, ``on_epoch``, may
score the model and set the epoch's ``entry.report``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import change, net
from .data import TimestampSet, _check_classes
from .loss import LossWeights
from .metrics import MetricsReport, report

SUPERVISION_MODES = ("timestamps", "full", "naive", "uniform")


@dataclass(frozen=True)
class TrainConfig:
    """One training run's settings, with each mode's schedule resolved.

    ``warmup_epochs`` and ``boundary_method`` hold what the run does. Only
    ``timestamps`` keeps both as given; the other modes set them when the
    config is made, whatever was passed:
    ``naive`` sets ``warmup_epochs = epochs`` (its rule is never applied);
    ``uniform`` sets ``boundary_method = "uniform"`` and ``warmup_epochs = 0``;
    ``full`` sets ``warmup_epochs = 0``, since its one target never changes.
    So ``warmup_epochs`` is refused outside [0, epochs] in ``timestamps`` mode
    alone.
    """

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
        if self.supervision == "naive":
            object.__setattr__(self, "warmup_epochs", self.epochs)
        elif self.supervision == "uniform":
            object.__setattr__(self, "boundary_method", "uniform")
            object.__setattr__(self, "warmup_epochs", 0)
        elif self.supervision == "full":
            object.__setattr__(self, "warmup_epochs", 0)
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    """The label rule's N-1 boundaries for one video's N timestamps (empty for one).

    This is the one table of label rules. ``fb`` and ``s2s_features`` split
    on the penultimate activations, ``s2s_prob`` on the final-stage
    probabilities, each passed as it is; ``uniform`` takes the midpoints
    between stamps and reads no output.
    """
    frames, classes = timestamps.frames, timestamps.labels
    pairs = range(len(frames) - 1)
    feats, probs = outputs.penultimate, outputs.probs[-1]
    if method == "fb":
        return change.fb_boundaries(feats, timestamps, feats.shape[0])
    if method == "uniform":
        return change.uniform_boundaries(timestamps, feats.shape[0])
    if method == "s2s_features":
        bounds = [change.s2s_boundary(feats, int(frames[i]), int(frames[i + 1])) for i in pairs]
    elif method == "s2s_prob":
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


def _check_video(where: str, model: net.ModelState, feats, labels=None, stamps=None) -> np.ndarray:
    """The features as ``model`` takes them, or a refusal naming the video.

    Refuses what ``net._check_input`` refuses, and labels or stamps (when
    given) that do not fit the video's frames or the model's classes.
    """
    num_classes = model.config.num_classes
    try:
        feats = net._check_input(model, feats)
        if labels is not None:
            if len(labels) != len(feats):
                raise ValueError(f"{len(labels)} labels for {len(feats)} frames")
            _check_classes("target", np.asarray(labels), num_classes)
        if stamps is not None:
            stamps.check_within(len(feats))
            _check_classes("timestamp", stamps.labels, num_classes)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    return feats


def _recipe(config: TrainConfig, where: str, model: net.ModelState, feats, labels, ts):
    """One video's features, stamps, and warmup and later (target, mask) (module docstring)."""
    mode, rule = config.supervision, config.boundary_method
    labels, ts = (labels, None) if mode == "full" else (None, ts)
    if labels is None and ts is None:
        read = "labels" if mode == "full" else "timestamps"
        raise ValueError(f"{where} has no {read} for mode {mode!r}")
    feats = _check_video(where, model, feats, labels, ts)
    if labels is not None:
        return feats, None, (labels, None), (labels, None)
    target = np.zeros(feats.shape[0], dtype=np.int64)
    target[ts.frames] = ts.labels
    # each later step labels the frames from its own forward pass
    return feats, ts, (target, ts.frames), (lambda out: pseudo_labels(out, ts, rule), None)


def _float32(m: net.ModelState) -> net.ModelState:
    """A float32 copy of the float64 master weights: the model every caller sees."""
    return net.ModelState(m.config, {k: p.astype(np.float32) for k, p in m.params.items()})


def train(
    dataset,
    annotations,
    config: TrainConfig,
    model_config: net.ModelConfig,
    on_epoch=None,
    names=None,
) -> tuple[net.ModelState, list[EpochLog]]:
    """Train a fresh model; returns it, float32, with one log entry per epoch.

    ``dataset`` is a non-empty sequence of (features, labels-or-None) pairs
    and ``annotations`` a parallel sequence of timestamp sets (or None per
    video, or None entirely); ``_recipe`` reads them before the first step.
    Float32 features are used as they are; others are converted to float32
    once. ``on_epoch(epoch, model, entry)`` runs after each epoch when given;
    it may set ``entry.report``, as ``stampseg train --val`` does with
    ``evaluate``, whose checks then run after the first epoch (a label outside
    the model's classes counts as a wrong frame there). ``on_epoch`` and the
    return value see the float32 model that ``net.save_model`` writes bit for
    bit, and training never writes it again: steps refresh one float32 model in
    place, and the epoch after a hook starts on a fresh copy. The float64 master
    weights, Adam moments and batch sum (allocated once per run) never leave
    this loop.
    A refusal or a divergence names a training video as ``video 'name'``
    from the optional parallel sequence ``names``, else as ``video i``.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if annotations is None:
        annotations = [None] * len(dataset)
    if len(annotations) != len(dataset):
        raise ValueError("annotations and dataset differ in length")
    if names is None:
        where = [f"video {i}" for i in range(len(dataset))]
    elif len(names) == len(dataset):
        where = [f"video {name!r}" for name in names]
    else:
        raise ValueError("names and dataset differ in length")
    master = net.init_model(model_config, config.seed)
    model = _float32(master)
    videos = [
        _recipe(config, where[i], model, feats, labels, ts)
        for i, ((feats, labels), ts) in enumerate(zip(dataset, annotations))
    ]
    adam = net.AdamState.zeros(master.params)
    batch_grads = {k: np.zeros_like(p) for k, p in master.params.items()}
    shuffle_rng = np.random.default_rng([config.seed, 1])
    logs: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(videos))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            for grad in batch_grads.values():
                grad.fill(0.0)
            for vi in order[start : start + config.batch_size]:
                feats, ts, warm, late = videos[vi]
                target, mask = warm if epoch <= config.warmup_epochs else late
                try:  # the backward pass adds this video's gradients into the batch sum
                    value, _ = net.loss_and_grad(
                        model, feats, target, mask, ts, config.weights, batch_grads
                    )
                except FloatingPointError as err:
                    raise FloatingPointError(
                        f"training diverged at epoch {epoch}, {where[vi]}: {err}"
                    ) from None
                epoch_losses.append(value)
            net.adam_step(master, adam, batch_grads, config.lr)
            for key, param in master.params.items():
                np.copyto(model.params[key], param, casting="same_kind")
        entry = EpochLog(epoch=epoch, mean_loss=float(np.mean(epoch_losses)))
        logs.append(entry)
        if on_epoch is not None:
            on_epoch(epoch, model, entry)
            if epoch < config.epochs:  # the hook keeps a model that training no longer writes
                model = _float32(master)
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
