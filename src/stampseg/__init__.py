"""Temporal action segmentation trained from one annotated frame per segment."""

from .change import (
    fb_boundaries,
    labels_from_boundaries,
    s2s_boundary,
    s2s_boundary_prob,
    uniform_boundaries,
)
from .data import (
    ActionVocab,
    SyntheticSpec,
    TimestampSet,
    VideoRecord,
    generate_synthetic,
    load_corpus,
    load_features,
    load_labels,
    load_timestamps,
    load_vocab,
    sample_timestamps,
    sample_timestamps_fraction,
    segments_from_labels,
)
from .loss import LossWeights
from .metrics import MetricsReport, edit_score, f1_at, frame_accuracy, report
from .net import (
    AdamState,
    ModelConfig,
    ModelState,
    StageOutputs,
    adam_step,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
)
from .pipeline import EpochLog, TrainConfig, evaluate, infer, pseudo_labels, train

__version__ = "0.1.0"

__all__ = [
    "ActionVocab",
    "AdamState",
    "EpochLog",
    "LossWeights",
    "MetricsReport",
    "ModelConfig",
    "ModelState",
    "StageOutputs",
    "SyntheticSpec",
    "TimestampSet",
    "TrainConfig",
    "VideoRecord",
    "adam_step",
    "edit_score",
    "evaluate",
    "f1_at",
    "fb_boundaries",
    "forward",
    "frame_accuracy",
    "generate_synthetic",
    "infer",
    "init_model",
    "labels_from_boundaries",
    "load_corpus",
    "load_features",
    "load_labels",
    "load_model",
    "load_timestamps",
    "load_vocab",
    "loss_and_grad",
    "pseudo_labels",
    "report",
    "s2s_boundary",
    "s2s_boundary_prob",
    "sample_timestamps",
    "sample_timestamps_fraction",
    "save_model",
    "segments_from_labels",
    "train",
    "uniform_boundaries",
]
