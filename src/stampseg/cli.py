"""Command-line entry points: synth, annotate, train, eval, boundaries.

A corpus directory holds features/, groundTruth/, mapping.txt, splits/ with
train.bundle and test.bundle, and optionally timestamps/.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import change, data, metrics, net, pipeline
from .loss import LossWeights


# ---------------------------------------------------------------------------
# subcommands

def _require(records, field: str, what: str) -> None:
    """Refuse the split at its first video whose ``field`` (labels or timestamps) is missing."""
    for rec in records:
        if getattr(rec, field) is None:
            raise ValueError(f"video {rec.name!r} has no {what}")


def _check_widths(model: str, input_dim: int, records) -> None:
    """Refuse the split at its first video whose feature width is not ``input_dim``."""
    for rec in records:
        if rec.features.shape[1] != input_dim:
            raise ValueError(
                f"{model} takes {input_dim}-dim features, video {rec.name!r} "
                f"has {rec.features.shape[1]}"
            )


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _check_out_path(name: str, path: Path, file: bool = False, empty: bool = False) -> None:
    """Refuse an output directory (or, with ``file``, file) before any work, under ``name``.

    Refused: a ``path`` whose nearest existing ancestor is not a directory;
    a directory ``path`` that exists and is not a directory, and, with
    ``empty``, one that holds anything; a ``file`` path that is a directory,
    or whose parent does not exist.
    """
    if path.exists():
        if file:
            if path.is_dir():
                raise ValueError(f"{name}: is a directory")
            return
        if not path.is_dir():
            raise ValueError(f"{name}: is not a directory")
        if empty and any(path.iterdir()):
            raise ValueError(f"{name}: directory is not empty")
        return
    ancestor = next(p for p in path.parents if p.exists())
    if not ancestor.is_dir():
        raise ValueError(f"{name}: {ancestor} is not a directory")
    if file and ancestor != path.parent:
        raise ValueError(f"{name}: directory {path.parent} does not exist")


def cmd_synth(args) -> int:
    _check_seed(args.seed)
    # stale files, timestamps/ among them, would be read with the new corpus
    out = Path(args.out)
    _check_out_path(f"--out {out}", out, empty=True)
    spec = data.SyntheticSpec(
        videos=args.videos,
        num_classes=args.classes,
        mean_frames=args.frames,
        dim=args.dim,
        noise=args.noise,
        segment_range=(args.segments[0], args.segments[1]),
    )
    frac, count = args.test_frac, spec.videos
    if not (0 < frac < 1 and 0 < round(frac * count) < count):
        raise ValueError(
            f"--test-frac {frac} must lie in (0, 1) and leave no empty split for {count} videos"
        )
    test_count = round(frac * count)
    vocab = data.ActionVocab(tuple(f"action_{c}" for c in range(args.classes)))
    names = [f"video_{i:04d}" for i in range(count)]
    # a generator: each video is written before the next is drawn
    videos = ((n, f, l) for n, (f, l) in zip(names, data.iter_synthetic(spec, seed=args.seed)))
    train_names = names[: count - test_count]
    test_names = names[count - test_count :]
    data.write_corpus(args.out, vocab, videos, train_names, test_names)
    print(f"wrote {len(train_names)} train / {len(test_names)} test videos to {args.out}")
    return 0


def cmd_annotate(args) -> int:
    _check_seed(args.seed)
    data.parse_strategy(args.strategy)  # refused before the corpus is read
    out_dir = Path(args.data) / "timestamps"
    _check_out_path(str(out_dir), out_dir)
    vocab, records = data.load_corpus(args.data, split=args.split)
    # sample every video before the first write, so a refused run leaves nothing behind
    _require(records, "labels", "ground-truth labels to sample from")
    stamps = [data.sample_timestamps(r.labels, args.strategy, seed=args.seed) for r in records]
    out_dir.mkdir(exist_ok=True)
    for rec, ts in zip(records, stamps):
        data.write_timestamps(ts, vocab, out_dir / f"{rec.name}.txt")
    print(f"annotated {len(records)} videos under {out_dir}")
    return 0


def _model_config(args, input_dim: int, num_classes: int) -> net.ModelConfig:
    return net.ModelConfig(
        input_dim=input_dim,
        num_classes=num_classes,
        num_stages=args.stages,
        layers_per_stage=args.layers,
        channels=args.channels,
        first_stage_kernels=(args.kernels[0], args.kernels[1]),
        later_kernel=args.later_kernel,
    )


def _train_config(args) -> pipeline.TrainConfig:
    return pipeline.TrainConfig(
        epochs=args.epochs,
        warmup_epochs=args.warmup,
        lr=args.lr,
        batch_size=args.batch,
        weights=LossWeights(alpha=args.alpha, beta=args.beta, tau=args.tau),
        supervision=args.mode,
        boundary_method=args.boundary,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    if args.save_every < 0:
        raise ValueError(f"--save-every must be >= 0, got {args.save_every}")
    _check_out_path(f"--out {args.out}", Path(args.out), file=True)
    if args.log is not None:
        _check_out_path(f"--log {args.log}", Path(args.log), file=True)
        if Path(args.log).resolve() == Path(args.out).resolve():
            raise ValueError(f"--log {args.log}: same file as --out {args.out}")
    config = _train_config(args)
    # the model flags are checked now; the corpus fills in its two dimensions below
    model_config = _model_config(args, input_dim=1, num_classes=1)
    vocab, records = data.load_corpus(args.data, split=args.split)
    dataset = [(r.features, r.labels) for r in records]
    annotations = [r.timestamps for r in records]
    model_config = dataclasses.replace(
        model_config, input_dim=records[0].features.shape[1], num_classes=vocab.num_classes
    )

    val_data = None
    if args.val is not None:
        _, val_records = data.load_corpus(args.data, split=args.val)
        _require(val_records, "labels", "ground-truth labels to validate against")
        _check_widths("the model", model_config.input_dim, val_records)
        val_data = [(r.features, r.labels) for r in val_records]

    def on_epoch(epoch, model, entry):
        if val_data is not None:
            entry.report = pipeline.evaluate(model, val_data)
        if args.save_every > 0 and epoch % args.save_every == 0:
            net.save_model(model, args.out)

    model, logs = pipeline.train(
        dataset,
        annotations,
        config,
        model_config,
        on_epoch=on_epoch,
        names=[r.name for r in records],
    )
    net.save_model(model, args.out)
    log_text = pipeline.format_log(logs)
    if args.log is not None:
        Path(args.log).write_text(log_text, encoding="utf-8")
    else:
        sys.stdout.write(log_text)
    print(f"saved model to {args.out}")
    return 0


def _load_model_for(path, vocab, records) -> net.ModelState:
    """The checkpoint at ``path``, refused by name unless its class count and widths fit."""
    model = net.load_model(path)
    num_classes = model.config.num_classes
    if num_classes != vocab.num_classes:
        raise ValueError(
            f"{path}: model has {num_classes} classes, mapping.txt has {vocab.num_classes}"
        )
    _check_widths(f"{path}: model", model.config.input_dim, records)
    return model


def cmd_eval(args) -> int:
    if (args.model is None) == (args.pred is None):
        raise ValueError("pass exactly one of --model or --pred")
    vocab, records = data.load_corpus(args.data, split=args.split)
    _require(records, "labels", "ground-truth labels to evaluate against")
    gts = [r.labels for r in records]
    if args.model is not None:
        model = _load_model_for(args.model, vocab, records)
        dataset = [(r.features, r.labels) for r in records]
        rep = pipeline.evaluate(model, dataset)
    else:
        preds = []
        for r in records:
            path = Path(args.pred) / f"{r.name}.txt"
            if not path.exists():
                raise ValueError(f"{path}: missing prediction file")
            preds.append(data.load_labels(path, vocab, r.num_frames))
        rep = metrics.report(preds, gts)
    if args.header:
        print(rep.header())
    print(rep.line())
    return 0


def cmd_boundaries(args) -> int:
    out_dir = Path(args.out)
    _check_out_path(f"--out {out_dir}", out_dir)
    vocab, records = data.load_corpus(args.data, split=args.split)
    _require(records, "timestamps", "timestamps")
    model = _load_model_for(args.model, vocab, records)
    # every video's result before the first write, so a refused run leaves nothing behind
    results = []
    for rec in records:
        outputs = net.forward(model, rec.features)
        bounds = pipeline.pseudo_boundaries(outputs, rec.timestamps, args.boundary)
        labels = change.labels_from_boundaries(rec.timestamps, bounds, len(rec.features))
        results.append((rec.name, labels, bounds))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, labels, bounds in results:
        data.write_labels(labels, vocab, out_dir / f"{name}.txt")
        sidecar = "".join(f"{i} {b}\n" for i, b in enumerate(bounds))
        (out_dir / f"{name}.bounds").write_text(sidecar, encoding="utf-8")
    print(f"wrote pseudo-labels for {len(records)} videos to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stampseg",
        description="Temporal action segmentation from one annotated frame per segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    train_cfg, model_cfg = pipeline.TrainConfig, net.ModelConfig

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int, default=80)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--frames", type=int, default=300, help="mean frames per video")
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--segments", type=int, nargs=2, default=(6, 12), metavar=("LO", "HI"))
    p.add_argument("--test-frac", type=float, default=0.25,
                   help="share of the videos in the test split, in (0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("annotate", help="sample timestamp annotations from ground truth")
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", default="random",
                   help="random, center, start, or fraction:<p>")
    p.add_argument("--split", default="train")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train", help="train a model on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="write per-epoch log lines here")
    p.add_argument("--split", default="train")
    p.add_argument("--val", default=None, help="split to evaluate after each epoch")
    p.add_argument("--mode", default=train_cfg.supervision, choices=pipeline.SUPERVISION_MODES,
                   help="full trains on the labels, the others on the stamps; naive (all "
                        "warmup) and uniform (the uniform rule, no warmup) are fixed "
                        "schedules that, like full's, the config sets when it is made, so "
                        "none of the three reads --warmup or --boundary")
    p.add_argument("--boundary", default=train_cfg.boundary_method, choices=change.BOUNDARY_METHODS,
                   help="label rule of --mode timestamps; no other mode reads it")
    p.add_argument("--epochs", type=int, default=train_cfg.epochs)
    p.add_argument("--warmup", type=int, default=train_cfg.warmup_epochs,
                   help="epochs on the stamp frames alone in --mode timestamps, the one mode "
                        "that reads it and checks it against --epochs")
    p.add_argument("--lr", type=float, default=train_cfg.lr)
    p.add_argument("--batch", type=int, default=train_cfg.batch_size)
    p.add_argument("--alpha", type=float, default=LossWeights.alpha)
    p.add_argument("--beta", type=float, default=LossWeights.beta)
    p.add_argument("--tau", type=float, default=LossWeights.tau)
    p.add_argument("--seed", type=int, default=train_cfg.seed)
    p.add_argument("--stages", type=int, default=model_cfg.num_stages)
    p.add_argument("--layers", type=int, default=model_cfg.layers_per_stage)
    p.add_argument("--channels", type=int, default=model_cfg.channels)
    p.add_argument("--kernels", type=int, nargs=2, default=model_cfg.first_stage_kernels,
                   metavar=("K1", "K2"))
    p.add_argument("--later-kernel", type=int, default=model_cfg.later_kernel)
    p.add_argument("--save-every", type=int, default=0,
                   help="also checkpoint every this many epochs (0: never)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model or stored predictions")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--model", default=None, help="checkpoint to evaluate")
    p.add_argument("--pred", default=None, help="directory of predicted label files")
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("boundaries", help="write pseudo-labels and boundary sidecars")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--boundary", default=train_cfg.boundary_method, choices=change.BOUNDARY_METHODS)
    p.set_defaults(func=cmd_boundaries)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
