import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stampseg import change, cli, data, net, pipeline


def _run(*argv):
    return cli.main([str(a) for a in argv])


def _synth(root, **over):
    args = {
        "--videos": 4, "--classes": 3, "--frames": 50, "--dim": 6,
        "--noise": 0.0, "--test-frac": 0.25, "--seed": 0,
    }
    args.update(over)
    flat = [x for kv in args.items() for x in kv]
    assert _run("synth", "--out", root, "--segments", 3, 5, *flat) == 0
    return Path(root)


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


TINY_NET = ["--stages", "1", "--layers", "3", "--channels", "8"]


def _assert_trained_in_process(model_path, root, **train):
    """The checkpoint equals in-process ``pipeline.train`` on the train split, as float32."""
    vocab, records = data.load_corpus(root, split="train")
    model_config = net.ModelConfig(
        input_dim=records[0].features.shape[1], num_classes=vocab.num_classes,
        num_stages=1, layers_per_stage=3, channels=8,
    )
    want, _ = pipeline.train(
        [(r.features, r.labels) for r in records], [r.timestamps for r in records],
        pipeline.TrainConfig(**train), model_config,
    )
    got = net.load_model(model_path)
    assert got.config == model_config
    for key, value in want.params.items():
        np.testing.assert_array_equal(got.params[key], value.astype(np.float32), strict=True)


# ---------------------------------------------------------------------------
# synth

def test_synth_layout_and_roundtrip(tmp_path):
    root = _synth(tmp_path / "corpus")
    assert (root / "mapping.txt").exists()
    assert (root / "splits" / "train.bundle").exists()
    assert (root / "splits" / "test.bundle").exists()
    vocab, records = data.load_corpus(root, split="train")
    assert vocab.num_classes == 3
    assert len(records) == 3
    for rec in records:
        assert rec.features.shape[0] == len(rec.labels)
        assert rec.features.shape[1] == 6


def test_synth_deterministic_tree(tmp_path):
    a = _synth(tmp_path / "a", **{"--noise": 0.3})
    b = _synth(tmp_path / "b", **{"--noise": 0.3})
    assert _tree_digest(a) == _tree_digest(b)


def test_synth_rejects_degenerate_settings(tmp_path, capsys):
    assert _run("synth", "--out", tmp_path / "x", "--classes", 1) == 1
    assert "error:" in capsys.readouterr().err
    assert _run("synth", "--out", tmp_path / "y", "--videos", 2, "--test-frac", 0.0) == 1
    assert "empty split" in capsys.readouterr().err


@pytest.mark.parametrize("frac", [1.5, 1.0, -0.5, "nan"])
def test_synth_refuses_test_frac_outside_unit_interval(tmp_path, capsys, frac):
    root = tmp_path / "corpus"
    assert _run("synth", "--out", root, "--videos", 10, "--test-frac", frac) == 1
    assert f"--test-frac {float(frac)} must lie in (0, 1)" in capsys.readouterr().err
    assert not root.exists()


def test_synth_refuses_a_non_empty_directory(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    _synth(tmp_path / "empty")
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root) == 0
    before = _tree_digest(root)
    capsys.readouterr()
    # the old timestamps/ would otherwise be read with the new videos of the same names
    assert _run("synth", "--out", root, "--seed", 8) == 1
    assert capsys.readouterr().err == f"error: --out {root}: directory is not empty\n"
    assert _tree_digest(root) == before


# ---------------------------------------------------------------------------
# annotate

def test_annotate_center_matches_library(tmp_path):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    vocab, records = data.load_corpus(root, split="train")
    for rec in records:
        expected = data.sample_timestamps(rec.labels, "center")
        np.testing.assert_array_equal(rec.timestamps.frames, expected.frames)
        np.testing.assert_array_equal(rec.timestamps.labels, expected.labels)


def test_annotate_fraction_counts(tmp_path):
    root = _synth(tmp_path / "corpus", **{"--frames": 100})
    assert _run("annotate", "--data", root, "--strategy", "fraction:0.1") == 0
    _, records = data.load_corpus(root, split="train")
    for rec in records:
        expected = int(np.ceil(0.1 * len(rec.labels) - 1e-9))
        assert len(rec.timestamps.frames) == expected


def test_annotate_random_deterministic(tmp_path):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "random", "--seed", "5") == 0
    first = _tree_digest(Path(root) / "timestamps")
    assert _run("annotate", "--data", root, "--strategy", "random", "--seed", "5") == 0
    assert _tree_digest(Path(root) / "timestamps") == first


def test_annotate_refuses_non_numeric_fraction(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "fraction:abc") == 1
    assert capsys.readouterr().err == (
        "error: --strategy fraction:abc: expected fraction:<p> with p a number\n"
    )
    assert not (root / "timestamps").exists()


def _listing(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


@pytest.mark.parametrize("case", ["bogus strategy", "video without labels"])
def test_refused_annotate_leaves_nothing_behind(tmp_path, capsys, case):
    root = _synth(tmp_path / "corpus")
    strategy = "random"
    if case == "bogus strategy":
        strategy, message = "bogus", "unknown sampling strategy 'bogus'"
    else:
        # the last train video, so that the others could have been written first
        last = (root / "splits" / "train.bundle").read_text().split()[-1]
        (root / "groundTruth" / f"{last}.txt").unlink()
        message = f"video '{last}' has no ground-truth labels to sample from"
    before = _listing(tmp_path)
    assert _run("annotate", "--data", root, "--strategy", strategy) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _listing(tmp_path) == before


# ---------------------------------------------------------------------------
# train / eval

def test_train_full_then_eval_perfect(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    model_path = tmp_path / "model.bin"
    log_path = tmp_path / "train.log"
    assert _run(
        "train", "--data", root, "--out", model_path, "--log", log_path,
        "--mode", "full", "--epochs", 30, "--warmup", 0, "--lr", 0.005,
        "--batch", 2, *TINY_NET,
    ) == 0
    capsys.readouterr()
    assert _run("eval", "--data", root, "--split", "train",
                "--model", model_path, "--header") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "acc\tedit\tf1_10\tf1_25\tf1_50"
    assert out[1] == "100.0\t100.0\t100.0\t100.0\t100.0"
    log_lines = log_path.read_text().splitlines()
    assert len(log_lines) == 30
    assert log_lines[0].startswith("1\t")


def test_train_val_log_matches_eval(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    model_path = tmp_path / "model.bin"
    log_path = tmp_path / "train.log"
    assert _run(
        "train", "--data", root, "--out", model_path, "--log", log_path, "--val", "test",
        "--mode", "full", "--epochs", 3, "--warmup", 0, "--batch", 2, *TINY_NET,
    ) == 0
    log_lines = log_path.read_text().splitlines()
    assert len(log_lines) == 3
    for epoch, line in enumerate(log_lines, start=1):
        fields = line.split("\t")
        assert fields[0] == str(epoch)
        assert len(fields) == 7  # epoch, loss, then acc edit f1_10 f1_25 f1_50
        assert all(re.fullmatch(r"\d+\.\d", f) for f in fields[2:])
    capsys.readouterr()
    assert _run("eval", "--data", root, "--model", model_path, "--split", "test") == 0
    assert capsys.readouterr().out == "\t".join(log_lines[-1].split("\t")[2:]) + "\n"


def test_train_timestamps_mode_runs(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    model_path = tmp_path / "model.bin"
    assert _run(
        "train", "--data", root, "--out", model_path,
        "--mode", "timestamps", "--epochs", 6, "--warmup", 3,
        "--lr", 0.005, "--batch", 2, *TINY_NET,
    ) == 0
    assert model_path.exists()
    _assert_trained_in_process(
        model_path, root, epochs=6, warmup_epochs=3, lr=0.005, batch_size=2,
        supervision="timestamps",
    )


def test_train_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["train", "--data", "c", "--out", "m.bin"])
    assert cli._train_config(args) == pipeline.TrainConfig()
    assert cli._model_config(args, 6, 3) == net.ModelConfig(input_dim=6, num_classes=3)
    args = cli.build_parser().parse_args(["boundaries", "--data", "c", "--model", "m", "--out", "o"])
    assert args.boundary == pipeline.TrainConfig().boundary_method


def test_train_missing_timestamps_errors(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    first = (root / "splits" / "train.bundle").read_text().split()[0]
    code = _run("train", "--data", root, "--out", tmp_path / "m.bin",
                "--mode", "timestamps", "--epochs", 2, "--warmup", 1, *TINY_NET)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: video '{first}' has no timestamps for mode 'timestamps'\n"
    )


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_names_the_first_video_without_labels(tmp_path, capsys, monkeypatch, split):
    root = _synth(tmp_path / "corpus", **{"--videos": 12})
    names = (root / "splits" / f"{split}.bundle").read_text().split()
    (root / "groundTruth" / f"{names[1]}.txt").unlink()
    argv = ["--mode", "full"]
    if split == "train":
        message = f"video '{names[1]}' has no labels for mode 'full'"
    else:
        argv += ["--val", "test"]
        message = f"video '{names[1]}' has no ground-truth labels to validate against"
    monkeypatch.setattr(pipeline, "train", lambda *args, **kwargs: pytest.fail("trained"))
    assert _run("train", "--data", root, "--out", tmp_path / "m.bin", *argv, *TINY_NET) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", ["width", "stamp-outside"])
def test_train_names_the_refused_video(tmp_path, capsys, monkeypatch, case):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    name = "video_0002"
    assert name in (root / "splits" / "train.bundle").read_text().split()
    path = root / "features" / f"{name}.npy"
    frames = data.load_features(path)
    num_frames = len(frames)
    if case == "width":
        data.write_features(frames[:, :5], path)
        message = f"video '{name}': features of shape ({num_frames}, 5), the model takes (T, 6)"
    else:
        # the corpus loader refuses it first, naming the video's stamp file
        stamps = root / "timestamps" / f"{name}.txt"
        with open(stamps, "a", encoding="utf-8") as fh:
            fh.write(f"{num_frames} action_0\n")
        message = f"{stamps}: timestamp frame {num_frames} outside video of {num_frames} frames"
    monkeypatch.setattr(net, "loss_and_grad", lambda *args, **kwargs: pytest.fail("trained"))
    assert _run("train", "--data", root, "--out", tmp_path / "m.bin",
                "--mode", "timestamps", "--epochs", 1, "--warmup", 0, *TINY_NET) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_save_every_writes_checkpoints(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    model_path = tmp_path / "model.bin"
    assert _run(
        "train", "--data", root, "--out", model_path, "--mode", "full",
        "--epochs", 4, "--warmup", 0, "--batch", 2, "--save-every", 2, *TINY_NET,
    ) == 0
    _assert_trained_in_process(
        model_path, root, epochs=4, warmup_epochs=0, batch_size=2, supervision="full"
    )


def test_train_save_every_refuses_negative(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    model_path = tmp_path / "model.bin"
    assert _run(
        "train", "--data", root, "--out", model_path, "--mode", "full",
        "--epochs", 1, "--warmup", 0, "--save-every", -3, *TINY_NET,
    ) == 1
    assert "--save-every must be >= 0" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_train_refuses_output_in_missing_directory(tmp_path, capsys, monkeypatch, flag):
    root = _synth(tmp_path / "corpus")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the output paths")

    monkeypatch.setattr(pipeline, "train", no_training)
    paths = {"--out": tmp_path / "model.bin", "--log": tmp_path / "train.log"}
    missing = paths[flag] = tmp_path / "nodir" / "file"
    code = _run("train", "--data", root, "--out", paths["--out"], "--log", paths["--log"],
                "--mode", "full", "--epochs", 1, "--warmup", 0, *TINY_NET)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {flag} {missing}: directory {missing.parent} does not exist\n"
    )
    assert not (tmp_path / "model.bin").exists()


def _no_corpus_loading(monkeypatch):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the corpus before checking the flags")

    monkeypatch.setattr(data, "load_corpus", no_loading)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epochs", 50, "--warmup", 60], "warmup_epochs must lie in [0, epochs]"),
        (["--lr", 0], "lr must be finite and positive"),
        (["--batch", 0], "batch_size must be >= 1"),
        (["--stages", 0], "num_stages must be >= 1"),
        (["--kernels", 4, 3], "kernel sizes must be odd and >= 1, got 4"),
    ],
    ids=["warmup", "lr", "batch", "stages", "kernels"],
)
def test_train_refuses_bad_flags_before_loading_the_corpus(
    tmp_path, capsys, monkeypatch, flags, message
):
    _no_corpus_loading(monkeypatch)
    code = _run("train", "--data", tmp_path, "--out", tmp_path / "model.bin", *flags)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_pred_directory(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    vocab, records = data.load_corpus(root, split="test")
    for rec in records:
        data.write_labels(rec.labels, vocab, pred_dir / f"{rec.name}.txt")
    capsys.readouterr()
    assert _run("eval", "--data", root, "--pred", pred_dir) == 0
    assert capsys.readouterr().out.strip() == "100.0\t100.0\t100.0\t100.0\t100.0"


def test_eval_requires_exactly_one_source(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    assert _run("eval", "--data", root) == 1
    assert "exactly one" in capsys.readouterr().err
    assert _run("eval", "--data", root, "--model", "a", "--pred", "b") == 1
    assert "exactly one" in capsys.readouterr().err


def test_eval_refuses_its_sources_before_loading_the_corpus(tmp_path, capsys, monkeypatch):
    _no_corpus_loading(monkeypatch)
    for sources in ([], ["--model", "a", "--pred", "b"]):
        assert _run("eval", "--data", tmp_path, *sources) == 1
        assert capsys.readouterr().err == "error: pass exactly one of --model or --pred\n"


def test_eval_missing_prediction_file(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    assert _run("eval", "--data", root, "--pred", pred_dir) == 1
    assert "missing prediction" in capsys.readouterr().err


def test_eval_pred_names_the_file_of_wrong_length(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    vocab, records = data.load_corpus(root, split="test")
    for rec in records:
        data.write_labels(rec.labels, vocab, pred_dir / f"{rec.name}.txt")
    rec = records[-1]
    path = pred_dir / f"{rec.name}.txt"
    data.write_labels(rec.labels[:-1], vocab, path)
    capsys.readouterr()
    assert _run("eval", "--data", root, "--pred", pred_dir) == 1
    num = len(rec.labels)
    assert capsys.readouterr().err == (
        f"error: {path}: {num - 1} predicted frames, {num} true frames\n"
    )


# ---------------------------------------------------------------------------
# boundaries

def test_boundaries_writes_labels_and_sidecars(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    model_path = tmp_path / "model.bin"
    config = net.ModelConfig(input_dim=6, num_classes=3, num_stages=1,
                             layers_per_stage=3, channels=8)
    net.save_model(net.init_model(config, seed=0), model_path)
    out_dir = tmp_path / "pseudo"
    assert _run("boundaries", "--data", root, "--model", model_path,
                "--out", out_dir, "--boundary", "s2s_features") == 0
    vocab, records = data.load_corpus(root, split="train")
    for rec in records:
        labels = data.load_labels(out_dir / f"{rec.name}.txt", vocab)
        assert len(labels) == len(rec.labels)
        np.testing.assert_array_equal(labels[rec.timestamps.frames], rec.timestamps.labels)
        sidecar = (out_dir / f"{rec.name}.bounds").read_text().splitlines()
        segs = data.segments_from_labels(labels)
        assert len(sidecar) == len(segs) - 1
        for i, line in enumerate(sidecar):
            idx, bound = line.split()
            assert int(idx) == i
            assert int(bound) == segs[i][2] - 1


def test_boundaries_sidecar_keeps_repeated_class_boundaries(tmp_path):
    vocab = data.ActionVocab(("a", "b", "c"))
    feats = np.random.default_rng(0).standard_normal((30, 6))
    labels = np.repeat(np.array([0, 1]), 15)
    root = tmp_path / "corpus"
    data.write_corpus(root, vocab, [("v", feats, labels)], ["v"], ["v"])
    (root / "timestamps").mkdir()
    ts = data.TimestampSet(np.array([2, 10, 20]), np.array([0, 0, 1]))
    data.write_timestamps(ts, vocab, root / "timestamps" / "v.txt")
    model_path = tmp_path / "model.bin"
    config = net.ModelConfig(input_dim=6, num_classes=3, num_stages=1,
                             layers_per_stage=2, channels=4)
    net.save_model(net.init_model(config, seed=0), model_path)
    out_dir = tmp_path / "pseudo"
    assert _run("boundaries", "--data", root, "--model", model_path, "--out", out_dir) == 0
    lines = (out_dir / "v.bounds").read_text().splitlines()
    assert [int(line.split()[0]) for line in lines] == [0, 1]
    bounds = np.array([int(line.split()[1]) for line in lines])
    assert np.all(ts.frames[:-1] <= bounds) and np.all(bounds < ts.frames[1:])
    written = data.load_labels(out_dir / "v.txt", vocab)
    np.testing.assert_array_equal(written, change.labels_from_boundaries(ts, bounds, 30))


def test_refused_boundaries_leaves_nothing_behind(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    last = (root / "splits" / "train.bundle").read_text().split()[-1]
    (root / "timestamps" / f"{last}.txt").unlink()
    model_path = tmp_path / "model.bin"
    config = net.ModelConfig(input_dim=6, num_classes=3, num_stages=1,
                             layers_per_stage=2, channels=4)
    net.save_model(net.init_model(config, seed=0), model_path)
    before = _listing(tmp_path)
    assert _run("boundaries", "--data", root, "--model", model_path,
                "--out", tmp_path / "pseudo") == 1
    assert capsys.readouterr().err == f"error: video '{last}' has no timestamps\n"
    assert _listing(tmp_path) == before


def test_eval_names_the_first_video_without_ground_truth(tmp_path, capsys, monkeypatch):
    root = _synth(tmp_path / "corpus", **{"--videos": 12})
    names = (root / "splits" / "test.bundle").read_text().split()
    assert len(names) == 3
    for name in names[1:]:
        (root / "groundTruth" / f"{name}.txt").unlink()
    model_path = tmp_path / "model.bin"
    config = net.ModelConfig(input_dim=6, num_classes=3, num_stages=1,
                             layers_per_stage=2, channels=4)
    net.save_model(net.init_model(config, seed=0), model_path)
    forwards = []
    monkeypatch.setattr(net, "forward", lambda *args: forwards.append(args))
    assert _run("eval", "--data", root, "--model", model_path, "--split", "test") == 1
    assert capsys.readouterr().err == (
        f"error: video '{names[1]}' has no ground-truth labels to evaluate against\n"
    )
    assert forwards == []


@pytest.mark.parametrize("command", ["eval", "boundaries"])
def test_model_of_other_feature_dimension_refused_by_name(tmp_path, capsys, monkeypatch, command):
    root = _synth(tmp_path / "corpus", **{"--dim": 7})
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    model_path = tmp_path / "model.bin"
    config = net.ModelConfig(input_dim=6, num_classes=3, num_stages=1,
                             layers_per_stage=2, channels=4)
    net.save_model(net.init_model(config, seed=0), model_path)
    split = "test" if command == "eval" else "train"
    first = (root / "splits" / f"{split}.bundle").read_text().split()[0]
    forwards = []
    monkeypatch.setattr(net, "forward", lambda *args: forwards.append(args))
    argv = ["--data", root, "--model", model_path, "--split", split]
    if command == "boundaries":
        argv += ["--out", tmp_path / "pseudo"]
    assert _run(command, *argv) == 1
    assert capsys.readouterr().err == (
        f"error: {model_path}: model takes 6-dim features, video '{first}' has 7\n"
    )
    assert forwards == []
    assert not (tmp_path / "pseudo").exists()


@pytest.mark.parametrize("command", ["eval", "boundaries"])
def test_model_of_other_class_count_refused_by_name(tmp_path, capsys, monkeypatch, command):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    model_path = tmp_path / "model.bin"
    config = net.ModelConfig(input_dim=6, num_classes=5, num_stages=1,
                             layers_per_stage=2, channels=4)
    net.save_model(net.init_model(config, seed=0), model_path)
    forwards = []
    monkeypatch.setattr(net, "forward", lambda *args: forwards.append(args))
    argv = ["--data", root, "--model", model_path]
    if command == "boundaries":
        argv += ["--out", tmp_path / "pseudo"]
    assert _run(command, *argv) == 1
    assert capsys.readouterr().err == (
        f"error: {model_path}: model has 5 classes, mapping.txt has 3\n"
    )
    assert forwards == []
    assert not (tmp_path / "pseudo").exists()


# ---------------------------------------------------------------------------
# error paths

def test_missing_corpus_reports_error(tmp_path, capsys):
    assert _run("eval", "--data", tmp_path / "nothere", "--model", "m.bin") == 1
    assert "error:" in capsys.readouterr().err


def test_train_on_empty_feature_file_reports_path(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    name = (root / "splits" / "train.bundle").read_text().split()[1]
    path = root / "features" / f"{name}.npy"
    path.write_bytes(b"")
    code = _run("train", "--data", root, "--out", tmp_path / "m.bin",
                "--mode", "full", "--epochs", 1, "--warmup", 0, *TINY_NET)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: not a .npy file")
    assert "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


def test_corpus_without_npy_features_names_the_missing_file(tmp_path, capsys):
    root = _synth(tmp_path / "corpus")
    name = (root / "splits" / "test.bundle").read_text().split()[0]
    path = root / "features" / f"{name}.npy"
    path.rename(path.with_suffix(".tsf"))
    assert _run("annotate", "--data", root, "--split", "test", "--strategy", "center") == 1
    assert capsys.readouterr().err == f"error: {path}: feature file not found\n"


@pytest.mark.parametrize("which", ["mapping", "labels", "timestamps", "bundle"])
def test_non_utf8_text_file_is_named(tmp_path, capsys, which):
    root = _synth(tmp_path / "corpus")
    assert _run("annotate", "--data", root, "--strategy", "center") == 0
    name = (root / "splits" / "train.bundle").read_text().split()[0]
    path = {
        "mapping": root / "mapping.txt",
        "labels": root / "groundTruth" / f"{name}.txt",
        "timestamps": root / "timestamps" / f"{name}.txt",
        "bundle": root / "splits" / "train.bundle",
    }[which]
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    capsys.readouterr()
    assert _run("annotate", "--data", root, "--strategy", "center") == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "stampseg", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: stampseg")


def test_console_script_installed():
    import shutil

    assert shutil.which("stampseg") is not None
