import numpy as np
import pytest

from stampseg import change, data, net, pipeline
from stampseg.loss import LossWeights


def _corpus(noise, videos=4, seed=0, mean_frames=60, num_classes=3, dim=6):
    spec = data.SyntheticSpec(
        videos=videos,
        num_classes=num_classes,
        mean_frames=mean_frames,
        dim=dim,
        noise=noise,
        segment_range=(3, 5),
    )
    return data.generate_synthetic(spec, seed=seed)


def _annotate(pairs, seed=0):
    return [data.sample_timestamps(labels, "random", seed=seed + i) for i, (_, labels) in enumerate(pairs)]


def _model_config(dim, num_classes):
    return net.ModelConfig(
        input_dim=dim, num_classes=num_classes, num_stages=1, layers_per_stage=3, channels=8
    )


# ---------------------------------------------------------------------------
# inference

def test_infer_argmax_with_tie_breaks():
    config = net.ModelConfig(input_dim=2, num_classes=3, num_stages=1, layers_per_stage=1, channels=2)
    model = net.init_model(config, seed=0)
    feats = np.random.default_rng(0).standard_normal((9, 2))
    pred = pipeline.infer(model, feats)
    probs = net.forward(model, feats).probs[-1]
    np.testing.assert_array_equal(pred, np.argmax(probs, axis=1))
    assert pred.dtype == np.int64
    # an exactly uniform row resolves to class 0
    assert int(np.argmax(np.full(4, 0.25))) == 0


def test_untrained_accuracy_near_chance():
    pairs = _corpus(noise=0.3, videos=6, seed=4, num_classes=5, dim=8)
    accs = []
    for seed in range(5):
        config = net.ModelConfig(
            input_dim=8, num_classes=5, num_stages=1, layers_per_stage=2, channels=8
        )
        model = net.init_model(config, seed=seed)
        rep = pipeline.evaluate(model, pairs)
        accs.append(rep.acc)
    assert abs(float(np.mean(accs)) - 20.0) < 15.0


# ---------------------------------------------------------------------------
# training schedules

def test_full_mode_memorizes_separable_corpus():
    pairs = _corpus(noise=0.0)
    config = pipeline.TrainConfig(
        epochs=30, warmup_epochs=0, lr=0.005, batch_size=2,
        weights=LossWeights(alpha=0.15, beta=0.075), supervision="full", seed=0,
    )
    model, logs = pipeline.train(pairs, None, config, _model_config(6, 3))
    losses = [e.mean_loss for e in logs]
    assert all(a > b for a, b in zip(losses[:5], losses[1:6]))
    assert losses[-1] < 0.25 * losses[0]
    rep = pipeline.evaluate(model, pairs)
    assert rep.acc >= 99.0


def test_timestamps_mode_matches_full_on_separable_corpus():
    pairs = _corpus(noise=0.0, videos=5, seed=2)
    annotations = _annotate(pairs, seed=5)
    shared = dict(epochs=24, lr=0.01, batch_size=2, weights=LossWeights())
    full_cfg = pipeline.TrainConfig(warmup_epochs=0, supervision="full", seed=1, **shared)
    ts_cfg = pipeline.TrainConfig(
        warmup_epochs=12, supervision="timestamps", boundary_method="fb", seed=1, **shared
    )
    model_full, _ = pipeline.train(pairs, None, full_cfg, _model_config(6, 3))
    model_ts, _ = pipeline.train(pairs, annotations, ts_cfg, _model_config(6, 3))
    acc_full = pipeline.evaluate(model_full, pairs).acc
    acc_ts = pipeline.evaluate(model_ts, pairs).acc
    assert acc_ts >= acc_full - 1.0


def test_warmup_equal_to_epochs_is_naive():
    pairs = _corpus(noise=0.2, videos=3, seed=3)
    annotations = _annotate(pairs, seed=1)
    shared = dict(epochs=6, lr=0.005, batch_size=2, weights=LossWeights(), seed=7)
    naive_cfg = pipeline.TrainConfig(supervision="naive", warmup_epochs=0, **shared)
    ts_cfg = pipeline.TrainConfig(supervision="timestamps", warmup_epochs=6, **shared)
    model_a, logs_a = pipeline.train(pairs, annotations, naive_cfg, _model_config(6, 3))
    model_b, logs_b = pipeline.train(pairs, annotations, ts_cfg, _model_config(6, 3))
    for key in model_a.params:
        np.testing.assert_array_equal(model_a.params[key], model_b.params[key])
    assert [e.mean_loss for e in logs_a] == [e.mean_loss for e in logs_b]


def _dtypes(arrays):
    return {a.dtype for a in arrays.values()}


def test_training_steps_run_in_float32_on_float64_master_weights(monkeypatch):
    pairs = _corpus(noise=0.2, videos=3, seed=3)
    annotations = _annotate(pairs, seed=1)
    seen, stepped = [], []
    real, real_step = net.loss_and_grad, net.adam_step

    def spy(model, features, *args):
        seen.append(_dtypes(model.params))
        return real(model, features, *args)

    def step_spy(model, adam, grads, lr):
        stepped.append((_dtypes(model.params), _dtypes(grads)))
        return real_step(model, adam, grads, lr)

    monkeypatch.setattr(net, "loss_and_grad", spy)
    monkeypatch.setattr(net, "adam_step", step_spy)
    config = pipeline.TrainConfig(
        epochs=3, warmup_epochs=1, batch_size=2, supervision="timestamps", seed=2
    )
    model, _ = pipeline.train(pairs, annotations, config, _model_config(6, 3))
    assert len(seen) == 3 * len(pairs)
    assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
    # the optimiser keeps float64 master weights and sums the gradients in float64
    float64 = {np.dtype(np.float64)}
    assert len(stepped) == 3 * 2
    assert all(params == float64 and grads == float64 for params, grads in stepped)
    assert _dtypes(model.params) == {np.dtype(np.float32)}


def test_train_hands_out_one_float32_model_equal_to_its_checkpoint(monkeypatch, tmp_path):
    pairs = _corpus(noise=0.2, videos=3, seed=4)
    annotations = _annotate(pairs, seed=2)
    validated, epochs = [], []
    real_evaluate = pipeline.evaluate

    def evaluate_spy(model, dataset):
        validated.append(model)
        return real_evaluate(model, dataset)

    def on_epoch(epoch, model, entry):
        epochs.append(model)
        path = tmp_path / f"epoch{epoch}.bin"
        net.save_model(model, path)
        saved = net.load_model(path)
        for key, value in model.params.items():
            np.testing.assert_array_equal(saved.params[key], value, strict=True)

    monkeypatch.setattr(pipeline, "evaluate", evaluate_spy)
    config = pipeline.TrainConfig(
        epochs=3, warmup_epochs=1, batch_size=2, supervision="timestamps", seed=2
    )
    model, logs = pipeline.train(
        pairs, annotations, config, _model_config(6, 3), val_data=pairs, on_epoch=on_epoch
    )
    assert len(validated) == len(epochs) == 3
    # validation and on_epoch see the same model, and train returns the last one
    assert all(v is e for v, e in zip(validated, epochs))
    assert epochs[-1] is model
    assert all(_dtypes(m.params) == {np.dtype(np.float32)} for m in epochs)
    # a reloaded checkpoint scores what validation reported
    final = net.load_model(tmp_path / "epoch3.bin")
    assert real_evaluate(final, pairs) == logs[-1].report


def test_train_takes_float32_features_without_a_copy(monkeypatch):
    pairs = [(f.astype(np.float32), lab) for f, lab in _corpus(noise=0.2, videos=3, seed=5)]
    seen = []
    real = net.loss_and_grad

    def spy(model, features, *args):
        seen.append(features)
        return real(model, features, *args)

    monkeypatch.setattr(net, "loss_and_grad", spy)
    config = pipeline.TrainConfig(epochs=2, warmup_epochs=0, supervision="full", batch_size=2)
    pipeline.train(pairs, None, config, _model_config(6, 3))
    assert len(seen) == 2 * len(pairs)
    assert all(any(f is feats for feats, _ in pairs) for f in seen)


def test_train_refuses_empty_dataset(monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("trained on an empty dataset")

    monkeypatch.setattr(net, "loss_and_grad", untouched)
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision="full")
    for annotations in (None, []):
        with pytest.raises(ValueError, match="dataset is empty"):
            pipeline.train([], annotations, config, _model_config(6, 3))


def test_uniform_pseudo_labels_fixed_before_training():
    # evenly spaced timestamps at true centers of equal segments reproduce truth
    labels = np.repeat(np.array([0, 1, 2]), 10)
    ts = data.TimestampSet(np.array([4, 14, 24]), np.array([0, 1, 2]))
    bounds = change.uniform_boundaries(ts, 30)
    np.testing.assert_array_equal(
        change.labels_from_boundaries(ts, bounds, 30), labels
    )


def test_train_determinism_identical_runs():
    pairs = _corpus(noise=0.25, videos=4, seed=6)
    annotations = _annotate(pairs, seed=2)
    config = pipeline.TrainConfig(
        epochs=5, warmup_epochs=3, lr=0.002, batch_size=2, supervision="timestamps", seed=11
    )
    model_a, logs_a = pipeline.train(pairs, annotations, config, _model_config(6, 3))
    model_b, logs_b = pipeline.train(pairs, annotations, config, _model_config(6, 3))
    for key in model_a.params:
        np.testing.assert_array_equal(model_a.params[key], model_b.params[key])
    assert [e.mean_loss for e in logs_a] == [e.mean_loss for e in logs_b]


def test_timestamps_mode_runs_network_once_per_step(monkeypatch):
    pairs = _corpus(noise=0.25, videos=3, seed=6)
    annotations = _annotate(pairs, seed=2)
    counts = {"_forward": 0, "forward": 0, "adam_step": 0}
    for name in counts:
        original = getattr(net, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(net, name, counted)
    config = pipeline.TrainConfig(
        epochs=4, warmup_epochs=2, lr=0.002, batch_size=2, supervision="timestamps", seed=3
    )
    pipeline.train(pairs, annotations, config, _model_config(6, 3))
    # 3 videos in batches of 2: two optimizer steps per epoch
    assert counts == {"_forward": 4 * 3, "forward": 0, "adam_step": 4 * 2}


def test_train_validates_missing_supervision():
    pairs = _corpus(noise=0.1, videos=2, seed=8)
    with pytest.raises(ValueError, match="needs timestamps"):
        pipeline.train(pairs, None, pipeline.TrainConfig(epochs=1, warmup_epochs=0), _model_config(6, 3))
    dataset = [(feats, None) for feats, _ in pairs]
    with pytest.raises(ValueError, match="needs frame labels"):
        pipeline.train(
            dataset,
            None,
            pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision="full"),
            _model_config(6, 3),
        )


def test_train_refuses_timestamp_outside_video():
    pairs = _corpus(noise=0.1, videos=2, seed=8)
    annotations = _annotate(pairs)
    num_frames = pairs[1][0].shape[0]
    annotations[1] = data.TimestampSet(np.array([0, num_frames]), np.array([0, 1]))
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0)
    with pytest.raises(ValueError, match=f"video 1: .* outside video of {num_frames} frames"):
        pipeline.train(pairs, annotations, config, _model_config(6, 3))


def test_train_config_validation():
    with pytest.raises(ValueError, match="^epochs must be >= 1$"):
        pipeline.TrainConfig(epochs=0, warmup_epochs=0)
    with pytest.raises(ValueError, match="warmup"):
        pipeline.TrainConfig(epochs=5, warmup_epochs=6)
    with pytest.raises(ValueError, match="supervision"):
        pipeline.TrainConfig(supervision="magic")
    with pytest.raises(ValueError, match="boundary"):
        pipeline.TrainConfig(boundary_method="oracle")


# ---------------------------------------------------------------------------
# pseudo-labels

def test_pseudo_labels_respect_timestamps_all_methods():
    pairs = _corpus(noise=0.3, videos=3, seed=9)
    annotations = _annotate(pairs, seed=3)
    model = net.init_model(_model_config(6, 3), seed=0)
    for (feats, _), ts in zip(pairs, annotations):
        outputs = net.forward(model, feats)
        for method in change.BOUNDARY_METHODS:
            labels = pipeline.pseudo_labels(outputs, ts, method)
            assert len(labels) == feats.shape[0]
            np.testing.assert_array_equal(labels[ts.frames], ts.labels)
            bounds = pipeline.pseudo_boundaries(outputs, ts, method)
            assert len(bounds) == len(ts) - 1
            np.testing.assert_array_equal(
                labels, change.labels_from_boundaries(ts, bounds, feats.shape[0])
            )


def test_pseudo_labels_single_timestamp_whole_video():
    model = net.init_model(_model_config(6, 3), seed=0)
    feats = np.random.default_rng(0).standard_normal((12, 6))
    outputs = net.forward(model, feats)
    ts = data.TimestampSet(np.array([5]), np.array([2]))
    np.testing.assert_array_equal(pipeline.pseudo_labels(outputs, ts, "fb"), np.full(12, 2))
    assert pipeline.pseudo_boundaries(outputs, ts, "fb").shape == (0,)


@pytest.mark.parametrize(
    "method, name", [("s2s_features", "s2s_boundary"), ("s2s_prob", "s2s_boundary_prob")]
)
def test_pairwise_methods_get_the_network_output_as_it_is(monkeypatch, method, name):
    # a trained model is float32, and so are its outputs
    master = net.init_model(_model_config(6, 3), seed=0)
    params = {k: p.astype(np.float32) for k, p in master.params.items()}
    model = net.ModelState(master.config, params)
    feats = np.random.default_rng(1).standard_normal((40, 6)).astype(np.float32)
    outputs = net.forward(model, feats)
    assert outputs.penultimate.dtype == outputs.probs[-1].dtype == np.float32
    ts = data.TimestampSet(np.array([3, 12, 25, 36]), np.array([0, 1, 2, 0]))
    want = pipeline.pseudo_boundaries(outputs, ts, method)
    original = getattr(change, name)
    seen = []

    def spy(array, *args):
        seen.append(array)
        return original(array, *args)

    monkeypatch.setattr(change, name, spy)
    np.testing.assert_array_equal(pipeline.pseudo_boundaries(outputs, ts, method), want)
    source = outputs.penultimate if method == "s2s_features" else outputs.probs[-1]
    assert len(seen) == 3
    assert all(array is source for array in seen)


def test_pseudo_boundaries_refuses_an_unknown_method():
    model = net.init_model(_model_config(6, 3), seed=0)
    outputs = net.forward(model, np.random.default_rng(0).standard_normal((12, 6)))
    ts = data.TimestampSet(np.array([2, 9]), np.array([0, 1]))
    with pytest.raises(ValueError, match="^unknown boundary method 'bogus'$"):
        pipeline.pseudo_boundaries(outputs, ts, "bogus")


# ---------------------------------------------------------------------------
# evaluation and logs

def test_evaluate_deterministic():
    pairs = _corpus(noise=0.2, videos=4, seed=10)
    model = net.init_model(_model_config(6, 3), seed=2)
    assert pipeline.evaluate(model, pairs) == pipeline.evaluate(model, pairs)


def test_epoch_log_format():
    entries = [
        pipeline.EpochLog(epoch=1, mean_loss=2.345678),
        pipeline.EpochLog(
            epoch=2,
            mean_loss=1.0,
            report=__import__("stampseg").MetricsReport(90.0, 80.0, 70.5, 60.0, 50.0),
        ),
    ]
    text = pipeline.format_log(entries)
    lines = text.splitlines()
    assert lines[0] == "1\t2.345678"
    assert lines[1] == "2\t1.000000\t90.0\t80.0\t70.5\t60.0\t50.0"


def test_val_data_adds_reports():
    pairs = _corpus(noise=0.1, videos=2, seed=12)
    config = pipeline.TrainConfig(epochs=2, warmup_epochs=0, supervision="full", batch_size=2)
    _, logs = pipeline.train(pairs, None, config, _model_config(6, 3), val_data=pairs)
    assert all(e.report is not None for e in logs)


def test_val_data_without_labels_refused_before_training(monkeypatch):
    pairs = _corpus(noise=0.1, videos=3, seed=12)
    val_data = [pairs[0], (pairs[1][0], None), pairs[2]]

    def untouched(*args, **kwargs):
        raise AssertionError("trained before checking val_data")

    monkeypatch.setattr(net, "loss_and_grad", untouched)
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision="full")
    with pytest.raises(ValueError, match="val_data video 1 has no frame labels"):
        pipeline.train(pairs, None, config, _model_config(6, 3), val_data=val_data)


def _narrowed(pair):
    feats, labels = pair
    return feats[:, :5], labels


def _cut_labels(pair):
    feats, labels = pair
    return feats, labels[:-1]


def _no_frames(pair):
    feats, labels = pair
    return feats[:0], labels[:0]


def _with_nan(pair):
    feats, labels = pair
    feats = np.array(feats)
    feats[4, 2] = np.nan
    return feats, labels


def _label_out_of_range(pair):
    feats, labels = pair
    labels = np.array(labels)
    labels[5] = 7
    return feats, labels


def _stamp_out_of_range(ts):
    return data.TimestampSet(ts.frames, np.r_[ts.labels[:-1], 5])


NONFINITE = "non-finite value in input features"
STAMP_RANGE = r"^video 1: timestamp class index out of range for 3 classes$"


@pytest.mark.parametrize(
    "where, mode, edit, match",
    [
        ("train", "full", _narrowed,
         r"^video 1: features of shape \(\d+, 5\), the model takes \(T, 6\)$"),
        ("train", "timestamps", _narrowed, r"^video 1: features of shape \(\d+, 5\)"),
        ("val", "timestamps", _narrowed, r"val_data video 1: features of shape \(\d+, 5\)"),
        ("val", "timestamps", _cut_labels, r"val_data video 1: \d+ labels for \d+ frames"),
        ("train", "full", _cut_labels, r"^video 1: \d+ labels for \d+ frames"),
        ("train", "naive", _with_nan, f"^video 1: {NONFINITE}$"),
        ("val", "naive", _with_nan, f"^val_data video 1: {NONFINITE}$"),
        ("train", "full", _label_out_of_range,
         r"^video 1: target class index out of range for 3 classes$"),
        ("val", "naive", _label_out_of_range,
         r"^val_data video 1: target class index out of range for 3 classes$"),
        ("stamps", "naive", _stamp_out_of_range, STAMP_RANGE),
        ("stamps", "uniform", _stamp_out_of_range, STAMP_RANGE),
        ("stamps", "timestamps", _stamp_out_of_range, STAMP_RANGE),
        ("train", "naive", _no_frames,
         r"^video 1: features must be a \(T, D\) array with T >= 1$"),
        ("stamp list", "naive", lambda stamps: stamps[:-1],
         "^annotations and dataset differ in length$"),
        ("val list", "full", lambda val: [], "^val_data is empty$"),
    ],
    ids=["train-width-full", "train-width-timestamps", "val-width", "val-labels",
         "train-labels-full", "train-nan", "val-nan", "train-class-full", "val-class",
         "stamp-class-naive", "stamp-class-uniform", "stamp-class-timestamps",
         "train-no-frames", "stamp-list-length", "val-list-empty"],
)
def test_unusable_video_refused_before_training(monkeypatch, where, mode, edit, match):
    pairs = _corpus(noise=0.1, videos=3, seed=12)
    annotations = _annotate(pairs)
    val_data = list(pairs)
    if where == "train":
        pairs[1] = edit(pairs[1])
    elif where == "val":
        val_data[1] = edit(val_data[1])
    elif where == "stamps":
        annotations[1] = edit(annotations[1])
    elif where == "val list":
        val_data = edit(val_data)
    else:
        annotations = edit(annotations)

    def untouched(*args, **kwargs):
        raise AssertionError("trained before checking every video")

    monkeypatch.setattr(net, "loss_and_grad", untouched)
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision=mode)
    with pytest.raises(ValueError, match=match):
        pipeline.train(pairs, annotations, config, _model_config(6, 3), val_data=val_data)


@pytest.mark.parametrize(
    "where, mode, edit, match",
    [
        ("train", "full", _narrowed,
         r"^video 'b': features of shape \(\d+, 5\), the model takes \(T, 6\)$"),
        ("train", "full", _cut_labels, r"^video 'b': \d+ labels for \d+ frames$"),
        ("train", "full", _label_out_of_range,
         r"^video 'b': target class index out of range for 3 classes$"),
        ("stamps", "naive", _stamp_out_of_range,
         r"^video 'b': timestamp class index out of range for 3 classes$"),
        ("stamps", "naive", lambda ts: data.TimestampSet(np.r_[ts.frames[:-1], 999], ts.labels),
         r"^video 'b': timestamp frame 999 outside video of \d+ frames$"),
        ("stamps", "naive", lambda ts: None,
         r"^supervision mode 'naive' needs timestamps for video 'b'$"),
    ],
    ids=["width", "label-count", "label-class", "stamp-class", "stamp-outside", "no-stamps"],
)
def test_named_video_refused_by_name(monkeypatch, where, mode, edit, match):
    pairs = _corpus(noise=0.1, videos=3, seed=12)
    annotations = _annotate(pairs)
    if where == "train":
        pairs[1] = edit(pairs[1])
    else:
        annotations[1] = edit(annotations[1])
    monkeypatch.setattr(net, "loss_and_grad", lambda *args, **kwargs: pytest.fail("trained"))
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision=mode)
    with pytest.raises(ValueError, match=match):
        pipeline.train(pairs, annotations, config, _model_config(6, 3), names=["a", "b", "c"])


def test_train_refuses_names_of_another_length():
    pairs = _corpus(noise=0.1, videos=3, seed=12)
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision="full")
    with pytest.raises(ValueError, match="^names and dataset differ in length$"):
        pipeline.train(pairs, None, config, _model_config(6, 3), names=["a", "b"])


def test_timestamps_mode_ignores_unused_label_count():
    pairs = _corpus(noise=0.1, videos=2, seed=12)
    annotations = _annotate(pairs)
    pairs[1] = _cut_labels(pairs[1])
    config = pipeline.TrainConfig(epochs=1, warmup_epochs=0, supervision="timestamps")
    _, logs = pipeline.train(pairs, annotations, config, _model_config(6, 3))
    assert len(logs) == 1


def test_divergence_reports_context(monkeypatch):
    pairs = _corpus(noise=0.1, videos=2, seed=13)
    annotations = _annotate(pairs)

    def explode(*args, **kwargs):
        raise FloatingPointError("non-finite loss at stage 1")

    monkeypatch.setattr(net, "loss_and_grad", explode)
    config = pipeline.TrainConfig(epochs=2, warmup_epochs=0, supervision="naive", seed=0)
    with pytest.raises(FloatingPointError, match="epoch 1, video"):
        pipeline.train(pairs, annotations, config, _model_config(6, 3))
    with pytest.raises(FloatingPointError, match="^training diverged at epoch 1, video '[ab]': "):
        pipeline.train(pairs, annotations, config, _model_config(6, 3), names=["a", "b"])
