import dataclasses
import errno
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from stampseg import net
from stampseg.data import TimestampSet
from stampseg.loss import LossWeights


def _tiny_config(**kw):
    base = dict(
        input_dim=5,
        num_classes=3,
        num_stages=1,
        layers_per_stage=2,
        channels=4,
        first_stage_kernels=(5, 3),
        later_kernel=3,
    )
    base.update(kw)
    return net.ModelConfig(**base)


def _ts(frames, labels):
    return TimestampSet(np.array(frames), np.array(labels))


# ---------------------------------------------------------------------------
# initialization

def test_init_deterministic_per_seed():
    config = _tiny_config()
    a = net.init_model(config, seed=3)
    b = net.init_model(config, seed=3)
    c = net.init_model(config, seed=4)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_init_fan_in_bounds_and_zero_biases():
    config = _tiny_config(num_stages=2, layers_per_stage=3, channels=6)
    model = net.init_model(config, seed=0)
    for key, value in model.params.items():
        assert np.isfinite(value).all()
        if key.endswith("b"):
            assert not value.any()
        else:
            fan_in = int(np.prod(value.shape[1:]))
            assert np.abs(value).max() <= 1.0 / np.sqrt(fan_in)
    # the model is the network alone; optimizer state lives in the training loop
    assert [f.name for f in dataclasses.fields(model)] == ["config", "params"]


def test_config_validation():
    with pytest.raises(ValueError, match="odd"):
        _tiny_config(first_stage_kernels=(4, 3))
    with pytest.raises(ValueError, match="pair"):
        net.ModelConfig(input_dim=2, num_classes=2, first_stage_kernels=(3,))
    with pytest.raises(ValueError):
        _tiny_config(channels=0)


# ---------------------------------------------------------------------------
# forward

def test_forward_row_stochastic_every_stage():
    config = _tiny_config(num_stages=3, layers_per_stage=2)
    model = net.init_model(config, seed=1)
    rng = np.random.default_rng(0)
    out = net.forward(model, rng.standard_normal((40, 5)))
    assert len(out.probs) == 3
    for probs in out.probs:
        assert probs.shape == (40, 3)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    assert out.penultimate.shape == (40, 4)


def test_forward_single_frame():
    model = net.init_model(_tiny_config(num_stages=2), seed=2)
    out = net.forward(model, np.random.default_rng(1).standard_normal((1, 5)))
    assert out.probs[-1].shape == (1, 3)
    np.testing.assert_allclose(out.probs[-1].sum(axis=1), 1.0, atol=1e-5)


def test_forward_pure_and_stateless():
    model = net.init_model(_tiny_config(), seed=5)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((12, 5))
    b = rng.standard_normal((20, 5))
    first = net.forward(model, a).probs[-1]
    net.forward(model, b)
    second = net.forward(model, a).probs[-1]
    np.testing.assert_array_equal(first, second)


def test_forward_dimension_mismatch():
    model = net.init_model(_tiny_config(), seed=0)
    with pytest.raises(ValueError, match="the model takes"):
        net.forward(model, np.zeros((4, 7)))


def test_forward_rejects_nonfinite_input():
    model = net.init_model(_tiny_config(), seed=0)
    bad = np.zeros((4, 5))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        net.forward(model, bad)


def test_translation_consistency_interior():
    # one residual layer: shifting the input shifts outputs away from the pads
    config = _tiny_config(num_stages=1, layers_per_stage=1, first_stage_kernels=(3, 3))
    model = net.init_model(config, seed=7)
    rng = np.random.default_rng(3)
    num_frames, shift = 60, 5
    x = rng.standard_normal((num_frames, 5))
    x_shifted = np.concatenate([rng.standard_normal((shift, 5)), x[: num_frames - shift]])
    y = net.forward(model, x).penultimate
    y_shifted = net.forward(model, x_shifted).penultimate
    radius = 2  # dilation 1, kernel 3, one dilated conv per branch
    lo, hi = shift + radius, num_frames - radius
    np.testing.assert_allclose(y_shifted[lo:hi], y[lo - shift : hi - shift], atol=1e-10)


def _random_config(rng):
    kernels = rng.choice([1, 3, 5], size=3)
    return net.ModelConfig(
        input_dim=int(rng.integers(1, 9)),
        num_classes=int(rng.integers(2, 6)),
        num_stages=int(rng.integers(1, 4)),
        layers_per_stage=int(rng.integers(1, 8)),
        channels=int(rng.integers(1, 17)),
        first_stage_kernels=(int(kernels[0]), int(kernels[1])),
        later_kernel=int(kernels[2]),
    )


def test_forward_without_cache_equals_cached_pass():
    # forward keeps no layer cache and runs the ReLU and residual sums in
    # place; every output must still be bit-equal to the training pass's
    rng = np.random.default_rng(11)
    for trial in range(24):
        dtype = (np.float32, np.float64)[trial % 2]
        config = _random_config(rng)
        model = _with_dtype(net.init_model(config, seed=trial), dtype)
        num_frames = 1 + trial // 2 if trial < 6 else int(rng.integers(1, 300))
        feats = rng.standard_normal((num_frames, config.input_dim)).astype(dtype)
        got = net.forward(model, feats)
        probs, penultimate, caches = net._forward(model, feats)
        assert len(caches) == config.num_stages
        assert len(got.probs) == len(probs)
        for a, b in zip(got.probs, probs):
            assert a.dtype == dtype and np.array_equal(a, b), (trial, config, num_frames)
        assert np.array_equal(got.penultimate, penultimate), (trial, config, num_frames)


def test_forward_memory_is_input_plus_a_few_activations():
    # 2 stages x 6 layers x 32 channels, D = 32, T = 4,000, float32; input
    # plus outputs are 1.13 MiB. Measured tracemalloc peaks: forward 3.0 MiB,
    # the cached pass 20.1 MiB (forward peaked at 28.9 MiB when it kept the
    # cache), so inference memory no longer grows with layers x channels.
    config = net.ModelConfig(
        input_dim=32, num_classes=5, num_stages=2, layers_per_stage=6, channels=32
    )
    model = _with_dtype(net.init_model(config, seed=0), np.float32)
    feats = np.random.default_rng(0).standard_normal((4000, 32)).astype(np.float32)

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    out, free_peak = peak(lambda: net.forward(model, feats))
    _, cached_peak = peak(lambda: net._forward(model, feats))
    io_bytes = feats.nbytes + out.penultimate.nbytes + sum(p.nbytes for p in out.probs)
    assert free_peak < 4 * io_bytes
    assert cached_peak > 5 * free_peak


def test_training_cache_is_two_activations_per_layer():
    # the shape above: 3 stacks x 6 layers of (4,000 x 32) float32 activations.
    # Measured tracemalloc peak of the cached pass: 2.16 activations per layer
    # beyond inputs and outputs (3.10 when the cache also kept each ReLU output)
    config = net.ModelConfig(
        input_dim=32, num_classes=5, num_stages=2, layers_per_stage=6, channels=32
    )
    model = _with_dtype(net.init_model(config, seed=0), np.float32)
    feats = np.random.default_rng(0).standard_normal((4000, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        probs, penultimate, caches = net._forward(model, feats)
        cached_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    io_bytes = feats.nbytes + penultimate.nbytes + sum(p.nbytes for p in probs)
    activation = feats.shape[0] * config.channels * 4
    num_stacks = 3
    assert cached_peak < 2.5 * num_stacks * config.layers_per_stage * activation + io_bytes
    # each entry is (layer input, pre-activation, None): the ReLU output is recomputed
    stages = range(config.num_stages)
    prefixes = [prefix for stage in stages for prefix, *_ in net._stage_stacks(config, stage)]
    stacks = [stack for cache in caches for stack in cache["branches"]]
    assert len(prefixes) == len(stacks) == num_stacks
    for prefix, stack in zip(prefixes, stacks):
        assert len(stack["layers"]) == config.layers_per_stage
        for layer, entry in enumerate(stack["layers"]):
            assert len(entry) == 3 and entry[2] is None
            h, z, _ = entry
            dw, db = model.params[f"{prefix}.l{layer}.dw"], model.params[f"{prefix}.l{layer}.db"]
            assert np.array_equal(z, net._dilated_conv(h, dw, db, 1 << layer))


def test_forward_leaves_float32_features_unchanged():
    # channels == input_dim, and _check_input hands the caller's own array to
    # the stage loop, so an in-place op that aliased the input would show here
    config = _tiny_config(num_stages=2, layers_per_stage=3, channels=5)
    model = _with_dtype(net.init_model(config, seed=3), np.float32)
    feats = np.random.default_rng(6).standard_normal((30, 5)).astype(np.float32)
    assert net._check_input(model, feats) is feats
    before = feats.copy()
    net.forward(model, feats)
    np.testing.assert_array_equal(feats, before)


# ---------------------------------------------------------------------------
# dilated convolution

def _padded_conv(x, w, b, dilation):
    """The conv on an explicit zero-padded copy of x, every tap over all T rows."""
    num_frames, kernel = x.shape[0], w.shape[2]
    radius = dilation * (kernel - 1) // 2
    padded = np.zeros((num_frames + 2 * radius, x.shape[1]), dtype=x.dtype)
    padded[radius : radius + num_frames] = x
    out = np.broadcast_to(b, (num_frames, w.shape[0])).copy()
    for j in range(kernel):
        out += padded[j * dilation : j * dilation + num_frames] @ w[:, :, j].T
    return out


def _padded_conv_backward(dy, x, w, dilation):
    """The conv's (dw, db, dx) on an explicit zero-padded copy of x, every tap over all T rows."""
    num_frames, kernel = x.shape[0], w.shape[2]
    radius = dilation * (kernel - 1) // 2
    padded = np.zeros((num_frames + 2 * radius, x.shape[1]), dtype=x.dtype)
    padded[radius : radius + num_frames] = x
    dw = np.empty_like(w)
    dpadded = np.zeros_like(padded)
    for j in range(kernel):
        window = slice(j * dilation, j * dilation + num_frames)
        dw[:, :, j] = dy.T @ padded[window]
        dpadded[window] += dy @ w[:, :, j]
    return dw, dy.sum(axis=0), dpadded[radius : radius + num_frames]


def _frame_loop_conv(x, w, b, dilation):
    """out[t] = b + sum over taps j of w[:, :, j] @ x[t + j * dilation - radius], in-video taps only."""
    num_frames, kernel = x.shape[0], w.shape[2]
    radius = dilation * (kernel - 1) // 2
    out = np.empty((num_frames, w.shape[0]))
    for t in range(num_frames):
        acc = b.copy()
        for j in range(kernel):
            src = t + j * dilation - radius
            if 0 <= src < num_frames:
                acc = acc + w[:, :, j] @ x[src]
        out[t] = acc
    return out


def _conv_case(num_frames, kernel, dtype, channels=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_frames, channels)).astype(dtype)
    w = rng.standard_normal((channels + 2, channels, kernel)).astype(dtype)
    b = rng.standard_normal(channels + 2).astype(dtype)
    return x, w, b


# (T, kernel, dilation, channels) where every tap covers all frames or none:
# T = 1, kernel 1, dilation >= T, and a 10-layer stack's last dilation on T = 300
WHOLE_TAPS = [
    (1, 1, 1, 8), (1, 3, 1, 8), (1, 5, 4, 8), (7, 3, 7, 8), (7, 5, 8, 8),
    (50, 1, 1, 8), (50, 1, 16, 8), (300, 3, 512, 64), (300, 5, 512, 64),
]
# every off-centre tap covers only part of the video
PARTIAL_TAPS = [
    (num_frames, kernel, dilation, channels)
    for num_frames, channels in ((2, 8), (37, 8), (300, 64))
    for kernel in (3, 5)
    for dilation in (1, 2, 8, 64, 256)
    if dilation * (kernel - 1) // 2 < num_frames
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_frames,kernel,dilation,channels", WHOLE_TAPS)
def test_dilated_conv_bit_equal_to_padded_when_taps_are_whole(
    num_frames, kernel, dilation, channels, dtype
):
    # a skipped tap is one whose rows were all padding, which only added zeros
    x, w, b = _conv_case(num_frames, kernel, dtype, channels)
    got = net._dilated_conv(x, w, b, dilation)
    assert got.dtype == dtype
    assert np.array_equal(got, _padded_conv(x, w, b, dilation))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_frames,kernel,dilation,channels", PARTIAL_TAPS)
def test_dilated_conv_partial_taps_match_padded(num_frames, kernel, dilation, channels, dtype):
    # A partial tap is one GEMM over T - |shift| rows instead of T, and BLAS may
    # pick another kernel for that row count, so edge rows can round differently
    # from the padded form. With OpenBLAS 0.3.31 on an AVX-512 x86-64 CPU they
    # did at 64 channels for T = 19..39, and in a paper-size forward pass at
    # T = 530: equal up to rounding, not always bit-equal.
    x, w, b = _conv_case(num_frames, kernel, dtype, channels)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    got = net._dilated_conv(x, w, b, dilation)
    assert got.dtype == dtype
    np.testing.assert_allclose(got, _padded_conv(x, w, b, dilation), rtol=tol, atol=tol)


@pytest.mark.parametrize("num_frames,kernel,dilation,channels", WHOLE_TAPS + PARTIAL_TAPS)
def test_dilated_conv_matches_frame_loop_oracle(num_frames, kernel, dilation, channels):
    x, w, b = _conv_case(num_frames, kernel, np.float64, channels, seed=1)
    np.testing.assert_allclose(
        net._dilated_conv(x, w, b, dilation), _frame_loop_conv(x, w, b, dilation),
        rtol=1e-12, atol=1e-12,
    )


def _backward_case(num_frames, kernel, dtype, channels):
    x, w, _ = _conv_case(num_frames, kernel, dtype, channels)
    dy = np.random.default_rng(2).standard_normal((num_frames, channels + 2)).astype(dtype)
    return dy, x, w


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_frames,kernel,dilation,channels", WHOLE_TAPS)
def test_dilated_conv_backward_bit_equal_to_padded_when_taps_are_whole(
    num_frames, kernel, dilation, channels, dtype
):
    dy, x, w = _backward_case(num_frames, kernel, dtype, channels)
    got = net._dilated_conv_backward(dy, x, w, dilation)
    for name, a, b in zip(("dw", "db", "dx"), got, _padded_conv_backward(dy, x, w, dilation)):
        assert a.dtype == dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_frames,kernel,dilation,channels", PARTIAL_TAPS)
def test_dilated_conv_backward_partial_taps_match_padded(
    num_frames, kernel, dilation, channels, dtype
):
    # as in the forward: a partial tap's GEMM runs over T - |shift| rows, so
    # BLAS may round edge rows (dx) and whole sums (dw) differently
    dy, x, w = _backward_case(num_frames, kernel, dtype, channels)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    got = net._dilated_conv_backward(dy, x, w, dilation)
    for name, a, b in zip(("dw", "db", "dx"), got, _padded_conv_backward(dy, x, w, dilation)):
        assert a.dtype == dtype, name
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)


@pytest.mark.parametrize(
    "num_frames,kernel,dilation", [(1, 3, 1), (7, 3, 7), (7, 5, 8), (30, 5, 64)]
)
def test_dilated_conv_backward_skipped_tap_has_zero_weight_gradient(num_frames, kernel, dilation):
    # dilation >= T: every off-centre tap reads only padding, so its dw slice
    # is exactly 0 and dx comes from the centre tap alone
    dy, x, w = _backward_case(num_frames, kernel, np.float32, 8)
    dw, _, dx = net._dilated_conv_backward(dy, x, w, dilation)
    centre = kernel // 2
    for j in range(kernel):
        assert dw[:, :, j].any() == (j == centre), j
    assert np.array_equal(dx, dy @ w[:, :, centre])


# per dtype: its unsigned view, then the bits of the smallest subnormal, a NaN
# with a payload and a negative NaN
_RELU_BITS = {
    np.float32: ("<u4", 0x00000001, 0x7FC00001, 0xFFC00000),
    np.float64: ("<u8", 0x1, 0x7FF8000000000001, 0xFFF8000000000000),
}


def _relu_case(dtype):
    uint, tiny, nan, neg_nan = _RELU_BITS[dtype]
    subnormal, nan, neg_nan = np.array([tiny, nan, neg_nan], dtype=uint).view(dtype)
    specials = [0.0, -0.0, np.inf, -np.inf, nan, neg_nan, subnormal, -subnormal, 1.5, -2.5]
    z_values = np.array([*specials, np.finfo(dtype).tiny, -np.finfo(dtype).eps], dtype=dtype)
    dr_values = np.array(specials, dtype=dtype)
    dr, z = np.meshgrid(dr_values, z_values, indexing="ij")
    return np.ascontiguousarray(dr), np.ascontiguousarray(z), uint


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_is_the_where_select_bit_for_bit(dtype):
    # signed zeros, infinities, NaN payloads and subnormals in either array
    dr, z, uint = _relu_case(dtype)
    want = np.where(z > 0.0, dr, 0.0)
    assert want.dtype == dtype
    got = net._relu_backward(dr, z)
    assert got is dr  # the result is dr itself, masked in place
    assert np.array_equal(got.view(uint), want.view(uint))
    # the same on a random (T, C) layer, where z's sign is close to random
    rng = np.random.default_rng(12)
    z = rng.standard_normal((257, 19)).astype(dtype)
    dr = rng.standard_normal((257, 19)).astype(dtype)
    want = np.where(z > 0.0, dr, 0.0)
    assert np.array_equal(net._relu_backward(dr, z).view(uint), want.view(uint))


def test_loss_and_grad_bit_equal_with_the_where_select(monkeypatch):
    rng = np.random.default_rng(16)
    cases = []
    for trial in range(12):
        dtype = (np.float32, np.float64)[trial % 2]
        config = _random_config(rng)
        config = dataclasses.replace(config, num_stages=max(2, config.num_stages))
        model = _with_dtype(net.init_model(config, seed=trial), dtype)
        num_frames = int(rng.integers(1, 120))
        feats = rng.standard_normal((num_frames, config.input_dim)).astype(dtype)
        target = rng.integers(0, config.num_classes, size=num_frames)
        stamps = np.unique(rng.integers(0, num_frames, size=3))
        ts = _ts(stamps, target[stamps])
        cases.append((model, feats, target, ts, net.loss_and_grad(model, feats, target, None, ts)))
    monkeypatch.setattr(net, "_relu_backward", lambda dr, z: np.where(z > 0.0, dr, 0.0))
    for trial, (model, feats, target, ts, (value, grads)) in enumerate(cases):
        want_value, want = net.loss_and_grad(model, feats, target, None, ts)
        assert value == want_value, trial
        assert grads.keys() == want.keys()
        for key, grad in grads.items():
            assert grad.dtype == want[key].dtype and grad.tobytes() == want[key].tobytes(), (trial, key)


def _three_array_stack_backward(params, prefix, cache, dh, grads):
    """``net._stack_backward`` as it ran on a cache that also kept each ReLU output."""
    layers = [(h_in, z, np.maximum(z, 0.0)) for h_in, z, _ in cache["layers"]]
    for layer in range(len(layers) - 1, -1, -1):
        h_in, z, r = layers[layer]
        dilation = 1 << layer
        grads[f"{prefix}.l{layer}.pw"] += dh.T @ r
        grads[f"{prefix}.l{layer}.pb"] += dh.sum(axis=0)
        dz = net._relu_backward(dh @ params[f"{prefix}.l{layer}.pw"], z)
        dw, db, dx = net._dilated_conv_backward(dz, h_in, params[f"{prefix}.l{layer}.dw"], dilation)
        grads[f"{prefix}.l{layer}.dw"] += dw
        grads[f"{prefix}.l{layer}.db"] += db
        dx += dh
        dh = dx
    grads[f"{prefix}.proj.w"] += dh.T @ cache["x"]
    grads[f"{prefix}.proj.b"] += dh.sum(axis=0)
    return dh


def test_loss_and_grad_bit_equal_to_a_cache_that_keeps_the_relu_output(monkeypatch):
    # both dtypes, first-stage kernels 1, 3 and 5, two or more stages, and
    # T from 1 up, mostly shorter than the deepest layers' dilations
    rng = np.random.default_rng(19)
    cases = []
    for trial in range(18):
        dtype = (np.float32, np.float64)[trial % 2]
        kernels = (1, 3, 5)[trial // 2 % 3], int(rng.choice([1, 3, 5]))
        config = dataclasses.replace(
            _random_config(rng),
            num_stages=int(rng.integers(2, 4)),
            layers_per_stage=int(rng.integers(4, 8)),
            first_stage_kernels=kernels,
        )
        model = _with_dtype(net.init_model(config, seed=trial), dtype)
        num_frames = (1, 2, 5, 9)[trial % 4] if trial < 8 else int(rng.integers(1, 150))
        feats = rng.standard_normal((num_frames, config.input_dim)).astype(dtype)
        target = rng.integers(0, config.num_classes, size=num_frames)
        stamps = np.unique(rng.integers(0, num_frames, size=3))
        ts = _ts(stamps, target[stamps])
        cases.append((model, feats, target, ts, net.loss_and_grad(model, feats, target, None, ts)))
    assert {len(case[1]) for case in cases[:8]} == {1, 2, 5, 9}
    monkeypatch.setattr(net, "_stack_backward", _three_array_stack_backward)
    for trial, (model, feats, target, ts, (value, grads)) in enumerate(cases):
        want_value, want = net.loss_and_grad(model, feats, target, None, ts)
        assert value == want_value, trial
        assert grads.keys() == want.keys()
        for key, grad in grads.items():
            assert grad.dtype == want[key].dtype and grad.tobytes() == want[key].tobytes(), (trial, key)


def test_softmax_argmax_invariant_under_temperature():
    rng = np.random.default_rng(4)
    for _ in range(30):
        logits = rng.standard_normal((25, 6))
        scale = float(rng.uniform(0.1, 10.0))
        base = np.argmax(net.softmax_rows(logits), axis=1)
        scaled = np.argmax(net.softmax_rows(scale * logits), axis=1)
        np.testing.assert_array_equal(base, scaled)


# ---------------------------------------------------------------------------
# gradients

def _fd_check(model, feats, target, mask, ts, weights, eps=1e-4, floor=1e-6):
    value, grads = net.loss_and_grad(model, feats, target, mask, ts, weights)
    worst = 0.0
    for key in model.params:
        param = model.params[key]
        flat = param.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = net.loss_value(model, feats, target, mask, ts, weights)
            flat[idx] = orig - eps
            down = net.loss_value(model, feats, target, mask, ts, weights)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[idx]
            denom = max(abs(numeric), abs(analytic), floor)
            worst = max(worst, abs(numeric - analytic) / denom)
    return value, worst


def test_gradients_match_finite_differences_tiny():
    config = _tiny_config(num_stages=1, layers_per_stage=2, channels=4, input_dim=3)
    model = net.init_model(config, seed=11)
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((8, 3))
    target = rng.integers(0, 3, size=8)
    ts = _ts([1, 4, 6], [0, 1, 2])
    weights = LossWeights(alpha=0.15, beta=0.075, tau=4.0)
    value, worst = _fd_check(model, feats, target, None, ts, weights)
    assert np.isfinite(value)
    assert worst < 1e-3


def test_gradients_multistage_with_mask():
    config = _tiny_config(num_stages=2, layers_per_stage=1, channels=3, input_dim=2)
    model = net.init_model(config, seed=13)
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((7, 2))
    target = rng.integers(0, 3, size=7)
    _, worst = _fd_check(model, feats, target, {1, 4, 6}, None, LossWeights(alpha=0.1, beta=0.0))
    assert worst < 1e-3


def test_empty_mask_gives_zero_loss_and_grads():
    model = net.init_model(_tiny_config(), seed=1)
    feats = np.random.default_rng(0).standard_normal((10, 5))
    value, grads = net.loss_and_grad(
        model, feats, np.zeros(10, dtype=int), set(), None, LossWeights(alpha=0.0, beta=0.0)
    )
    assert value == 0.0
    for g in grads.values():
        assert not g.any()


def test_mask_listing_a_frame_twice_is_refused():
    model = net.init_model(_tiny_config(), seed=1)
    feats = np.random.default_rng(0).standard_normal((10, 5))
    with pytest.raises(ValueError, match="^mask lists frame 3 more than once$"):
        net.loss_and_grad(model, feats, np.zeros(10, dtype=int), [3, 3, 1], None)


def test_saturated_correct_prediction_near_zero():
    model = net.init_model(_tiny_config(num_stages=1), seed=3)
    feats = np.random.default_rng(5).standard_normal((15, 5))
    model.params["s0.cls.w"] *= 2000.0  # saturate the softmax
    probs = net.forward(model, feats).probs[-1]
    target = np.argmax(probs, axis=1)
    value, grads = net.loss_and_grad(
        model, feats, target, None, None, LossWeights(alpha=0.0, beta=0.0)
    )
    assert value < 1e-3
    assert max(np.abs(g).max() for g in grads.values()) < 1e-3


def test_target_function_sees_the_same_pass():
    config = _tiny_config(num_stages=2, layers_per_stage=2)
    model = net.init_model(config, seed=5)
    feats = np.random.default_rng(6).standard_normal((20, 5))
    ts = _ts([3, 9, 15], [0, 2, 1])
    calls = []

    def fn(outputs):
        calls.append(outputs)
        shifted = outputs.probs[-1] + 0.01 * outputs.penultimate[:, :3]
        return np.argmax(shifted, axis=1)

    value, grads = net.loss_and_grad(model, feats, fn, None, ts)
    assert len(calls) == 1
    labels = fn(net.forward(model, feats))
    ref_value, ref_grads = net.loss_and_grad(model, feats, labels, None, ts)
    assert value == ref_value
    for key in ref_grads:
        np.testing.assert_array_equal(grads[key], ref_grads[key])


def test_loss_value_is_the_loss_of_loss_and_grad_on_the_cache_free_pass(monkeypatch):
    real_forward = net._forward
    keeps = []

    def forward_spy(model, features, keep=True):
        keeps.append(keep)
        return real_forward(model, features, keep)

    monkeypatch.setattr(net, "_forward", forward_spy)
    rng = np.random.default_rng(17)
    for trial in range(16):
        dtype = (np.float32, np.float64)[trial % 2]
        config = _random_config(rng)
        model = _with_dtype(net.init_model(config, seed=trial), dtype)
        num_frames = int(rng.integers(1, 120))
        feats = rng.standard_normal((num_frames, config.input_dim))
        stamps = np.sort(rng.choice(num_frames, size=min(num_frames, 4), replace=False))
        ts = _ts(stamps, rng.integers(0, config.num_classes, size=len(stamps)))
        labels = rng.integers(0, config.num_classes, size=num_frames)
        mask = None if trial % 4 < 2 else set(stamps.tolist())
        for target in (labels, lambda out: np.argmax(out.probs[-1], axis=1)):
            keeps.clear()
            value = net.loss_value(model, feats, target, mask, ts)
            assert keeps == [False]
            assert value == net.loss_and_grad(model, feats, target, mask, ts)[0], (trial, config)


def _three_videos(rng, config):
    videos = []
    for num_frames in (1, 37, 90):
        feats = rng.standard_normal((num_frames, config.input_dim)).astype(np.float32)
        target = rng.integers(0, config.num_classes, size=num_frames)
        stamps = np.unique(rng.integers(0, num_frames, size=4))
        videos.append((feats, target, _ts(stamps, target[stamps])))
    return videos


def test_loss_and_grad_adds_into_a_float64_batch_sum_bit_for_bit():
    # a float32 model as training runs it; the sum it replaces widened each
    # video's fresh float32 gradients into the batch, video after video
    rng = np.random.default_rng(22)
    for trial in range(6):
        config = dataclasses.replace(_random_config(rng), num_stages=int(rng.integers(2, 4)))
        model = _with_dtype(net.init_model(config, seed=trial), np.float32)
        videos = _three_videos(rng, config)
        want = {key: np.zeros(p.shape) for key, p in model.params.items()}
        want_values = []
        for feats, target, ts in videos:
            value, grads = net.loss_and_grad(model, feats, target, None, ts)
            want_values.append(value)
            for key in want:
                want[key] += grads[key]
        batch = {key: np.zeros(p.shape) for key, p in model.params.items()}
        for (feats, target, ts), want_value in zip(videos, want_values):
            value, returned = net.loss_and_grad(model, feats, target, None, ts, LossWeights(), batch)
            assert returned is batch and value == want_value, trial
        assert batch.keys() == want.keys()
        for key, grad in batch.items():
            assert grad.dtype == np.float64 and grad.tobytes() == want[key].tobytes(), (trial, key)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_and_grad_without_a_batch_sum_returns_fresh_gradients(dtype):
    model, feats, ts = _dtype_case()
    model = _with_dtype(model, dtype)
    target = np.random.default_rng(6).integers(0, 3, size=len(feats))
    _, first = net.loss_and_grad(model, feats, target, None, ts)
    _, second = net.loss_and_grad(model, feats, target, None, ts)
    assert first is not second and first.keys() == model.params.keys()
    for key, grad in first.items():
        assert grad.dtype == dtype and grad.shape == model.params[key].shape, key
        assert not np.shares_memory(grad, second[key]), key
        assert not np.shares_memory(grad, model.params[key]), key
        assert grad.tobytes() == second[key].tobytes(), key


def test_loss_and_grad_into_a_batch_sum_allocates_no_gradient_set():
    # 4 x 4 x 32, T = 400, float32: the gradient set is 0.36 MiB. With the
    # batch sum allocated before tracing starts, the call's peak falls by all
    # of it: measured tracemalloc peaks 3.02 MiB without, 2.64 MiB with.
    config = net.ModelConfig(
        input_dim=32, num_classes=5, num_stages=4, layers_per_stage=4, channels=32
    )
    model = _with_dtype(net.init_model(config, seed=0), np.float32)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((400, 32)).astype(np.float32)
    target = rng.integers(0, 5, size=400)
    ts = _ts([50, 200, 350], target[[50, 200, 350]])
    batch = {key: np.zeros(p.shape) for key, p in model.params.items()}

    def peak(*extra):
        tracemalloc.start()
        try:
            net.loss_and_grad(model, feats, target, None, ts, LossWeights(), *extra)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    gradient_set = sum(p.size for p in model.params.values()) * 4
    assert peak() - peak(batch) > 0.75 * gradient_set


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_reports_stage():
    model = net.init_model(_tiny_config(num_stages=2), seed=3)
    model.params["s1.cls.b"][:] = np.inf
    feats = np.random.default_rng(1).standard_normal((6, 5))
    with pytest.raises(FloatingPointError, match="stage 1"):
        net.loss_and_grad(model, feats, np.zeros(6, dtype=int))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loss_overflow_from_finite_probabilities_reports_stage():
    # a finite alpha near the float64 maximum overflows the T-MSE term, which
    # a saturated classifier makes large
    model = net.init_model(_tiny_config(), seed=3)
    model.params["s0.cls.w"] *= 1e3
    feats = np.random.default_rng(1).standard_normal((6, 5))
    probs = net.forward(model, feats).probs
    assert all(np.isfinite(p).all() for p in probs)
    with pytest.raises(FloatingPointError, match="^non-finite loss at stage 0$"):
        net.loss_and_grad(model, feats, np.zeros(6, dtype=int), weights=LossWeights(alpha=1e308))


# ---------------------------------------------------------------------------
# compute dtype

def _with_dtype(model, dtype):
    return net.ModelState(model.config, {k: v.astype(dtype) for k, v in model.params.items()})


def _dtype_case():
    model = net.init_model(_tiny_config(num_stages=2, layers_per_stage=3), seed=4)
    feats = np.random.default_rng(4).standard_normal((40, 5))
    ts = _ts([3, 20, 35], [0, 2, 1])
    return model, feats, ts


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_network_computes_in_its_parameters_dtype(dtype, monkeypatch):
    model, feats, ts = _dtype_case()
    model = _with_dtype(model, dtype)
    outputs = net.forward(model, feats)
    assert {p.dtype for p in outputs.probs} == {np.dtype(dtype)}
    assert outputs.penultimate.dtype == dtype
    # the loss hands back dprobs in the network's dtype, so the backward pass is
    # not promoted; the gradient dicts alone would not show it, as += casts back
    seen = []
    real_softmax, real_conv = net._softmax_backward, net._dilated_conv_backward

    def softmax_spy(*args):
        out = real_softmax(*args)
        seen.append(out.dtype)
        return out

    def conv_spy(*args):
        out = real_conv(*args)
        seen.extend(a.dtype for a in out)  # dw, db, dx
        return out

    monkeypatch.setattr(net, "_softmax_backward", softmax_spy)
    monkeypatch.setattr(net, "_dilated_conv_backward", conv_spy)
    value, grads = net.loss_and_grad(
        model, feats, lambda out: np.argmax(out.probs[-1], axis=1), None, ts
    )
    assert isinstance(value, float)
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
    # one softmax per stage; three stacks of three layers, three arrays each
    assert len(seen) == 2 + 9 * 3 and set(seen) == {np.dtype(dtype)}


def test_float32_gradients_agree_with_float64():
    # the same float32-representable weights, run once in each precision:
    # every gradient within 1e-4 of its parameter's largest float64 entry
    model, feats, ts = _dtype_case()
    single = _with_dtype(model, np.float32)
    double = _with_dtype(single, np.float64)
    target = np.random.default_rng(5).integers(0, 3, size=40)
    value32, grads32 = net.loss_and_grad(single, feats, target, None, ts)
    value64, grads64 = net.loss_and_grad(double, feats, target, None, ts)
    assert value32 == pytest.approx(value64, rel=1e-5)
    for key, want in grads64.items():
        scale = max(float(np.abs(want).max()), 1e-12)
        assert float(np.abs(grads32[key] - want).max()) <= 1e-4 * scale, key


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_grad_keeps_params():
    model = net.init_model(_tiny_config(), seed=9)
    before = {k: v.copy() for k, v in model.params.items()}
    zero = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam = net.AdamState.zeros(model.params)
    net.adam_step(model, adam, zero, lr=0.01)
    assert adam.step == 1
    for key in before:
        np.testing.assert_array_equal(model.params[key], before[key])


def test_adam_first_step_magnitude():
    config = _tiny_config()
    model = net.init_model(config, seed=0)
    key = "s0.cls.b"
    start = model.params[key].copy()
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    grads[key] = np.ones_like(model.params[key])
    adam = net.AdamState.zeros(model.params)
    net.adam_step(model, adam, grads, lr=0.0005)
    assert adam.step == 1
    expected = 0.0005 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(start - model.params[key], expected, rtol=1e-12)


def test_adam_descends_convex_quadratic():
    config = net.ModelConfig(input_dim=1, num_classes=1, num_stages=1, layers_per_stage=1, channels=1)
    model = net.init_model(config, seed=0)
    adam = net.AdamState.zeros(model.params)
    x = np.array([1.0])
    losses = []
    for _ in range(100):
        losses.append(float(x[0] ** 2))
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        grads["s0.cls.b"] = np.array([2.0 * x[0]])
        saved = model.params["s0.cls.b"].copy()
        model.params["s0.cls.b"][:] = x
        net.adam_step(model, adam, grads, lr=0.005)
        x = model.params["s0.cls.b"].copy()
        model.params["s0.cls.b"][:] = saved
    diffs = np.diff([l for l in losses])
    assert np.all(diffs < 0.0)
    assert adam.step == 100


def test_adam_nonfinite_update_raises():
    model = net.init_model(_tiny_config(), seed=2)
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    grads["s0.cls.b"] = np.full_like(model.params["s0.cls.b"], np.nan)
    with pytest.raises(FloatingPointError, match="s0.cls.b"):
        net.adam_step(model, net.AdamState.zeros(model.params), grads, lr=0.001)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    config = _tiny_config(num_stages=2, layers_per_stage=2)
    model = net.init_model(config, seed=21)
    grads = {k: np.full_like(v, 0.125) for k, v in model.params.items()}
    net.adam_step(model, net.AdamState.zeros(model.params), grads, lr=0.001)
    path = tmp_path / "model.tsm"
    net.save_model(model, path)
    # magic, eight u32 config fields, float32 parameters, nothing else
    num_params = sum(v.size for v in model.params.values())
    assert path.stat().st_size == 4 + 32 + 4 * num_params
    loaded = net.load_model(path)
    assert loaded.config == config
    for key in model.params:
        np.testing.assert_allclose(loaded.params[key], model.params[key], atol=1e-6)
    # float32 storage is exact on resave
    path2 = tmp_path / "model2.tsm"
    net.save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_model_returns_the_stored_float32(tmp_path):
    config = _tiny_config(num_stages=2, layers_per_stage=2)
    path = tmp_path / "m.tsm"
    net.save_model(net.init_model(config, seed=2), path)
    raw = path.read_bytes()
    loaded = net.load_model(path)
    offset = 36
    for key, shape in net.param_shapes(config).items():
        param = loaded.params[key]
        stored = np.frombuffer(raw, dtype="<f4", count=param.size, offset=offset)
        assert param.dtype == np.float32 and param.shape == shape
        assert param.flags.writeable
        assert param.tobytes() == stored.tobytes()
        offset += 4 * param.size
    assert offset == len(raw)


def test_param_shapes_order_is_the_checkpoint_layout():
    # save_model writes the parameters in exactly this order
    config = _tiny_config(num_stages=2, layers_per_stage=1)
    assert list(net.param_shapes(config).items()) == [
        ("s0.b0.proj.w", (4, 5)),
        ("s0.b0.proj.b", (4,)),
        ("s0.b0.l0.dw", (4, 4, 5)),
        ("s0.b0.l0.db", (4,)),
        ("s0.b0.l0.pw", (4, 4)),
        ("s0.b0.l0.pb", (4,)),
        ("s0.b1.proj.w", (4, 5)),
        ("s0.b1.proj.b", (4,)),
        ("s0.b1.l0.dw", (4, 4, 3)),
        ("s0.b1.l0.db", (4,)),
        ("s0.b1.l0.pw", (4, 4)),
        ("s0.b1.l0.pb", (4,)),
        ("s0.cls.w", (3, 4)),
        ("s0.cls.b", (3,)),
        ("s1.proj.w", (4, 3)),
        ("s1.proj.b", (4,)),
        ("s1.l0.dw", (4, 4, 3)),
        ("s1.l0.db", (4,)),
        ("s1.l0.pw", (4, 4)),
        ("s1.l0.pb", (4,)),
        ("s1.cls.w", (3, 4)),
        ("s1.cls.b", (3,)),
    ]


def test_checkpoint_forward_agrees_after_roundtrip(tmp_path):
    model = net.init_model(_tiny_config(num_stages=2), seed=8)
    feats = np.random.default_rng(3).standard_normal((30, 5))
    want = net.forward(model, feats).probs[-1]
    path = tmp_path / "m.tsm"
    net.save_model(model, path)
    got = net.forward(net.load_model(path), feats).probs[-1]
    np.testing.assert_allclose(got, want, atol=1e-5)


def _saved_bytes(tmp_path):
    path = tmp_path / "m.tsm"
    net.save_model(net.init_model(_tiny_config(), seed=1), path)
    return path, path.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path, raw = _saved_bytes(tmp_path)
    # junk, and the older TSM1 format, which also held Adam state
    for bad in (b"JUNKJUNKJUNK" + b"\x00" * 64, b"TSM1" + raw[4:]):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="magic"):
            net.load_model(path)


def test_checkpoint_truncated(tmp_path):
    path, raw = _saved_bytes(tmp_path)
    for bad, message in [
        (raw[:20], "truncated header"),
        (raw[: len(raw) // 2], "truncated parameter payload"),
        (raw[:-1], "truncated parameter payload"),
        (raw + b"\x00", "size mismatch"),
    ]:
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=message):
            net.load_model(path)


def test_checkpoint_impossible_header_refused_before_param_table(tmp_path, monkeypatch):
    path, raw = _saved_bytes(tmp_path)
    real = net.param_shapes

    def guarded(config):
        if config.layers_per_stage > 1000:
            raise AssertionError("parameter table built for an impossible header")
        return real(config)

    monkeypatch.setattr(net, "param_shapes", guarded)
    header = np.frombuffer(raw, dtype="<u4", count=8, offset=4).copy()
    header[1] = 2**31  # layers_per_stage
    path.write_bytes(raw[:4] + header.tobytes() + raw[36:])
    with pytest.raises(ValueError, match="truncated parameter payload"):
        net.load_model(path)


def test_checkpoint_invalid_config_names_the_file(tmp_path):
    path, raw = _saved_bytes(tmp_path)
    for field, value, message in [(0, 0, "num_stages must be >= 1"), (3, 4, "odd")]:
        header = np.frombuffer(raw, dtype="<u4", count=8, offset=4).copy()
        header[field] = value
        path.write_bytes(raw[:4] + header.tobytes() + raw[36:])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            net.load_model(path)


def test_load_model_closes_its_file(tmp_path):
    path, _ = _saved_bytes(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net.load_model(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, failure):
    path, before = _saved_bytes(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsm"]
    if failure == "write":
        real_open = open

        class FullDisk:
            def __init__(self, file, mode):
                self.fh = real_open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:10])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(net, "open", FullDisk, raising=False)
    else:

        def refuse(src, dst):
            raise OSError(errno.EIO, "replace failed")

        monkeypatch.setattr(net.os, "replace", refuse)
    with pytest.raises(OSError):
        net.save_model(net.init_model(_tiny_config(), seed=2), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsm"]
