"""Multi-stage dilated temporal convolutional model with hand-derived gradients.

Every stage maps a per-frame input to per-frame class probabilities: one or
more residual stacks (a 1x1 input projection, then a chain of dilated residual
layers whose dilation doubles per layer), their activations summed, then a 1x1
classifier followed by a row-wise softmax. ``_stage_stacks`` is the one place
that lays the stages out: the first stage runs one stack per first-stage
kernel over the input features, and every later stage runs one stack over the
previous stage's probabilities. All convolutions use zero "same" padding, so
sequence length is preserved. Neither direction pads a copy with zeros: a
tap reads and writes only its in-video rows (``_taps``), and a tap wholly
outside is skipped, equal to explicit padding up to BLAS rounding at edges.

``_forward`` runs the stages once, keeping by default the per-layer caches
that the backward pass reads: each layer's input and its pre-activation ``z``
(25.6 kB per frame at paper size, float32). The ReLU output is not kept; the
backward pass recomputes it as ``max(z, 0)``, the forward pass's own
operation, so the gradients are the same bits as from a cache that kept it.
``forward``, the inference pass, runs the same loop with ``keep=False``: no
cache, the ReLU and residual sums in place, memory O(T x channels) plus the
input, and outputs bit-equal to the cached pass's. ``loss_value`` runs that
cache-free pass too; only ``loss_and_grad`` keeps the caches.

Gradients are computed by explicit reverse-mode passes written against the
forward code; there is no autodiff involved. Parameters live in a flat dict
keyed by a stable naming scheme (see ``param_shapes``), which also fixes the
serialization order of checkpoints.

The network computes in the dtype of its parameters: the input features are
cast to it (a no-op for the float32 frames ``data.load_features`` returns and
a float32 model), and the forward activations, the loss's dprobs, the
backward pass and the gradients stay in it. ``init_model`` gives float64
parameters, which the gradient checks use and which ``pipeline.train`` keeps
as its optimiser's master weights; every model that training hands out, and
every model ``load_model`` reads, is float32.
"""

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TimestampSet
from .loss import LossWeights, total_loss_grad

CHECKPOINT_MAGIC = b"TSM2"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    num_classes: int
    num_stages: int = 4
    layers_per_stage: int = 10
    channels: int = 64
    first_stage_kernels: tuple[int, int] = (5, 3)
    later_kernel: int = 3

    def __post_init__(self):
        for name in ("input_dim", "num_classes", "num_stages", "layers_per_stage", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        object.__setattr__(self, "first_stage_kernels", tuple(self.first_stage_kernels))
        if len(self.first_stage_kernels) != 2:
            raise ValueError("first_stage_kernels must be a pair")
        for k in (*self.first_stage_kernels, self.later_kernel):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"kernel sizes must be odd and >= 1, got {k}")


@dataclass
class AdamState:
    """Training-only optimizer state: both moments per parameter, steps taken."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class ModelState:
    config: ModelConfig
    params: dict[str, np.ndarray]


@dataclass
class StageOutputs:
    """Per-stage probabilities plus the last stage's pre-classifier activation."""

    probs: list[np.ndarray]
    penultimate: np.ndarray


def _stage_stacks(config: ModelConfig, stage: int) -> list[tuple[str, int, int]]:
    """(prefix, input width, kernel) of each residual stack that ``stage`` runs."""
    if stage == 0:
        return [
            (f"s0.b{branch}", config.input_dim, kernel)
            for branch, kernel in enumerate(config.first_stage_kernels)
        ]
    return [(f"s{stage}", config.num_classes, config.later_kernel)]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter order: stage-major, stack-major, layer-major, weight before bias."""
    width = config.channels
    shapes: dict[str, tuple[int, ...]] = {}
    for stage in range(config.num_stages):
        for prefix, in_dim, kernel in _stage_stacks(config, stage):
            shapes[f"{prefix}.proj.w"] = (width, in_dim)
            shapes[f"{prefix}.proj.b"] = (width,)
            for layer in range(config.layers_per_stage):
                shapes[f"{prefix}.l{layer}.dw"] = (width, width, kernel)
                shapes[f"{prefix}.l{layer}.db"] = (width,)
                shapes[f"{prefix}.l{layer}.pw"] = (width, width)
                shapes[f"{prefix}.l{layer}.pb"] = (width,)
        shapes[f"s{stage}.cls.w"] = (config.num_classes, width)
        shapes[f"s{stage}.cls.b"] = (config.num_classes,)
    return shapes


def init_model(config: ModelConfig, seed: int = 0) -> ModelState:
    """Fan-in scaled uniform weights and zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(config).items():
        if key.endswith("b"):
            params[key] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = 1.0 / math.sqrt(fan_in)
            params[key] = rng.uniform(-bound, bound, size=shape)
    return ModelState(config=config, params=params)


# ---------------------------------------------------------------------------
# primitive ops

def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _softmax_backward(probs, dprobs):
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


def _taps(num_frames: int, kernel: int, dilation: int):
    """(j, output rows, input rows) of every tap that reads frames inside the video.

    Output frame t reads frame t + j * dilation - radius at tap j.
    """
    radius = dilation * (kernel - 1) // 2
    for j in range(kernel):
        shift = j * dilation - radius
        lo, hi = max(0, -shift), min(num_frames, num_frames - shift)
        if lo < hi:
            yield j, slice(lo, hi), slice(lo + shift, hi + shift)


def _relu_backward(dr, z):
    """``np.where(z > 0.0, dr, 0.0)`` bit for bit, written into ``dr``, which it returns."""
    # np.where branches on every element's sign, which is close to random; a mask does not
    bits = dr.view(f"u{dr.itemsize}")
    bits &= -(z > 0.0).astype(bits.dtype)  # all ones where z > 0, else 0
    return dr


def _dilated_conv(x, w, b, dilation: int):
    # x: (T, Cin), w: (Cout, Cin, k) -> (T, Cout)
    out = np.empty((x.shape[0], w.shape[0]), b.dtype)
    out[...] = b
    for j, rows, src in _taps(x.shape[0], w.shape[2], dilation):
        out[rows] += x[src] @ w[:, :, j].T
    return out


def _dilated_conv_backward(dy, x, w, dilation: int):
    dw = np.zeros(w.shape, w.dtype)  # a tap left out reads only zeros: its slice stays 0
    dx = np.zeros(x.shape, x.dtype)
    for j, rows, src in _taps(x.shape[0], w.shape[2], dilation):
        dw[:, :, j] = dy[rows].T @ x[src]
        dx[src] += dy[rows] @ w[:, :, j]
    return dw, dy.sum(axis=0), dx


# ---------------------------------------------------------------------------
# forward / backward

def _stack_forward(params, prefix: str, x, layers: int, keep: bool):
    """The stack's output and, when ``keep``, the cache its backward pass reads.

    Without ``keep`` no layer's activations outlive the next layer, so the
    ReLU and the residual sum run in place; the arithmetic is the same.
    """
    h = x @ params[f"{prefix}.proj.w"].T + params[f"{prefix}.proj.b"]
    layer_cache = []
    for layer in range(layers):
        dilation = 1 << layer
        z = _dilated_conv(h, params[f"{prefix}.l{layer}.dw"], params[f"{prefix}.l{layer}.db"], dilation)
        r = np.maximum(z, 0.0, out=None if keep else z)
        u = r @ params[f"{prefix}.l{layer}.pw"].T
        u += params[f"{prefix}.l{layer}.pb"]
        if keep:
            layer_cache.append((h, z, None))  # r is max(z, 0): the backward pass recomputes it
            h = h + u
        else:
            h += u
    return h, ({"x": x, "layers": layer_cache} if keep else None)


def _stack_backward(params, prefix: str, cache, dh, grads):
    for layer in range(len(cache["layers"]) - 1, -1, -1):
        h_in, z, _ = cache["layers"][layer]
        dilation = 1 << layer
        grads[f"{prefix}.l{layer}.pw"] += dh.T @ np.maximum(z, 0.0)
        grads[f"{prefix}.l{layer}.pb"] += dh.sum(axis=0)
        dz = _relu_backward(dh @ params[f"{prefix}.l{layer}.pw"], z)
        dw, db, dx = _dilated_conv_backward(dz, h_in, params[f"{prefix}.l{layer}.dw"], dilation)
        grads[f"{prefix}.l{layer}.dw"] += dw
        grads[f"{prefix}.l{layer}.db"] += db
        dx += dh  # conv path plus residual path; dh may be the caller's array
        dh = dx
    grads[f"{prefix}.proj.w"] += dh.T @ cache["x"]
    grads[f"{prefix}.proj.b"] += dh.sum(axis=0)
    return dh  # at the projection's output; the stack's input gradient is dh @ proj.w


def _check_input(model: ModelState, features) -> np.ndarray:
    """The features as a (T, input_dim) array in the dtype of the model's parameters."""
    input_dim = model.config.input_dim
    features = np.asarray(features, dtype=model.params["s0.cls.w"].dtype)
    if features.ndim != 2 or features.shape[1] != input_dim:
        raise ValueError(f"features of shape {features.shape}, the model takes (T, {input_dim})")
    if features.shape[0] < 1:
        raise ValueError("features must be a (T, D) array with T >= 1")
    if not np.isfinite(features).all():
        raise ValueError("non-finite value in input features")
    return features


def _forward(model: ModelState, features, keep: bool = True):
    """Every stage's probabilities, the penultimate activation, per-stage caches.

    The caches are what ``_backward`` reads; with ``keep=False`` none is built
    and the list comes back empty.
    """
    config, params = model.config, model.params
    stage_caches = []
    probs_list = []
    x = features
    for stage in range(config.num_stages):
        act = None
        branches = []
        for prefix, *_ in _stage_stacks(config, stage):
            h, cache = _stack_forward(params, prefix, x, config.layers_per_stage, keep)
            act = h if act is None else act + h
            branches.append(cache)
        x = softmax_rows(act @ params[f"s{stage}.cls.w"].T + params[f"s{stage}.cls.b"])
        probs_list.append(x)
        if keep:
            stage_caches.append({"branches": branches, "act": act, "probs": x})
    return probs_list, act, stage_caches


def _backward(model: ModelState, stage_caches, dprobs_list, grads=None):
    """Every parameter's gradient added into ``grads``, or into fresh zeros in its dtype.

    Each key receives exactly one ``+=`` per call.
    """
    config, params = model.config, model.params
    if grads is None:
        grads = {key: np.zeros(value.shape, value.dtype) for key, value in params.items()}
    above = []  # (prefix, projection-output gradient) of each stack of the stage above
    for stage in range(config.num_stages - 1, -1, -1):
        cache = stage_caches[stage]
        dprobs = dprobs_list[stage]
        for prefix, dh in above:
            dprobs = dprobs + dh @ params[f"{prefix}.proj.w"]
        dz = _softmax_backward(cache["probs"], dprobs)
        grads[f"s{stage}.cls.w"] += dz.T @ cache["act"]
        grads[f"s{stage}.cls.b"] += dz.sum(axis=0)
        dact = dz @ params[f"s{stage}.cls.w"]
        stacks = zip(_stage_stacks(config, stage), cache["branches"])
        above = [
            (prefix, _stack_backward(params, prefix, stack_cache, dact, grads))
            for (prefix, *_), stack_cache in stacks
        ]
    return grads


def forward(model: ModelState, features) -> StageOutputs:
    """Pure inference pass: no backward cache, outputs bit-equal to ``_forward``'s."""
    features = _check_input(model, features)
    probs_list, penultimate, _ = _forward(model, features, keep=False)
    return StageOutputs(probs=probs_list, penultimate=penultimate)


def _summed_loss(outputs: StageOutputs, target, mask, timestamps, weights):
    """The loss of one pass summed over its stages, and each stage's dprobs.

    A stage's non-finite probabilities (a diverged model) are refused as a
    FloatingPointError before ``target`` sees the pass, so a label rule never
    reads diverged activations. A stage's loss can still overflow from finite
    probabilities when a loss weight is near the float64 maximum, so each
    stage's value is checked too.
    """
    for stage, probs in enumerate(outputs.probs):
        if not np.isfinite(probs).all():
            raise FloatingPointError(f"non-finite probabilities at stage {stage}")
    if callable(target):
        target = target(outputs)
    total = 0.0
    dprobs_list = []
    for stage, probs in enumerate(outputs.probs):
        value, dprobs = total_loss_grad(probs, target, mask, timestamps, weights)
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite loss at stage {stage}")
        total += value
        dprobs_list.append(dprobs)
    return total, dprobs_list


def loss_and_grad(
    model: ModelState,
    features,
    target,
    mask=None,
    timestamps: TimestampSet | None = None,
    weights: LossWeights = LossWeights(),
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Total loss summed over every stage's probabilities, plus exact gradients.

    ``target`` is either the frame labels or a function of this call's own
    forward pass: it receives the pass's ``StageOutputs`` once, before the
    loss, and returns the labels. A training step that derives its labels
    from the model's outputs thus runs the network once.

    Without ``grads`` the gradients come back as fresh arrays in the
    parameters' dtype. With ``grads``, a dict of arrays shaped like the
    parameters (``pipeline.train`` passes its float64 batch sum), the backward
    pass adds each gradient into it as it is made, and returns that dict.
    No per-call gradient set is allocated, and a sum started from zeros gets
    the same bits as adding the fresh gradients into it would give (those
    differ only where a -0.0 would meet a -0.0, which such a sum never holds).
    """
    features = _check_input(model, features)
    probs_list, penultimate, stage_caches = _forward(model, features)
    outputs = StageOutputs(probs=probs_list, penultimate=penultimate)
    total, dprobs_list = _summed_loss(outputs, target, mask, timestamps, weights)
    return total, _backward(model, stage_caches, dprobs_list, grads)


def loss_value(
    model: ModelState,
    features,
    target,
    mask=None,
    timestamps: TimestampSet | None = None,
    weights: LossWeights = LossWeights(),
) -> float:
    """``loss_and_grad``'s loss on the cache-free ``forward`` pass (for gradient checks)."""
    return _summed_loss(forward(model, features), target, mask, timestamps, weights)[0]


# ---------------------------------------------------------------------------
# optimizer

def adam_step(model: ModelState, adam: AdamState, grads: dict[str, np.ndarray], lr: float) -> None:
    """One Adam update with bias correction; mutates the model and ``adam``."""
    adam.step += 1
    corr1 = 1.0 - ADAM_BETA1**adam.step
    corr2 = 1.0 - ADAM_BETA2**adam.step
    for key, param in model.params.items():
        grad = grads[key]
        m = adam.m[key]
        v = adam.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        update = lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        if not np.isfinite(update).all():
            raise FloatingPointError(f"non-finite update for parameter {key}")
        param -= update


# ---------------------------------------------------------------------------
# checkpoints

def save_model(model: ModelState, path) -> None:
    """Binary checkpoint of the model alone: magic, config as u32s, params.

    Config order: num_stages, layers_per_stage, channels, both first-stage
    kernels, later_kernel, input_dim, num_classes. The parameters follow as
    float32 little-endian in ``param_shapes`` order, and nothing else; the
    file is 36 + 4 * (number of parameters) bytes. Optimizer state is not
    saved.

    The bytes go to a temporary file beside ``path``, which then replaces
    ``path``: a save that fails or is killed leaves the previous file whole,
    and one that fails removes its temporary file.
    """
    config = model.config
    header = np.array(
        [
            config.num_stages,
            config.layers_per_stage,
            config.channels,
            config.first_stage_kernels[0],
            config.first_stage_kernels[1],
            config.later_kernel,
            config.input_dim,
            config.num_classes,
        ],
        dtype="<u4",
    )
    chunks = [CHECKPOINT_MAGIC, header.tobytes()]
    for key in param_shapes(config):
        chunks.append(model.params[key].astype("<f4").tobytes())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path) -> ModelState:
    """Read a ``save_model`` checkpoint; parameters come back as the float32 it stores.

    The parameters are writable views of one float32 array, bit-equal to the
    file, so the model runs its forward pass in float32 and saving it again
    writes the same bytes.

    Refuses a file with another magic (an older format included), a short
    header, or any size other than the one its config implies.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic, not a model checkpoint")
    if len(raw) < 4 + 8 * 4:
        raise ValueError(f"{path}: truncated header")
    header = np.frombuffer(raw, dtype="<u4", count=8, offset=4)
    try:
        config = ModelConfig(
            num_stages=int(header[0]),
            layers_per_stage=int(header[1]),
            channels=int(header[2]),
            first_stage_kernels=(int(header[3]), int(header[4])),
            later_kernel=int(header[5]),
            input_dim=int(header[6]),
            num_classes=int(header[7]),
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    # every layer of each of the num_stages + 1 stacks holds at least 4 floats;
    # refuse before param_shapes builds a table the size the header claims
    least = 4 + 8 * 4 + 16 * config.layers_per_stage * (config.num_stages + 1)
    if least > len(raw):
        raise ValueError(
            f"{path}: truncated parameter payload, header needs at least {least} bytes"
        )
    shapes = param_shapes(config)
    sizes = [math.prod(shape) for shape in shapes.values()]
    need, have = 4 + 8 * 4 + 4 * sum(sizes), len(raw)
    if have != need:
        what = "truncated parameter payload" if have < need else "checkpoint size mismatch"
        raise ValueError(f"{path}: {what}, expected {need} bytes, found {have}")
    flat = np.frombuffer(raw, dtype="<f4", offset=4 + 8 * 4).astype(np.float32)
    pieces = np.split(flat, np.cumsum(sizes)[:-1])
    params = {key: piece.reshape(shape) for (key, shape), piece in zip(shapes.items(), pieces)}
    return ModelState(config=config, params=params)
