"""Minimal CNN engine: forward and reverse-mode gradients for the layer set
used by the classifier and its comparison models.

Layers operate on batched arrays [N, H, W, C] (or [N, features] after
Flatten) and return functional caches: a layer's backward reads only the
cache it is given.  The one state a Model keeps between calls is the caches
of its last train-mode forward, which its backward consumes.  Convolutions are
3x3, stride 1, zero same-padding with ReLU; pooling is 2x2 stride 2 with
floor semantics.  All parameter updates happen outside this module (see
trainer).
"""

from __future__ import annotations

import io
import math
import re
from typing import Callable

import numpy as np

from .errors import CheckpointMismatchError
from .fileio import write_file

BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5
# bytes of patch rows that one conv GEMM multiplies at a time: a larger
# batch's forward and input gradient run over balanced blocks of whole images
PATCH_BLOCK_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# Batched kernels


def _im2col(x: np.ndarray) -> np.ndarray:
    """[N,H,W,C] -> [N*H*W, 9*C] patches of the zero-padded input.

    The padded input is a zeroed array with x copied into its interior, and
    the [N,H,W,3,3,C] windows are an ndarray view of its buffer: `np.pad`
    and `as_strided` give the same bytes with about 30 µs more Python
    overhead per call, and a one-image saliency map makes ten calls."""
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2, w + 2, c), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    s = xp.strides
    cols = np.ndarray((n, h, w, 3, 3, c), dtype=xp.dtype, buffer=xp,
                      strides=(s[0], s[1], s[2], s[1], s[2], s[3]))
    return np.ascontiguousarray(cols).reshape(n * h * w, 9 * c)


def _patch_gemm(x: np.ndarray, w2d: np.ndarray) -> np.ndarray:
    """_im2col(x) @ w2d, [N*H*W, cols of w2d], multiplied one block of whole
    images at a time, each block straight into its rows of the output.

    A block's patches take at most PATCH_BLOCK_BYTES, or one image's when
    that is more, so no call holds the whole patch matrix.  The blocks are
    balanced: OpenBLAS rounds a GEMM with few rows differently from the same
    rows of a large one (measured at 1 and 2 threads), and a small last block
    would change the bits of its rows.  When split, each block holds at least
    about half of PATCH_BLOCK_BYTES."""
    n, h, wd, c = x.shape
    rows = h * wd
    per_block = max(1, PATCH_BLOCK_BYTES // (rows * 9 * c * x.itemsize))
    blocks = max(1, -(-n // per_block))
    out = np.empty((n * rows, w2d.shape[1]), dtype=np.result_type(x, w2d))
    bounds = [n * k // blocks for k in range(blocks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        np.matmul(_im2col(x[start:stop]), w2d, out=out[start * rows: stop * rows])
    return out


def conv2d_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padding stride-1 cross-correlation plus bias (no activation)."""
    n, h, wd, _ = x.shape
    cout = w.shape[3]
    out = _patch_gemm(x, w.reshape(-1, cout))
    out += b
    return out.reshape(n, h, wd, cout)


def _windows(x: np.ndarray) -> list[np.ndarray]:
    """The four cells of every 2x2 stride-2 window, each an [N, H//2, W//2, C]
    strided view of x, in row-major window order; an odd last row or column
    is in none of them."""
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    return [x[:, i: 2 * h2: 2, j: 2 * w2: 2] for i in (0, 1) for j in (0, 1)]


def avgpool_batch(x: np.ndarray) -> np.ndarray:
    """2x2 window means: the window's four cells added in row-major order,
    one at a time, then divided by 4."""
    first, second, third, fourth = _windows(x)
    out = first + second
    out += third
    out += fourth
    out /= 4
    return out


def maxpool_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, argmax) with argmax in 0..3 row-major within each
    2x2 window; np.argmax takes the first maximum, giving the deterministic
    first-index tie-break."""
    v = np.stack(_windows(x), axis=3)
    arg = v.argmax(axis=3)
    pooled = np.take_along_axis(v, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return pooled, arg


def softmax_output(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; rows sum to 1."""
    x = np.asarray(x, dtype=np.float64)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Layers


class Layer:
    """Shape-aware layer; params/grads are parallel lists of arrays.

    PARAMS names the attributes holding the trained arrays, in gradient
    order, and STATE the untrained arrays that a checkpoint keeps too (BN's
    running statistics); the checkpoint stores both under these names."""

    PARAMS: tuple[str, ...] = ()
    STATE: tuple[str, ...] = ()

    def build(self, in_shape: tuple, rng: np.random.Generator, dtype) -> tuple:
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.PARAMS]

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None):
        raise NotImplementedError

    def backward(self, dout: np.ndarray, cache, need_dx: bool = True, need_grads: bool = True,
                 ) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
        """(input gradient, parameter gradients) for the upstream gradient
        `dout`; either is None when its flag is false, except that a layer
        without parameters always returns an empty list.  A BatchNorm
        inference-mode cache gives None parameter gradients: its running
        statistics are constants there."""
        raise NotImplementedError

    def spec_line(self) -> str:
        raise NotImplementedError


def _glorot(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)


class Conv2D(Layer):
    """3x3 same-padding stride-1 convolution with ReLU."""

    PARAMS = ("w", "b")

    def __init__(self, filters: int):
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        self.filters = filters
        self.w = None
        self.b = None

    def build(self, in_shape, rng, dtype):
        h, w, cin = in_shape
        fan = 9 * cin
        self.w = _glorot(rng, (3, 3, cin, self.filters), fan, 9 * self.filters, dtype)
        self.b = np.zeros(self.filters, dtype=dtype)
        return (h, w, self.filters)

    def forward(self, x, train, rng):
        # the cache keeps the input, not its 9x larger patch matrix: backward
        # rebuilds the same patches
        z = conv2d_batch(x, self.w, self.b)
        mask = z > 0
        z *= mask
        return z, (x, mask)

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        x, mask = cache
        dz = dout * mask
        grads = dx = None
        if need_grads:
            # one GEMM over the whole batch: its sum runs over every image, and
            # a sum split by blocks would round differently
            dz_flat = dz.reshape(-1, self.filters)
            grads = [(_im2col(x).T @ dz_flat).reshape(self.w.shape), dz_flat.sum(axis=0)]
        if need_dx:
            # same-padding correlation of dz with the flipped, transposed kernel
            wf = self.w[::-1, ::-1].transpose(0, 1, 3, 2)
            dx = _patch_gemm(dz, wf.reshape(-1, wf.shape[3])).reshape(x.shape)
        return dx, grads

    def spec_line(self):
        return f"conv2d filters={self.filters}"


def pool_shape(in_shape: tuple) -> tuple:
    """Output shape of a 2x2 stride-2 pool, the only layer that shrinks H and W."""
    h, w, c = in_shape
    if h < 2 or w < 2:
        raise ValueError(f"pooling needs H >= 2 and W >= 2, got shape {tuple(in_shape)}")
    return (h // 2, w // 2, c)


class AvgPool(Layer):
    def build(self, in_shape, rng, dtype):
        return pool_shape(in_shape)

    def forward(self, x, train, rng):
        return avgpool_batch(x), x.shape

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        if not need_dx:
            return None, []
        dx = np.zeros(cache, dtype=dout.dtype)
        # each source cell of a window receives 1/4 of the gradient, written
        # through strided views of dx: a reshape of the trimmed slice that
        # merges axes is a copy when H or W is odd, and would drop the writes
        quarter = dout * 0.25
        for cells in _windows(dx):
            cells[...] = quarter
        return dx, []

    def spec_line(self):
        return "avgpool"


class MaxPool(Layer):
    def build(self, in_shape, rng, dtype):
        return pool_shape(in_shape)

    def forward(self, x, train, rng):
        pooled, arg = maxpool_batch(x)
        return pooled, (arg, x.shape)

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        if not need_dx:
            return None, []
        arg, x_shape = cache
        dx = np.zeros(x_shape, dtype=dout.dtype)
        for k, cells in enumerate(_windows(dx)):
            cells[...] = np.where(arg == k, dout, 0)
        return dx, []

    def spec_line(self):
        return "maxpool"


class Dropout(Layer):
    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate

    def build(self, in_shape, rng, dtype):
        return in_shape

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            return x, None
        mask = (rng.random(x.shape) >= self.rate).astype(x.dtype) / (1.0 - self.rate)
        return x * mask, mask

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        if not need_dx:
            return None, []
        return (dout if cache is None else dout * cache), []

    def spec_line(self):
        return f"dropout rate={self.rate!r}"


class Flatten(Layer):
    def build(self, in_shape, rng, dtype):
        size = 1
        for d in in_shape:
            size *= d
        return (size,)

    def forward(self, x, train, rng):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        return (dout.reshape(cache) if need_dx else None), []

    def spec_line(self):
        return "flatten"


class Dense(Layer):
    PARAMS = ("w", "b")

    def __init__(self, units: int, activation: str = "none"):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = units
        self.activation = activation
        self.w = None
        self.b = None

    def build(self, in_shape, rng, dtype):
        (n,) = in_shape
        self.w = _glorot(rng, (n, self.units), n, self.units, dtype)
        self.b = np.zeros(self.units, dtype=dtype)
        return (self.units,)

    def forward(self, x, train, rng):
        z = x @ self.w + self.b
        if self.activation == "relu":
            mask = z > 0
            return z * mask, (x, mask)
        return z, (x, None)

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        x, mask = cache
        dz = dout * mask if mask is not None else dout
        grads = [x.T @ dz, dz.sum(axis=0)] if need_grads else None
        return (dz @ self.w.T if need_dx else None), grads

    def spec_line(self):
        return f"dense units={self.units} activation={self.activation}"


class BatchNorm(Layer):
    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")

    def __init__(self):
        self.gamma = None
        self.beta = None
        self.running_mean = None
        self.running_var = None

    def build(self, in_shape, rng, dtype):
        (n,) = in_shape
        self.gamma = np.ones(n, dtype=dtype)
        self.beta = np.zeros(n, dtype=dtype)
        self.running_mean = np.zeros(n, dtype=dtype)
        self.running_var = np.ones(n, dtype=dtype)
        return in_shape

    def forward(self, x, train, rng):
        if train:
            if x.shape[0] < 2:
                raise ValueError("train-mode batch normalization needs batch size >= 2")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
            xhat = (x - mean) * inv_std
            self.running_mean = (BN_MOMENTUM * self.running_mean
                                 + (1.0 - BN_MOMENTUM) * mean).astype(x.dtype)
            self.running_var = (BN_MOMENTUM * self.running_var
                                + (1.0 - BN_MOMENTUM) * var).astype(x.dtype)
            return self.gamma * xhat + self.beta, ("train", xhat, inv_std)
        inv_std = 1.0 / np.sqrt(self.running_var + BN_EPSILON)
        xhat = (x - self.running_mean) * inv_std
        return self.gamma * xhat + self.beta, ("infer", None, inv_std)

    def backward(self, dout, cache, need_dx=True, need_grads=True):
        mode, xhat, inv_std = cache
        if mode == "infer":
            # running stats are constants at inference; pure affine map
            return (dout * self.gamma * inv_std if need_dx else None), None
        grads = [(dout * xhat).sum(axis=0), dout.sum(axis=0)] if need_grads else None
        dx = None
        if need_dx:
            n = dout.shape[0]
            dxhat = dout * self.gamma
            dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                  - xhat * (dxhat * xhat).sum(axis=0))
        return dx, grads

    def spec_line(self):
        return f"batchnorm momentum={BN_MOMENTUM!r} epsilon={BN_EPSILON!r}"


class SoftmaxOutput(Dense):
    """Final dense layer: K linear logits, followed by softmax.

    L2 regularization (lambda * sum(w^2)) applies to this layer's weight
    matrix only; its gradient contribution is added in backward.  backward
    expects the upstream gradient with respect to the LOGITS, which lets the
    caller fuse the softmax + cross-entropy derivative (probs - onehot) or
    seed a single logit for saliency.  It calls no Dense method, so a wrapper
    around each class's methods sees one call per layer."""

    def __init__(self, classes: int, l2_lambda: float = 0.0):
        if not 0 <= l2_lambda < math.inf:
            raise ValueError(f"l2_lambda must be finite and >= 0, got {l2_lambda}")
        super().__init__(classes)
        self.l2_lambda = l2_lambda

    @property
    def classes(self) -> int:
        return self.units

    def forward(self, x, train, rng):
        return softmax_output(x @ self.w + self.b).astype(x.dtype), x

    def backward(self, dlogits, cache, need_dx=True, need_grads=True):
        x = cache
        grads = None
        if need_grads:
            grads = [x.T @ dlogits + 2.0 * self.l2_lambda * self.w, dlogits.sum(axis=0)]
        return (dlogits @ self.w.T if need_dx else None), grads

    def spec_line(self):
        return f"softmax classes={self.units} l2_lambda={self.l2_lambda!r}"


# ---------------------------------------------------------------------------
# Model


def _layer_tensors(model: Model) -> list[tuple[str, np.ndarray]]:
    """(name, array) of every layer's PARAMS then STATE arrays, layer by
    layer: the order of snapshots and of the checkpoint."""
    return [(f"layer{i:02d}.{name}", getattr(layer, name))
            for i, layer in enumerate(model.layers) for name in (*layer.PARAMS, *layer.STATE)]


class Model:
    """Ordered layer stack with exactly one SoftmaxOutput, last."""

    def __init__(self, layers: list[Layer]):
        if not layers or not isinstance(layers[-1], SoftmaxOutput):
            raise ValueError("model must end with a SoftmaxOutput layer")
        if sum(isinstance(l, SoftmaxOutput) for l in layers) != 1:
            raise ValueError("model must contain exactly one SoftmaxOutput layer")
        self.layers = layers
        self.input_shape: tuple | None = None
        self.output_shapes: list[tuple] = []
        self.dtype = np.float64
        self._train_caches: list | None = None
        self._train_probs: np.ndarray | None = None

    @property
    def built(self) -> bool:
        return self.input_shape is not None

    def build(self, input_shape: tuple, seed: int = 0, dtype=np.float64) -> "Model":
        rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype).type
        self.input_shape = tuple(input_shape)
        self.output_shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.build(shape, rng, self.dtype)
            self.output_shapes.append(shape)
        return self

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Probabilities for a batch; train mode records caches for backward,
        which consumes them.

        Every pass first drops the previous train-mode pass's caches, so two
        steps' caches are never held at once.  A conv layer's train cache is
        its input (kept by reference, so `x` must not change before backward)
        and its ReLU mask, not its patch matrix, which backward rebuilds.  An
        inference pass drops each layer's cache as soon as the layer returns.
        """
        self._train_caches = self._train_probs = None
        probs, caches = self._forward_pass(x, train, rng, train)
        if train:
            self._train_caches, self._train_probs = caches, probs
        return probs

    def backward(self, onehot: np.ndarray) -> list[np.ndarray]:
        """Gradients of (mean cross-entropy + L2 on the output layer) for every
        parameter, from the caches of the last train-mode forward.  This call
        takes those caches over and drops each once its layer is done, so a
        second backward needs a new train-mode forward.  The first layer's
        input gradient is never computed."""
        if self._train_caches is None:
            raise RuntimeError("backward requires a preceding train-mode forward")
        n = onehot.shape[0]
        dlogits = (self._train_probs - onehot.astype(self.dtype)) / n
        caches, self._train_caches, self._train_probs = self._train_caches, None, None
        return self._backward_pass(dlogits, caches, False, True)[1]

    def logit_input_gradient(self, x: np.ndarray, class_index: int) -> np.ndarray:
        """d(logit of class_index)/d(input) per sample, inference mode; no
        parameter gradient is computed.

        Caches stay local to this call, so concurrent invocations against one
        trained model do not interfere; neither `forward` nor `backward` runs."""
        if not 0 <= class_index < self.layers[-1].classes:
            raise ValueError(f"class index {class_index} out of range")
        out, caches = self._forward_pass(x, False, None, True)
        dout = np.zeros(out.shape, dtype=self.dtype)
        dout[:, class_index] = 1.0
        return self._backward_pass(dout, caches, True, False)[0]

    def _forward_pass(self, x: np.ndarray, train: bool, rng: np.random.Generator | None,
                      keep_caches: bool) -> tuple[np.ndarray, list]:
        """(output, every layer's cache if `keep_caches`, else [])."""
        if not self.built:
            raise RuntimeError("model is not built")
        x = np.asarray(x, dtype=self.dtype)
        caches = []
        for layer in self.layers:
            # positional arguments: a wrapper around a layer's methods may pass on no others
            x, cache = layer.forward(x, train, rng)
            if keep_caches:
                caches.append(cache)
            del cache  # a cache not kept is freed before the next layer runs
        return x, caches

    def _backward_pass(self, dout: np.ndarray, caches: list, input_grad: bool,
                       param_grads: bool) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """(input gradient if `input_grad`, else None; parameter gradients in
        params() order if `param_grads`, else []) for `dout`, the logits'
        gradient.  Each entry of `caches` is set to None once its layer is done.

        With `param_grads`, a layer whose parameters take more bytes than the
        `dout` it receives (the hidden Dense and the SoftmaxOutput, at the desk
        and paper shapes) gives only its input gradient in the loop, and forms
        its parameter gradients after it, when no conv patch matrix is alive:
        at the paper shape the hidden Dense's 121 MB weight gradient would
        otherwise sit beside conv 4's weight-gradient patches (163 MB at batch
        16), the step's peak.  The two calls run the GEMMs of one call, on the
        same operands, so every gradient keeps its bits."""
        grads: list[list[np.ndarray] | None] = [[] for _ in self.layers]
        deferred = []
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if param_grads and sum(p.nbytes for p in layer.params()) > dout.nbytes:
                deferred.append((i, dout))
                dout = layer.backward(dout, caches[i], input_grad or i > 0, False)[0]
                continue
            dout, grads[i] = layer.backward(dout, caches[i], input_grad or i > 0, param_grads)
            caches[i] = None
        for i, layer_dout in deferred:
            grads[i] = self.layers[i].backward(layer_dout, caches[i], False, True)[1]
            caches[i] = None
        return dout, ([g for layer_grads in grads for g in layer_grads] if param_grads else [])

    def snapshot(self) -> list[np.ndarray]:
        return [a.copy() for _, a in _layer_tensors(self)]

    def restore(self, snap: list[np.ndarray]) -> None:
        """Copy a snapshot back in place; existing array references (e.g. an
        optimizer's view of params()) stay valid."""
        arrays = [a for _, a in _layer_tensors(self)]
        if len(arrays) != len(snap):
            raise ValueError("snapshot does not match model structure")
        for dst, src in zip(arrays, snap):
            dst[...] = src

    def spec_lines(self) -> list[str]:
        return [layer.spec_line() for layer in self.layers]


# ---------------------------------------------------------------------------
# Presets

PRESET_NAMES = ("vgg_b_avg", "vgg_b_max", "simple_cnn", "mlp")


def build_preset(name: str, classes: int, conv_filters: tuple[int, int, int],
                 dense_units: int, dropout_rate: float, l2_lambda: float) -> Model:
    """Named model stacks; vgg_b_avg with PipelineConfig's default sizes is
    the reference configuration (conv 32/64/64/128/128, dense 1024, softmax 3)."""
    f0, f1, f2 = conv_filters
    if name in ("vgg_b_avg", "vgg_b_max"):
        pool = AvgPool if name == "vgg_b_avg" else MaxPool
        layers = [
            Conv2D(f0), pool(), Dropout(dropout_rate),
            Conv2D(f1), Conv2D(f1), pool(), Dropout(dropout_rate),
            Conv2D(f2), Conv2D(f2), pool(), Dropout(dropout_rate),
            Flatten(),
            Dense(dense_units, activation="relu"),
            BatchNorm(),
            Dropout(dropout_rate),
            SoftmaxOutput(classes, l2_lambda),
        ]
    elif name == "simple_cnn":
        # no pooling, no hidden dense layer
        layers = [Conv2D(f0), Conv2D(f1), Flatten(), SoftmaxOutput(classes, l2_lambda)]
    elif name == "mlp":
        layers = [Flatten(), Dense(dense_units, activation="relu"),
                  Dropout(dropout_rate), SoftmaxOutput(classes, l2_lambda)]
    else:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return Model(layers)


# ---------------------------------------------------------------------------
# Checkpoint container

CHECKPOINT_MAGIC = b"LRISK"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: Model, config_lines: list[str],
                    extra_tensors: dict[str, np.ndarray] | None = None) -> None:
    """Container: magic, version, config text, the model's lines (layer spec,
    input shape, dtype), then every tensor as a shape header plus
    little-endian float64 payload.  The write is deterministic, so identical
    models produce identical bytes."""
    extra_tensors = extra_tensors or {}
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC + b"\n")
    buf.write(f"version {CHECKPOINT_VERSION}\n".encode())
    for line in [f"config {len(config_lines)}", *config_lines,
                 *model_lines(model, model.input_shape, model.dtype)]:
        buf.write((line + "\n").encode())

    tensors = _layer_tensors(model)
    for name in sorted(extra_tensors):
        tensors.append((f"extra.{name}", extra_tensors[name]))

    buf.write(f"tensors {len(tensors)}\n".encode())
    for name, arr in tensors:
        arr64 = np.ascontiguousarray(arr, dtype="<f8")
        dims = " ".join(str(d) for d in arr64.shape)
        buf.write(f"tensor {name} {arr64.ndim} {dims}\n".encode())
        buf.write(arr64.tobytes())
    write_file(path, buf.getvalue())


def model_lines(model: Model, input_shape: tuple, dtype) -> list[str]:
    """The header lines that describe `model` built for `input_shape` in
    `dtype`: layer count, layer spec, input shape, dtype."""
    spec = model.spec_lines()
    return [f"layers {len(spec)}", *spec,
            "input_shape " + " ".join(str(d) for d in input_shape),
            f"dtype {np.dtype(dtype).name}"]


def load_checkpoint(path, build_model: Callable[[list[str]], Model],
                    ) -> tuple[Model, list[str], dict[str, np.ndarray]]:
    """The model `build_model` builds from the file's config lines, filled
    with the file's tensors in order.

    A file that is missing, unreadable, not a checkpoint, of another version
    or cut short, a header line that is not the field it should be, a layer
    spec, input-shape or dtype line that is not the built model's, or a
    tensor whose name or shape is not the model's or with a value not finite
    in the model's dtype raises CheckpointMismatchError naming the file (and
    the line, for a header)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointMismatchError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    if not blob.startswith(CHECKPOINT_MAGIC + b"\n"):
        raise CheckpointMismatchError(f"{path}: not a checkpoint (bad magic)")
    pos, lineno = len(CHECKPOINT_MAGIC) + 1, 1

    def truncated() -> CheckpointMismatchError:
        return CheckpointMismatchError(f"{path}: checkpoint is truncated at byte {len(blob)}")

    def read_line() -> str:
        nonlocal pos, lineno
        end = blob.find(b"\n", pos)
        if end < 0:
            raise truncated()
        line, pos, lineno = blob[pos:end], end + 1, lineno + 1
        return line.decode(errors="replace")  # no field, spec or config value takes U+FFFD

    def read_field(key: str, value: str = r"\d+") -> re.Match:
        """The next line, which must be `key`, a space, then `value`."""
        line = read_line()
        match = re.fullmatch(f"{key} ({value})", line)
        if match is None:
            raise CheckpointMismatchError(f"{path}:{lineno}: expected a {key!r} line, got {line!r}")
        return match

    def read_header() -> tuple[str, tuple[int, ...]]:
        header = read_field("tensor", r"(\S+) (\d+)((?: \d+)*) ?")
        shape = tuple(int(v) for v in header[4].split())
        if len(shape) != int(header[3]):
            raise CheckpointMismatchError(f"{path}:{lineno}: tensor {header[2]} lists "
                                          f"{len(shape)} dimensions, not {header[3]}")
        return header[2], shape

    def read_payload(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        nonlocal pos
        count = math.prod(shape)
        if pos + 8 * count > len(blob):
            raise truncated()
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape)
        pos += 8 * count
        # every value must be finite in dtype: checked before the cast, which warns
        if not (np.abs(arr) <= np.finfo(dtype).max).all():
            raise CheckpointMismatchError(f"{path}: tensor {name} holds a value that is not "
                                          f"finite in {np.dtype(dtype).name}")
        return arr

    version = int(read_field("version")[1])
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(f"{path}: unsupported checkpoint version {version} "
                                      f"(this build reads version {CHECKPOINT_VERSION})")
    config_lines = [read_line() for _ in range(int(read_field("config")[1]))]
    model = build_model(config_lines)
    for want in model_lines(model, model.input_shape, model.dtype):
        line = read_line()
        if line != want:
            raise CheckpointMismatchError(f"{path}:{lineno}: {line!r} is not {want!r}, "
                                          f"the line of the model its config builds")
    targets = _layer_tensors(model)

    n_tensors = int(read_field("tensors")[1])
    for want, dst in targets:
        name, shape = read_header()
        if (name, shape) != (want, dst.shape):
            raise CheckpointMismatchError(
                f"{path}: tensor {name} of shape {shape} does not match the model's "
                f"{want} of shape {dst.shape}")
        dst[...] = read_payload(name, shape, model.dtype)
    extra: dict[str, np.ndarray] = {}
    for _ in range(n_tensors - len(targets)):
        name, shape = read_header()
        if not name.startswith("extra."):
            raise CheckpointMismatchError(f"{path}: unexpected tensor {name} after the layer tensors")
        extra[name[len("extra."):]] = read_payload(name, shape, np.float64).copy()
    return model, config_lines, extra
