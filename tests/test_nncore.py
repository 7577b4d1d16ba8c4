"""Layer forward oracles (naive loops) and reverse-mode gradient checks
against central finite differences."""

import numpy as np
import pytest

from liftrisk.config import PipelineConfig
from liftrisk.errors import CheckpointMismatchError
from liftrisk.nncore import (PRESET_NAMES, AvgPool, BatchNorm, Conv2D, Dense, Dropout,
                             Flatten, MaxPool, Model, SoftmaxOutput, build_preset,
                             conv2d_batch, load_checkpoint, save_checkpoint, softmax_output)
from liftrisk.trainer import predict, train

H_FD = 1e-5


def conv_naive(x, w, b):
    """Six nested loops, written independently of the engine."""
    hh, ww, cin = x.shape
    cout = w.shape[3]
    xp = np.zeros((hh + 2, ww + 2, cin))
    xp[1:-1, 1:-1, :] = x
    out = np.zeros((hh, ww, cout))
    for i in range(hh):
        for j in range(ww):
            for a in range(3):
                for bb in range(3):
                    for c in range(cin):
                        for f in range(cout):
                            out[i, j, f] += xp[i + a, j + bb, c] * w[a, bb, c, f]
    return out + b


def rel_err(analytic, numeric):
    if abs(analytic) < 1e-7 and abs(numeric) < 1e-7:
        return 0.0
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


def conv_kernel(x, w, b):
    """One image [H,W,Cin] through the batched conv kernel, pre-activation."""
    return conv2d_batch(x[None], w, b)[0]


def layer_forward(layer, x, train=False, rng=None):
    """Build `layer` for the per-sample shape of batch `x`, then run it."""
    layer.build(x.shape[1:], np.random.default_rng(0), x.dtype)
    y, _ = layer.forward(x, train, rng)
    return y


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 7, 2))
        w = np.zeros((3, 3, 2, 2))
        w[1, 1, 0, 0] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = conv_kernel(x, w, np.zeros(2))
        assert np.allclose(out, x, atol=1e-12)

    def test_border_arithmetic(self):
        x = np.ones((5, 5, 1))
        w = np.ones((3, 3, 1, 1))
        out = conv_kernel(x, w, np.zeros(1))[:, :, 0]
        assert out[2, 2] == 9
        assert out[0, 2] == 6 and out[2, 0] == 6
        assert out[0, 0] == 4 and out[4, 4] == 4

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            hh, ww = rng.integers(3, 8, size=2)
            cin, cout = rng.integers(1, 4, size=2)
            x = rng.normal(size=(hh, ww, cin))
            w = rng.normal(size=(3, 3, cin, cout))
            b = rng.normal(size=cout)
            assert np.max(np.abs(conv_kernel(x, w, b) - conv_naive(x, w, b))) < 1e-10


def maxpool_loop(x, dout):
    """Max pooling by a loop over every window and channel, written
    independently of the engine: (pooled, argmax 0..3 row-major in the
    window, input gradient).  Python's max keeps the first of equal cells."""
    n, h, w, c = x.shape
    pooled = np.zeros((n, h // 2, w // 2, c), dtype=x.dtype)
    arg = np.zeros(pooled.shape, dtype=np.intp)
    dx = np.zeros(x.shape, dtype=dout.dtype)
    for b in range(n):
        for i in range(h // 2):
            for j in range(w // 2):
                for ch in range(c):
                    cells = [x[b, 2 * i + a, 2 * j + bb, ch] for a in (0, 1) for bb in (0, 1)]
                    k = max(range(4), key=cells.__getitem__)
                    pooled[b, i, j, ch] = cells[k]
                    arg[b, i, j, ch] = k
                    dx[b, 2 * i + k // 2, 2 * j + k % 2, ch] = dout[b, i, j, ch]
    return pooled, arg, dx


class TestPooling:
    def test_avg_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert layer_forward(AvgPool(), x)[0, 0, 0, 0] == 2.5

    def test_max_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert layer_forward(MaxPool(), x)[0, 0, 0, 0] == 4.0

    def test_floor_semantics_95(self):
        x = np.zeros((1, 95, 95, 4))
        assert layer_forward(AvgPool(), x).shape == (1, 47, 47, 4)

    def test_odd_trailing_dropped(self):
        x = np.arange(5 * 3 * 1, dtype=float).reshape(1, 5, 3, 1)
        out = layer_forward(MaxPool(), x)[0]
        assert out.shape == (2, 1, 1)
        # windows never read row 4 or column 2
        assert out[0, 0, 0] == x[0, 0:2, 0:2, 0].max()
        assert out[1, 0, 0] == x[0, 2:4, 0:2, 0].max()

    def test_constant_preserved(self):
        x = np.full((1, 6, 6, 2), 3.7)
        assert np.all(layer_forward(AvgPool(), x) == 3.7)
        assert np.all(layer_forward(MaxPool(), x) == 3.7)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            AvgPool().build((1, 5, 1), np.random.default_rng(0), np.float64)

    @pytest.mark.parametrize("shape", [(2, 5, 7, 3), (1, 7, 7, 2), (3, 6, 9, 1), (2, 4, 4, 4)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_max_matches_window_loop(self, shape, dtype):
        # cells from {-1, -0, 0, 1}, so most windows hold a tie
        rng = np.random.default_rng(13)
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape).astype(dtype)
        layer = MaxPool()
        layer.build(shape[1:], rng, dtype)
        pooled, cache = layer.forward(x, True, None)
        dout = rng.normal(size=pooled.shape).astype(dtype)
        dx, grads = layer.backward(dout, cache)
        want_pooled, want_arg, want_dx = maxpool_loop(x, dout)
        arg = cache[0]
        assert pooled.dtype == dx.dtype == dtype and arg.dtype == want_arg.dtype
        assert pooled.shape == want_pooled.shape and dx.shape == want_dx.shape
        assert pooled.tobytes() == want_pooled.tobytes()
        assert arg.tobytes() == want_arg.tobytes()
        assert dx.tobytes() == want_dx.tobytes() and grads == []

    @pytest.mark.parametrize("shape", [(2, 5, 7, 3), (2, 6, 6, 2), (1, 7, 4, 2), (3, 9, 8, 5),
                                       (2, 4, 11, 3), (2, 95, 95, 8), (1, 47, 47, 64)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_avg_matches_reshape_mean(self, shape, dtype):
        # mixed signs and magnitudes from 1e-3 to 1e3, so the order of the
        # four additions shows in the rounding
        rng = np.random.default_rng(12)
        x = (rng.choice([-1.0, 1.0], size=shape)
             * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)).astype(dtype)
        n, h, w, c = shape
        want = x[:, : 2 * (h // 2), : 2 * (w // 2), :].reshape(
            n, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4))
        got = layer_forward(AvgPool(), x)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestDropout:
    def test_rate_zero_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 10))
        assert np.array_equal(layer_forward(Dropout(0.0), x, True, rng), x)
        assert np.array_equal(layer_forward(Dropout(0.0), x), x)

    def test_infer_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 10))
        assert np.array_equal(layer_forward(Dropout(0.25), x), x)

    def test_inverted_scaling_unbiased(self):
        rng = np.random.default_rng(4)
        x = np.ones((1, 1_000_000))
        y = layer_forward(Dropout(0.25), x, True, rng)
        assert abs(y.mean() - 1.0) < 0.01
        kept = y[y != 0]
        assert np.allclose(kept, 1.0 / 0.75)

    def test_deterministic_given_seed(self):
        x = np.ones((100, 100))
        y1 = layer_forward(Dropout(0.5), x, True, np.random.default_rng(9))
        y2 = layer_forward(Dropout(0.5), x, True, np.random.default_rng(9))
        assert np.array_equal(y1, y2)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


def dense_layer(w, b):
    layer = Dense(w.shape[1], activation="none")
    layer.build((w.shape[0],), np.random.default_rng(0), np.float64)
    layer.w[...] = w
    layer.b[...] = b
    return layer


class TestDense:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 7))
        y, _ = dense_layer(np.eye(7), np.zeros(7)).forward(x, False, None)
        assert np.allclose(y, x)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=5)
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=4)
        expected = np.array([sum(x[i] * w[i, j] for i in range(5)) + b[j] for j in range(4)])
        y, _ = dense_layer(w, b).forward(x[None], False, None)
        assert np.max(np.abs(y[0] - expected)) < 1e-12

    def test_zero_input_gives_bias(self):
        b = np.array([1.0, -2.0, 3.0])
        y, _ = dense_layer(np.ones((4, 3)), b).forward(np.zeros((1, 4)), False, None)
        assert np.array_equal(y[0], b)


def batchnorm_layer(gamma, beta):
    """A BatchNorm with the given affine parameters and unit running stats."""
    layer = BatchNorm()
    layer.build(gamma.shape, np.random.default_rng(0), np.float64)
    layer.gamma[...] = gamma
    layer.beta[...] = beta
    return layer


class TestBatchNorm:
    def test_normalizes_batch(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3.0, 2.0, size=(64, 5))
        y, _ = batchnorm_layer(np.ones(5), np.zeros(5)).forward(x, True, None)
        assert np.max(np.abs(y.mean(axis=0))) < 1e-9
        assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-4

    def test_affine_applied(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(32, 4))
        y1, _ = batchnorm_layer(np.ones(4), np.zeros(4)).forward(x, True, None)
        y2, _ = batchnorm_layer(np.full(4, 2.0), np.full(4, 3.0)).forward(x, True, None)
        assert np.allclose(y2, 2.0 * y1 + 3.0, atol=1e-12)

    def test_infer_identity_with_unit_stats(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 6))
        y, _ = batchnorm_layer(np.ones(6), np.zeros(6)).forward(x, False, None)
        assert np.max(np.abs(y - x)) < 1e-5 * np.max(np.abs(x)) + 1e-12

    def test_running_stats_update(self):
        x = np.vstack([np.zeros(3), np.full(3, 2.0)])  # mean 1, var 1
        layer = batchnorm_layer(np.ones(3), np.zeros(3))
        layer.forward(x, True, None)
        assert np.allclose(layer.running_mean, 0.1)
        assert np.allclose(layer.running_var, 0.9 * 1.0 + 0.1 * 1.0)

    def test_rejects_batch_of_one(self):
        with pytest.raises(ValueError):
            batchnorm_layer(np.ones(3), np.zeros(3)).forward(np.ones((1, 3)), True, None)


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax_output(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_large_logit_no_overflow(self):
        p = softmax_output(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.normal(size=3)
            direct = np.exp(x) / np.exp(x).sum()
            assert np.max(np.abs(softmax_output(x) - direct)) <= 1e-15

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3)) * 30
        s = softmax_output(x).sum(axis=1)
        assert np.max(np.abs(s - 1.0)) <= 1e-12


def numeric_grad(f, arr, indices, h=H_FD):
    out = {}
    for idx in indices:
        orig = arr.flat[idx]
        arr.flat[idx] = orig + h
        fp = f()
        arr.flat[idx] = orig - h
        fm = f()
        arr.flat[idx] = orig
        out[idx] = (fp - fm) / (2 * h)
    return out


def layer_gradcheck(layer, x, rng, train=True, tol=1e-4, n_samples=40):
    """Scalar loss sum(forward(x) * R); checks input and parameter grads."""
    y, cache = layer.forward(x, train, np.random.default_rng(0))
    r = np.random.default_rng(99).normal(size=y.shape)
    dx, grads = layer.backward(r, cache)

    def loss():
        y2, _ = layer.forward(x, train, np.random.default_rng(0))
        return float(np.sum(y2 * r))

    idx = rng.choice(x.size, size=min(n_samples, x.size), replace=False)
    for i, num in numeric_grad(loss, x, idx).items():
        assert rel_err(dx.flat[i], num) < tol, f"input grad at {i}"
    for p, g in zip(layer.params(), grads):
        idx = rng.choice(p.size, size=min(n_samples, p.size), replace=False)
        for i, num in numeric_grad(loss, p, idx).items():
            assert rel_err(g.flat[i], num) < tol, f"param grad at {i}"


class TestLayerGradients:
    def test_conv(self):
        rng = np.random.default_rng(20)
        layer = Conv2D(4)
        layer.build((6, 5, 3), rng, np.float64)
        layer_gradcheck(layer, rng.normal(size=(2, 6, 5, 3)), rng)

    def test_avgpool(self):
        rng = np.random.default_rng(21)
        layer = AvgPool()
        layer.build((6, 6, 2), rng, np.float64)
        layer_gradcheck(layer, rng.normal(size=(2, 6, 6, 2)), rng)

    def test_avgpool_odd_input(self):
        rng = np.random.default_rng(22)
        layer = AvgPool()
        layer.build((5, 7, 2), rng, np.float64)
        layer_gradcheck(layer, rng.normal(size=(2, 5, 7, 2)), rng)

    def test_maxpool(self):
        rng = np.random.default_rng(23)
        layer = MaxPool()
        layer.build((6, 6, 2), rng, np.float64)
        layer_gradcheck(layer, rng.normal(size=(2, 6, 6, 2)), rng)

    def test_dense_relu(self):
        rng = np.random.default_rng(24)
        layer = Dense(7, activation="relu")
        layer.build((9,), rng, np.float64)
        layer_gradcheck(layer, rng.normal(size=(3, 9)), rng)

    def test_dense_linear(self):
        rng = np.random.default_rng(25)
        layer = Dense(5, activation="none")
        layer.build((6,), rng, np.float64)
        layer_gradcheck(layer, rng.normal(size=(3, 6)), rng)

    def test_batchnorm_train(self):
        rng = np.random.default_rng(26)
        layer = BatchNorm()
        layer.build((5,), rng, np.float64)
        layer.gamma[:] = rng.normal(size=5)
        layer.beta[:] = rng.normal(size=5)
        layer_gradcheck(layer, rng.normal(size=(6, 5)), rng)

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(27)
        layer = Dropout(0.4)
        layer.build((8,), rng, np.float64)
        x = rng.normal(size=(4, 8))
        y, mask = layer.forward(x, True, np.random.default_rng(1))
        r = rng.normal(size=y.shape)
        dx, _ = layer.backward(r, mask)
        # with the mask held fixed the layer is linear: dx = r * mask exactly
        assert np.array_equal(dx, r * mask)

    def test_softmax_dense_part(self):
        rng = np.random.default_rng(28)
        layer = SoftmaxOutput(3, l2_lambda=0.0)
        layer.build((5,), rng, np.float64)
        x = rng.normal(size=(4, 5))
        _, cache = layer.forward(x, True, None)
        r = rng.normal(size=(4, 3))
        dx, (dw, db) = layer.backward(r, cache)

        def loss():
            logits = x @ layer.w + layer.b
            return float(np.sum(logits * r))

        for i, num in numeric_grad(loss, layer.w, range(layer.w.size)).items():
            assert rel_err(dw.flat[i], num) < 1e-6
        for i, num in numeric_grad(loss, x, range(x.size)).items():
            assert rel_err(dx.flat[i], num) < 1e-6


class TestModelGradients:
    def test_softmax_ce_closed_form(self):
        # single softmax layer: d(loss)/d(logits) = (probs - onehot) / N
        rng = np.random.default_rng(30)
        model = Model([SoftmaxOutput(3)]).build((4,), seed=1)
        x = rng.normal(size=(5, 4))
        onehot = np.eye(3)[rng.integers(0, 3, 5)]
        probs = model.forward(x, train=True)
        grads = model.backward(onehot)
        dlogits = (probs - onehot) / 5
        expected_dw = x.T @ dlogits
        assert np.max(np.abs(grads[0] - expected_dw)) < 1e-12
        assert np.max(np.abs(grads[1] - dlogits.sum(axis=0))) < 1e-12

    def test_backward_requires_train_forward(self):
        model = Model([SoftmaxOutput(3)]).build((4,), seed=1)
        with pytest.raises(RuntimeError):
            model.backward(np.eye(3))
        model.forward(np.zeros((2, 4)), train=False)
        with pytest.raises(RuntimeError):
            model.backward(np.eye(3)[:2])
        # backward consumes the caches of the train-mode forward before it
        model.forward(np.zeros((2, 4)), train=True)
        model.backward(np.eye(3)[:2])
        assert model._train_caches is None
        with pytest.raises(RuntimeError):
            model.backward(np.eye(3)[:2])

    def test_end_to_end_desk_scale(self):
        """Full stack at reduced size, dropout 0, vs central differences.

        Params (biases included) are randomized to a generic point first:
        zero biases put dead ReLU cells exactly on the kink, where the loss
        is not differentiable and finite differences are meaningless.
        """
        model = build_preset("vgg_b_avg", classes=3, conv_filters=(4, 8, 8), dense_units=16,
                             dropout_rate=0.0, l2_lambda=1e-3)
        model.build((15, 15, 3), seed=3, dtype=np.float64)
        rng = np.random.default_rng(31)
        for p in model.params():
            p += rng.normal(scale=0.05, size=p.shape)
        x = rng.normal(size=(3, 15, 15, 3))
        onehot = np.eye(3)[[0, 1, 2]]

        model.forward(x, train=True, rng=np.random.default_rng(0))
        grads = model.backward(onehot)
        params = model.params()

        def full_loss():
            snap = model.snapshot()
            probs = model.forward(x, train=True, rng=np.random.default_rng(0))
            p = np.clip(probs, 1e-12, None)
            ce = -np.mean(np.sum(onehot * np.log(p), axis=1))
            out = model.layers[-1]
            value = ce + out.l2_lambda * float(np.sum(out.w ** 2))
            model.restore(snap)
            return value

        pick = np.random.default_rng(32)
        worst = 0.0
        for _ in range(100):
            ti = int(pick.integers(len(params)))
            p = params[ti]
            i = int(pick.integers(p.size))
            num = numeric_grad(full_loss, p, [i])[i]
            worst = max(worst, rel_err(grads[ti].flat[i], num))
        assert worst < 1e-3


def forward_with_caches(model, x, train, rng):
    """Every layer's forward in turn; the output and each layer's cache."""
    caches = []
    for layer in model.layers:
        x, cache = layer.forward(x, train, rng)
        caches.append(cache)
    return x, caches


def full_backward(model, caches, dout, train=True):
    """Every layer's backward, computing each input gradient and, for
    train-mode caches, each parameter gradient (an inference-mode BatchNorm
    has none); (flat parameter gradients, input gradient)."""
    grads = []
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        dout, g = layer.backward(dout, cache, True, train)
        if train:
            grads[:0] = g
    return grads, dout


def avgpool_backward_repeat(dout, x_shape):
    """Average-pool input gradient by upsampling with two np.repeat calls."""
    n, h, w, c = x_shape
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, : 2 * (h // 2), : 2 * (w // 2), :] = np.repeat(np.repeat(dout, 2, axis=1), 2,
                                                         axis=2) * 0.25
    return dx


def small_preset(name, dtype=np.float64):
    """A preset at toy size on odd image sides, so pooling drops a row and a column."""
    return build_preset(name, classes=3, conv_filters=(4, 4, 8), dense_units=8,
                        dropout_rate=0.25, l2_lambda=1e-3).build((13, 11, 3), seed=5,
                                                                 dtype=dtype)


def desk_preset(name, dtype=np.float32):
    """A preset at the desk sizes (55x55x3, filters 8/16/32, dense 128)."""
    return build_preset(name, classes=3, conv_filters=(8, 16, 32), dense_units=128,
                        dropout_rate=0.25, l2_lambda=1e-3).build((55, 55, 3), seed=5,
                                                                 dtype=dtype)


def patches_reference(x):
    """[N*H*W, 9*C] patch matrix of the zero-padded input, from nine slices."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.concatenate([xp[:, a: a + h, b: b + w, :] for a in range(3) for b in range(3)],
                          axis=3)
    return cols.reshape(n * h * w, 9 * c)


def conv_cached_patches(layer, x, dout, need_dx, need_grads):
    """Conv2D as it ran when its cache held the forward's patch matrix:
    (output, input gradient or None, parameter gradients or None)."""
    cols = patches_reference(x)
    z = (cols @ layer.w.reshape(-1, layer.filters) + layer.b).reshape(*x.shape[:3], -1)
    mask = z > 0
    dz = dout * mask
    grads = dx = None
    if need_grads:
        dz_flat = dz.reshape(-1, layer.filters)
        grads = [(cols.T @ dz_flat).reshape(layer.w.shape), dz_flat.sum(axis=0)]
    if need_dx:
        wf = layer.w[::-1, ::-1].transpose(0, 1, 3, 2)
        dx = (patches_reference(dz) @ wf.reshape(-1, wf.shape[3])).reshape(x.shape)
    return z * mask, dx, grads


class TestConvRebuiltPatches:
    """A conv layer that keeps its input and rebuilds the patches in backward
    computes every output and gradient bit for bit as one that kept them."""

    @pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True),
                                       (False, False)])
    @pytest.mark.parametrize("dims", [(3, 7, 5, 3, 4), (2, 6, 6, 4, 2), (1, 9, 11, 2, 5),
                                      (4, 13, 13, 8, 8)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_cached_patch_formulation(self, dtype, dims, flags):
        n, h, w, cin, cout = dims
        rng = np.random.default_rng(60)
        layer = Conv2D(cout)
        layer.build((h, w, cin), rng, dtype)
        layer.b += rng.normal(scale=0.1, size=cout).astype(dtype)
        x = rng.normal(size=(n, h, w, cin)).astype(dtype)
        dout = rng.normal(size=(n, h, w, cout)).astype(dtype)
        y, cache = layer.forward(x, True, None)
        dx, grads = layer.backward(dout, cache, *flags)
        want_y, want_dx, want_grads = conv_cached_patches(layer, x, dout, *flags)
        assert y.dtype == want_y.dtype and np.array_equal(y, want_y)
        assert (dx is None) == (want_dx is None) and (grads is None) == (want_grads is None)
        if dx is not None:
            assert dx.dtype == want_dx.dtype and np.array_equal(dx, want_dx)
        for got, ref in zip(grads or [], want_grads or []):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestPatchBuilder:
    """`_im2col` builds the nine-slice patch matrix byte for byte, without
    `np.pad` or `as_strided`."""

    @pytest.mark.parametrize("dims", [(0, 5, 4, 3), (2, 1, 1, 2), (3, 1, 5, 2), (2, 6, 2, 3),
                                      (1, 2, 2, 1), (3, 7, 5, 3), (2, 9, 11, 4)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_nine_slice_reference(self, dtype, dims):
        from liftrisk.nncore import _im2col

        x = np.random.default_rng(sum(dims)).normal(size=dims).astype(dtype)
        cols = _im2col(x)
        assert same_bytes(cols, patches_reference(x)) and cols.flags.c_contiguous

    @pytest.mark.parametrize("view", ["every-other-column", "transposed"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_contiguous_input_matches_reference(self, dtype, view):
        from liftrisk.nncore import _im2col

        rng = np.random.default_rng(61)
        if view == "every-other-column":
            x = rng.normal(size=(3, 5, 9, 2)).astype(dtype)[:, :, ::2]
        else:
            x = rng.normal(size=(2, 7, 5, 3)).astype(dtype).T
        assert not x.flags.c_contiguous
        assert same_bytes(_im2col(x), patches_reference(x))

    def test_conv_paths_need_neither_pad_nor_as_strided(self, monkeypatch):
        from numpy.lib import stride_tricks

        x = np.random.default_rng(62).normal(size=(4, 13, 11, 3))
        onehot = np.eye(3)[[0, 1, 2, 1]]

        def passes():
            # a fresh model each time: the train pass moves BatchNorm's statistics
            model = small_preset("vgg_b_avg")
            y, _ = model.layers[0].forward(x, False, None)
            model.forward(x, train=True, rng=np.random.default_rng(63))
            return [y, *model.backward(onehot), model.logit_input_gradient(x[:1], 2)]

        want = passes()

        def forbidden(*args, **kwargs):
            raise AssertionError("the conv patch path called np.pad or as_strided")

        monkeypatch.setattr(np, "pad", forbidden)
        monkeypatch.setattr(stride_tricks, "as_strided", forbidden)
        got = passes()
        assert len(got) == len(want)
        assert all(same_bytes(a, b) for a, b in zip(got, want))


# (H, W, Cin, Cout) of the five convolutions of vgg_b_* at the desk image
# shape (55x55x3, filters 8/16/32) and of conv layers 0 and 4 at the paper
# shape (95x95x3, filters 32/64/128)
DESK_CONVS = [(55, 55, 3, 8), (27, 27, 8, 16), (27, 27, 16, 16), (13, 13, 16, 32),
              (13, 13, 32, 32)]
PAPER_CONVS = [(95, 95, 3, 32), (47, 47, 64, 64)]


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPatchBlocks:
    """The conv forward and input gradient, multiplied one balanced block of
    whole images at a time, are bit for bit the whole-batch GEMM of the whole
    patch matrix, and an inference forward never holds that matrix.

    The bit-for-bit checks depend on the BLAS: they hold with OpenBLAS at 1
    and 2 threads, where balanced blocks keep each block's GEMM rows equal to
    the whole batch's, like the hashes of `scripts/desk_outputs.py --check`."""

    @staticmethod
    def check_whole_batch_bytes(h, w, cin, cout, n, dtype):
        from liftrisk.nncore import _im2col

        rng = np.random.default_rng(n)
        layer = Conv2D(cout)
        layer.build((h, w, cin), rng, dtype)
        layer.b += rng.normal(scale=0.1, size=cout).astype(dtype)
        x = rng.normal(size=(n, h, w, cin)).astype(dtype)
        want = (_im2col(x) @ layer.w.reshape(-1, cout) + layer.b).reshape(n, h, w, cout)
        assert same_bytes(conv2d_batch(x, layer.w, layer.b), want)
        del want
        dz = rng.normal(size=(n, h, w, cout)).astype(dtype)
        dx, _ = layer.backward(dz, (x, np.ones(dz.shape, dtype=bool)), True, False)
        wf = layer.w[::-1, ::-1].transpose(0, 1, 3, 2)
        assert same_bytes(dx, (_im2col(dz) @ wf.reshape(-1, cin)).reshape(x.shape))

    @pytest.mark.parametrize("dims", DESK_CONVS)
    def test_desk_shapes_match_whole_batch_gemm(self, dims):
        # n = 28 is the last batch of every desk epoch (540 = 16 * 32 + 28):
        # a plain 9, 9, 9, 1 split of its 27x27x16 -> 8 input gradient
        # changes the bits of the last image
        for n in range(1, 34):
            self.check_whole_batch_bytes(*dims, n, np.float32)

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 32])
    @pytest.mark.parametrize("dims", PAPER_CONVS)
    def test_paper_shapes_match_whole_batch_gemm(self, dims, n):
        self.check_whole_batch_bytes(*dims, n, np.float64)

    def test_blocks_are_balanced_and_bounded(self, monkeypatch):
        from liftrisk import nncore

        shapes = []

        def recording_im2col(x):
            shapes.append(x.shape[0])
            return im2col(x)

        im2col = nncore._im2col
        monkeypatch.setattr(nncore, "_im2col", recording_im2col)
        h, w, cin, cout = DESK_CONVS[2]
        image_bytes = h * w * 9 * cin * 4
        x = np.zeros((28, h, w, cin), dtype=np.float32)
        nncore._patch_gemm(x, np.zeros((9 * cin, cout), dtype=np.float32))
        assert shapes == [7, 7, 7, 7]
        assert all(2 * k * image_bytes >= nncore.PATCH_BLOCK_BYTES >= k * image_bytes
                   for k in shapes)

    def test_inference_forward_holds_output_and_one_block(self):
        import tracemalloc

        from liftrisk.nncore import PATCH_BLOCK_BYTES

        h, w, cin, cout = PAPER_CONVS[1]
        layer = Conv2D(cout)
        layer.build((h, w, cin), np.random.default_rng(0), np.float64)
        x = np.random.default_rng(1).normal(size=(32, h, w, cin))
        block = max(PATCH_BLOCK_BYTES, h * w * 9 * cin * 8)
        tracemalloc.start()
        try:
            y, (_, mask) = layer.forward(x, False, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beside its patches, a block pads its images: about a ninth as many bytes
        assert peak <= y.nbytes + mask.nbytes + 1.25 * block
        assert 32 * h * w * 9 * cin * 8 > 5 * peak  # the whole patch matrix


class TestBackwardFlags:
    """Skipping unread gradients leaves every gradient that is read bit-identical."""

    @staticmethod
    def check_model_backward(model, dtype):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(4, *model.input_shape)).astype(dtype)
        onehot = np.eye(3)[[0, 1, 2, 1]]
        model.forward(x, train=True, rng=np.random.default_rng(51))
        grads = model.backward(onehot)

        probs, caches = forward_with_caches(model, x, True, np.random.default_rng(51))
        want, _ = full_backward(model, caches, (probs - onehot.astype(dtype)) / 4)
        assert len(grads) == len(want) == len(model.params())
        for got, ref in zip(grads, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    # at toy size some conv layers' parameters outweigh their upstream
    # gradient too, so Model.backward forms their gradients after its loop;
    # at desk size only the dense layers' are
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_model_backward_matches_full_backward(self, name, dtype):
        self.check_model_backward(small_preset(name, dtype), dtype)

    @pytest.mark.parametrize("name, dtype", [("vgg_b_avg", np.float32), ("vgg_b_avg", np.float64),
                                             ("simple_cnn", np.float32), ("mlp", np.float32)])
    def test_model_backward_at_desk_size_matches_full_backward(self, name, dtype):
        self.check_model_backward(desk_preset(name, dtype), dtype)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_logit_input_gradient_matches_full_backward(self, name):
        model = small_preset(name)
        rng = np.random.default_rng(52)
        model.forward(rng.normal(size=(4, 13, 11, 3)), train=True, rng=rng)  # move BN stats
        x = rng.normal(size=(3, 13, 11, 3))
        for class_index in range(3):
            out, caches = forward_with_caches(model, x, False, None)
            dlogits = np.zeros(out.shape)
            dlogits[:, class_index] = 1.0
            _, want = full_backward(model, caches, dlogits, train=False)
            assert np.array_equal(model.logit_input_gradient(x, class_index), want)

    @pytest.mark.parametrize("shape", [(2, 5, 7, 3), (2, 6, 6, 2), (1, 7, 4, 1), (3, 95, 95, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_avgpool_backward_matches_repeat_form(self, shape, dtype):
        layer = AvgPool()
        rng = np.random.default_rng(53)
        x = rng.normal(size=shape).astype(dtype)
        layer.build(shape[1:], rng, dtype)
        y, cache = layer.forward(x, True, None)
        dout = rng.normal(size=y.shape).astype(dtype)
        dx, grads = layer.backward(dout, cache)
        want = avgpool_backward_repeat(dout, shape)
        assert dx.dtype == want.dtype and np.array_equal(dx, want) and grads == []
        assert layer.backward(dout, cache, False, True) == (None, [])

    def test_flags_skip_their_outputs(self):
        model = small_preset("vgg_b_max")
        rng = np.random.default_rng(54)
        _, caches = forward_with_caches(model, rng.normal(size=(2, 13, 11, 3)), True, rng)
        dout = rng.normal(size=(2, 3))
        for layer, cache in zip(reversed(model.layers), reversed(caches)):
            dx, grads = layer.backward(dout, cache, False, False)
            assert dx is None and (grads is None if layer.params() else grads == [])
            dout, _ = layer.backward(dout, cache)

    def test_positional_only_backward_wrapper(self, monkeypatch):
        # the benchmark's traced run replaces every layer class's forward and
        # backward with wrapper(layer, *args); training and saliency must pass
        # their flags through it, and layer 0's backward must still run
        rng = np.random.default_rng(55)
        images = rng.normal(size=(10, 13, 11, 3))
        labels = np.arange(10) % 3
        config = PipelineConfig(batch_size=4, max_epochs=2, patience=5, seed=3)
        plain = small_preset("vgg_b_avg")
        plain_history = train(plain, images, labels, config)
        plain_map = plain.logit_input_gradient(images[:2], 2)

        called = []

        def positional_only(fn, kind):
            def wrapper(layer, *args):
                called.append((kind, layer))
                return fn(layer, *args)
            return wrapper

        for cls in (Conv2D, AvgPool, MaxPool, Dropout, Flatten, Dense, BatchNorm, SoftmaxOutput):
            for kind in ("forward", "backward"):
                monkeypatch.setattr(cls, kind, positional_only(getattr(cls, kind), kind))
        wrapped = small_preset("vgg_b_avg")
        history = train(wrapped, images, labels, config)
        assert ("forward", wrapped.layers[0]) in called
        assert ("backward", wrapped.layers[0]) in called
        assert history.losses == plain_history.losses
        for a, b in zip(wrapped.snapshot(), plain.snapshot()):
            assert np.array_equal(a, b)
        called.clear()
        assert np.array_equal(wrapped.logit_input_gradient(images[:2], 2), plain_map)
        # one call per layer each way: no layer's method runs another wrapped one
        assert called == ([("forward", layer) for layer in wrapped.layers]
                          + [("backward", layer) for layer in reversed(wrapped.layers)])


class TestDeferredParameterGradients:
    """Model.backward forms the parameter gradients of a layer whose
    parameters outweigh its upstream gradient after the reverse loop, when no
    conv patch matrix is alive, and drops each layer's cache once used."""

    def test_order_patches_and_caches(self, monkeypatch):
        import weakref

        from liftrisk import nncore

        model = desk_preset("vgg_b_avg")
        layers = model.layers
        rng = np.random.default_rng(58)
        model.forward(rng.normal(size=(4, 55, 55, 3)).astype(np.float32), train=True, rng=rng)
        # the last array of each cache, which only the cache holds (a pool's
        # or Flatten's cache is a shape)
        owned = {i: weakref.ref([a for a in (c if isinstance(c, tuple) else (c,))
                                 if isinstance(a, np.ndarray)][-1])
                 for i, c in enumerate(model._train_caches)
                 if not isinstance(layers[i], (AvgPool, Flatten))}
        patches, calls = [], []

        def recording_im2col(x):
            cols = im2col(x)
            patches.append(weakref.ref(cols))
            return cols

        def recording_backward(fn):
            def backward(layer, dout, cache, need_dx, need_grads):
                i = next(k for k, l in enumerate(layers) if l is layer)
                calls.append((i, need_dx, need_grads,
                              any(ref() is not None for ref in patches),
                              sorted(k for k, ref in owned.items() if ref() is not None)))
                return fn(layer, dout, cache, need_dx, need_grads)
            return backward

        im2col = nncore._im2col
        monkeypatch.setattr(nncore, "_im2col", recording_im2col)
        for cls in (Conv2D, AvgPool, Dropout, Flatten, Dense, BatchNorm, SoftmaxOutput):
            monkeypatch.setattr(cls, "backward", recording_backward(cls.backward))
        model.backward(np.eye(3)[[0, 1, 2, 0]])

        dense, last = 12, len(layers) - 1
        assert [c[:3] for c in calls] == (
            [(i, i > 0, i not in (dense, last)) for i in range(last, -1, -1)]
            + [(last, False, True), (dense, False, True)])
        assert patches and not any(c[3] for c in calls)
        # in the loop, each layer after the running one has dropped its cache,
        # apart from the two whose gradients wait
        for i, _, _, _, alive in calls[:-2]:
            assert alive == sorted({k for k in owned if k <= i} | {dense, last})
        assert [c[4] for c in calls[-2:]] == [[dense, last], [dense]]
        assert all(ref() is None for ref in owned.values())


class TestSaliencyPass:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_unbuilt_model_raises_as_forward_does(self, name):
        model = build_preset(name, classes=3, conv_filters=(4, 4, 8), dense_units=8,
                             dropout_rate=0.25, l2_lambda=1e-3)
        x = np.zeros((1, 13, 11, 3))
        for call in (lambda: model.forward(x), lambda: model.logit_input_gradient(x, 0)):
            with pytest.raises(RuntimeError, match="model is not built"):
                call()

    def test_runs_neither_forward_nor_backward(self, monkeypatch):
        # a saliency map is not a training step: the benchmark times the
        # steps through Model.forward and Model.backward
        model = small_preset("vgg_b_avg")
        x = np.random.default_rng(56).normal(size=(2, 13, 11, 3))
        model.forward(x, train=True, rng=np.random.default_rng(57))
        caches = model._train_caches
        want = model.logit_input_gradient(x, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("Model.forward or Model.backward was called")

        monkeypatch.setattr(Model, "forward", refuse)
        monkeypatch.setattr(Model, "backward", refuse)
        assert np.array_equal(model.logit_input_gradient(x, 1), want)
        assert model._train_caches is caches  # the train-mode caches are left alone


class TestInferenceCaches:
    @staticmethod
    def toy_model():
        return build_preset("vgg_b_avg", classes=3, conv_filters=(4, 4, 8), dense_units=8,
                            dropout_rate=0.25, l2_lambda=1e-5).build((12, 12, 3), seed=7)

    def test_no_patch_matrix_outlives_a_conv_forward(self, monkeypatch):
        import weakref

        from liftrisk import nncore

        model = self.toy_model()
        patches, alive = [], []

        def recording_im2col(x):
            cols = im2col(x)
            patches.append(weakref.ref(cols))
            return cols

        def checking_forward(layer):
            def forward(x, train, rng):
                alive.append(any(ref() is not None for ref in patches))
                return type(layer).forward(layer, x, train, rng)
            return forward

        im2col = nncore._im2col
        monkeypatch.setattr(nncore, "_im2col", recording_im2col)
        for layer in model.layers[1:]:
            layer.forward = checking_forward(layer)
        x = np.random.default_rng(43).normal(size=(3, 12, 12, 3))
        model.forward(x, train=False)
        model.forward(x, train=True, rng=np.random.default_rng(0))
        model.backward(np.eye(3)[[0, 1, 2]])
        assert len(patches) == 5 + 5 + 9 and all(ref() is None for ref in patches)
        assert alive == [False] * 2 * (len(model.layers) - 1)

    def test_inference_pass_drops_each_cache(self):
        import weakref

        model = self.toy_model()
        first, second = model.layers[:2]
        masks, alive = [], []

        def first_forward(x, train, rng):
            y, cache = Conv2D.forward(first, x, train, rng)
            masks.append(weakref.ref(cache[1]))  # the ReLU mask
            return y, cache

        def second_forward(x, train, rng):
            alive.append(masks[-1]() is not None)
            return type(second).forward(second, x, train, rng)

        first.forward, second.forward = first_forward, second_forward
        x = np.random.default_rng(43).normal(size=(3, 12, 12, 3))
        model.forward(x, train=False)
        assert alive == [False]
        model.forward(x, train=True, rng=np.random.default_rng(0))
        assert alive == [False, True]  # train mode keeps it for backward

    def test_train_cache_holds_input_and_mask_only(self):
        model = self.toy_model()
        x = np.random.default_rng(45).normal(size=(3, 12, 12, 3))
        model.forward(x, train=True, rng=np.random.default_rng(0))
        in_shapes = [model.input_shape] + model.output_shapes
        convs = 0
        for i, (layer, cache) in enumerate(zip(model.layers, model._train_caches)):
            if isinstance(layer, Conv2D):
                convs += 1
                assert [a.shape for a in cache] == [(3, *in_shapes[i]), (3, *in_shapes[i + 1])]
                assert [a.dtype for a in cache] == [np.float64, bool]
        assert convs == 5 and model._train_caches[0][0] is x

    def test_train_pass_drops_previous_caches_first(self):
        import weakref

        model = self.toy_model()
        first = model.layers[0]
        seen = []

        def first_forward(x, train, rng):
            seen.append([ref() is not None for ref in masks])
            y, cache = Conv2D.forward(first, x, train, rng)
            masks.append(weakref.ref(cache[1]))  # the ReLU mask, made by this pass
            return y, cache

        masks = []
        first.forward = first_forward
        x = np.random.default_rng(44).normal(size=(3, 12, 12, 3))
        model.forward(x, train=True, rng=np.random.default_rng(0))
        model.forward(x, train=True, rng=np.random.default_rng(1))
        model.forward(x, train=False)
        # each pass starts with the previous train-mode pass's caches gone
        assert seen == [[], [False], [False, False]]


def shipped_preset(name):
    """The named preset at PipelineConfig's default sizes, unbuilt."""
    return PipelineConfig(model_preset=name).preset()


class TestPresets:
    def test_vgg_b_avg_table_structure(self):
        model = shipped_preset("vgg_b_avg")
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds == ["Conv2D", "AvgPool", "Dropout",
                         "Conv2D", "Conv2D", "AvgPool", "Dropout",
                         "Conv2D", "Conv2D", "AvgPool", "Dropout",
                         "Flatten", "Dense", "BatchNorm", "Dropout", "SoftmaxOutput"]
        filters = [l.filters for l in model.layers if isinstance(l, Conv2D)]
        assert filters == [32, 64, 64, 128, 128]
        dense = [l for l in model.layers if isinstance(l, Dense)]
        assert dense[0].units == 1024
        assert model.layers[-1].classes == 3

    def test_shape_trace_95(self):
        model = shipped_preset("vgg_b_avg").build((95, 95, 3), seed=0)
        spatial = [s for s in model.output_shapes if len(s) == 3]
        heights = []
        for s in spatial:
            if not heights or s[0] != heights[-1]:
                heights.append(s[0])
        assert heights == [95, 47, 23, 11]
        flat = next(s for s in model.output_shapes if len(s) == 1 and s[0] > 3)
        assert flat == (15_488,)
        assert model.output_shapes[-1] == (3,)

    def test_max_variant_differs_only_in_pooling(self):
        avg = shipped_preset("vgg_b_avg")
        mx = shipped_preset("vgg_b_max")
        assert len(avg.layers) == len(mx.layers)
        for a, b in zip(avg.layers, mx.layers):
            if isinstance(a, AvgPool):
                assert isinstance(b, MaxPool)
            else:
                assert type(a) is type(b)
                assert a.spec_line() == b.spec_line()

    def test_simple_cnn_has_no_pool_or_hidden_dense(self):
        model = shipped_preset("simple_cnn")
        kinds = {type(l) for l in model.layers}
        assert AvgPool not in kinds and MaxPool not in kinds and Dense not in kinds

    def test_mlp_is_dense_only(self):
        model = shipped_preset("mlp")
        assert not any(isinstance(l, (Conv2D, AvgPool, MaxPool)) for l in model.layers)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            build_preset("resnet", 3, (32, 64, 128), 1024, 0.25, 1e-5)

    def test_model_must_end_with_softmax(self):
        with pytest.raises(ValueError):
            Model([Flatten()])


class TestFiniteness:
    def test_forward_outputs_finite(self):
        rng = np.random.default_rng(40)
        model = build_preset("vgg_b_avg", classes=3, conv_filters=(4, 4, 8), dense_units=8,
                             dropout_rate=0.25, l2_lambda=1e-5).build((12, 12, 3), seed=5)
        x = rng.normal(size=(4, 12, 12, 3)) * 10
        probs = model.forward(x, train=True, rng=rng)
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def checkpoint_model(config_lines=()):
    """The untrained model TestCheckpoint saves; as a loader's builder it
    ignores the config lines."""
    return build_preset("vgg_b_avg", classes=3, conv_filters=(4, 4, 8), dense_units=8,
                        dropout_rate=0.25, l2_lambda=1e-5).build((12, 12, 3), seed=7,
                                                                 dtype=np.float32)


class TestCheckpoint:
    def _trained_ish_model(self):
        model = checkpoint_model()
        rng = np.random.default_rng(41)
        x = rng.normal(size=(4, 12, 12, 3)).astype(np.float32)
        model.forward(x, train=True, rng=rng)  # nudge BN running stats
        return model

    def test_roundtrip_bit_exact(self, tmp_path):
        model = self._trained_ish_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, ["image_width = 12", "seed = 7"],
                        extra_tensors={"scaler_params": np.arange(72.0).reshape(36, 2)})
        loaded, config_lines, extra = load_checkpoint(path, checkpoint_model)
        assert config_lines == ["image_width = 12", "seed = 7"]
        assert np.array_equal(extra["scaler_params"], np.arange(72.0).reshape(36, 2))
        assert loaded.spec_lines() == model.spec_lines()
        assert loaded.input_shape == model.input_shape
        assert loaded.dtype == model.dtype
        for a, b in zip(model.snapshot(), loaded.snapshot()):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_roundtrip_predictions_identical(self, tmp_path):
        model = self._trained_ish_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, [])
        loaded, _, _ = load_checkpoint(path, checkpoint_model)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(6, 12, 12, 3)).astype(np.float32)
        c1, p1 = predict(model, x)
        c2, p2 = predict(loaded, x)
        assert np.array_equal(c1, c2)
        assert np.array_equal(p1, p2)

    def test_save_is_deterministic(self, tmp_path):
        model = self._trained_ish_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, ["seed = 7"])
        save_checkpoint(p2, model, ["seed = 7"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_resave_byte_identical(self, tmp_path):
        # the loader fills tensors by position; a BN model covers params and state
        model = self._trained_ish_model()
        assert any(isinstance(l, BatchNorm) for l in model.layers)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(first, model, ["seed = 7"],
                        extra_tensors={"scaler_params": np.arange(72.0).reshape(36, 2)})
        loaded, config_lines, extra = load_checkpoint(first, checkpoint_model)
        save_checkpoint(second, loaded, config_lines, extra_tensors=extra)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_is_mismatch(self, tmp_path):
        model = self._trained_ish_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, ["seed = 7"],
                        extra_tensors={"scaler_params": np.arange(72.0).reshape(36, 2)})
        blob = path.read_bytes()
        # every cut in the text before the first payload, a cut at 2000 bytes,
        # and cuts spread through the payloads
        first_payload = blob.index(b"tensor layer00.w")
        first_payload = blob.index(b"\n", first_payload) + 1
        cuts = [*range(len(b"LRISK\n"), first_payload + 1), 2000,
                *range(first_payload + 1, len(blob), 97), len(blob) - 1]
        for cut in cuts:
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointMismatchError, match="m.ckpt"):
                load_checkpoint(path, checkpoint_model)

    def test_rejects_non_3x3(self, tmp_path):
        # a conv kernel whose header says 5x5 disagrees with the 3x3 layer spec
        model = self._trained_ish_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, [])
        header = b"tensor layer00.w 4 3 3 3 4\n"
        blob = path.read_bytes()
        assert header in blob
        path.write_bytes(blob.replace(header, b"tensor layer00.w 4 5 5 3 4\n"))
        with pytest.raises(CheckpointMismatchError, match="layer00.w"):
            load_checkpoint(path, checkpoint_model)

    def test_version_checked(self, tmp_path):
        model = self._trained_ish_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, [])
        blob = path.read_bytes()
        assert blob.startswith(b"LRISK\nversion 1\n")
        path.write_bytes(blob.replace(b"version 1", b"version 9", 1))
        with pytest.raises(CheckpointMismatchError, match="version 9") as err:
            load_checkpoint(path, checkpoint_model)
        assert "m.ckpt" in str(err.value)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE\nversion 1\n")
        with pytest.raises(CheckpointMismatchError, match="magic") as err:
            load_checkpoint(path, checkpoint_model)
        assert "bad.ckpt" in str(err.value)
