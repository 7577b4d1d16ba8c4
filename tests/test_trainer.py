"""Loss closed forms, the Adam update against an independent scalar
reference, early-stopping semantics, and training-loop determinism."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from liftrisk import imaging, pipeline, trainer
from liftrisk.config import PipelineConfig, desk_config
from liftrisk.errors import TrainingDivergedError
from liftrisk.nncore import Dense, Dropout, Flatten, Model, SoftmaxOutput
from liftrisk.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPSILON, AdamState,
                              EarlyStopper, adam_step, loss, predict, train)


def scalar_adam_reference(grad_fn, theta0, alpha, steps, b1=0.9, b2=0.999, eps=1e-8):
    """Independent textbook implementation on one scalar."""
    theta, m, v = theta0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= alpha * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def whole_array_adam(p, g, m, v, t, learning_rate):
    """The update as one expression per array, on fresh temporaries."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    p -= learning_rate * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t))
                                                  + ADAM_EPSILON)


class TestLoss:
    def test_perfect_prediction_zero(self):
        probs = np.eye(3)
        assert loss(probs, np.eye(3), None, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_is_ln3(self):
        probs = np.full((4, 3), 1 / 3)
        onehot = np.eye(3)[[0, 1, 2, 0]]
        assert loss(probs, onehot, None, 0.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_l2_term_zero_for_zero_weights(self):
        model = Model([SoftmaxOutput(3, l2_lambda=1.0)]).build((4,), seed=0)
        model.layers[-1].w[:] = 0.0
        probs = np.full((2, 3), 1 / 3)
        onehot = np.eye(3)[[0, 1]]
        assert loss(probs, onehot, model, 1.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_l2_term_added(self):
        model = Model([SoftmaxOutput(3, l2_lambda=0.5)]).build((2,), seed=0)
        model.layers[-1].w[:] = 2.0
        probs = np.eye(3)[[0]]
        expected = 0.5 * float(np.sum(model.layers[-1].w ** 2))
        assert loss(probs, np.eye(3)[[0]], model, 0.5) == pytest.approx(expected, abs=1e-9)

    def test_clamp_prevents_infinity(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        onehot = np.array([[0.0, 1.0, 0.0]])
        v = loss(probs, onehot, None, 0.0)
        assert np.isfinite(v)
        assert v == pytest.approx(-math.log(1e-12))


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        grads = [np.zeros(2), np.zeros((1, 1))]
        state = AdamState.for_params(params)
        adam_step(params, grads, state, 1e-3)
        assert np.array_equal(params[0], [1.0, -2.0])
        assert np.array_equal(params[1], [[3.0]])
        assert state.t == 1

    def test_first_step_closed_form(self):
        # g=1, fresh state: m_hat = 1, v_hat = 1, step = alpha / (1 + eps)
        params = [np.array([0.5])]
        state = AdamState.for_params(params)
        adam_step(params, [np.array([1.0])], state, 1e-3)
        expected_step = 1e-3 * 1.0 / (1.0 + 1e-8)
        assert params[0][0] == pytest.approx(0.5 - expected_step, abs=1e-12)
        assert expected_step == pytest.approx(9.99999e-4, abs=1e-9)

    def test_quadratic_convergence_vs_reference(self):
        # f(theta) = theta^2, grad = 2*theta
        lr = 0.1
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        for _ in range(200):
            adam_step(params, [2.0 * params[0]], state, lr)
        assert abs(params[0][0]) < 0.05
        ref = scalar_adam_reference(lambda th: 2.0 * th, 1.0, 0.1, 200)
        assert params[0][0] == pytest.approx(ref, abs=1e-12)

    def test_trajectory_matches_reference_elementwise(self):
        rng = np.random.default_rng(0)
        g_seq = rng.normal(size=12)
        params = [np.array([0.3])]
        state = AdamState.for_params(params)
        lr = 0.01
        theta, m, v = 0.3, 0.0, 0.0
        for t, g in enumerate(g_seq, start=1):
            adam_step(params, [np.array([g])], state, lr)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert params[0][0] == pytest.approx(theta, abs=1e-14)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (ADAM_BLOCK - 1,), (ADAM_BLOCK,), (ADAM_BLOCK + 1,),
                                       (70, 1024), (3, 3, 64, 64)],
                             ids=["1", "block-1", "block", "block+1", "2d", "conv"])
    def test_blocked_update_matches_whole_array_formula(self, shape, dtype):
        rng = np.random.default_rng(7)
        lr = 3e-3
        p = rng.normal(size=shape).astype(dtype)
        ref_p, ref_m, ref_v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        state = AdamState.for_params([p])
        for t in range(1, 4):
            g = rng.normal(size=shape).astype(dtype)
            adam_step([p], [g], state, lr)
            whole_array_adam(ref_p, g, ref_m, ref_v, t, lr)
            for got, want in ((p, ref_p), (state.m[0], ref_m), (state.v[0], ref_v)):
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEarlyStopper:
    def test_injected_sequence_stops_after_epoch_5(self):
        stopper = EarlyStopper(patience=3, min_delta=0.0)
        stopped_at = None
        for epoch, value in enumerate([1.0, 0.9, 0.9, 0.9, 0.9, 0.9], start=1):
            if stopper.update(epoch, value):
                stopped_at = epoch
                break
        assert stopped_at == 5
        assert stopper.best_epoch == 2

    def test_min_delta_requires_margin(self):
        stopper = EarlyStopper(patience=2, min_delta=0.05)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 0.97)  # improvement below min_delta
        assert stopper.update(3, 0.96)
        assert stopper.best_epoch == 1

    def test_improvement_resets_wait(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 1.0)
        assert not stopper.update(3, 0.5)
        assert not stopper.update(4, 0.5)
        assert stopper.update(5, 0.5)
        assert stopper.best_epoch == 3


def tiny_mlp(seed=0, input_dim=12, l2=0.0):
    return Model([Flatten(), Dense(8, activation="relu"), Dropout(0.0),
                  SoftmaxOutput(3, l2_lambda=l2)]).build((input_dim,), seed=seed)


def tiny_dataset(rng, n=24, dim=12):
    labels = np.arange(n) % 3
    images = rng.normal(size=(n, dim)) + labels[:, None] * 2.0
    return images, labels


class TestTrainLoop:
    def test_one_sample_memorization(self):
        rng = np.random.default_rng(1)
        model = tiny_mlp(seed=1)
        x = rng.normal(size=(1, 12))
        cfg = PipelineConfig(batch_size=1, max_epochs=5, patience=10, seed=1,
                             learning_rate=1e-2, model_preset="mlp")
        history = train(model, x, np.array([2]), cfg)
        assert len(history.losses) == 5
        diffs = np.diff(history.losses)
        assert np.all(diffs <= 1e-12)
        assert np.any(diffs < -1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        images, labels = tiny_dataset(rng)
        cfg = PipelineConfig(batch_size=8, max_epochs=6, seed=3)

        def run():
            model = Model([Flatten(), Dense(8, activation="relu"), Dropout(0.1),
                           SoftmaxOutput(3)]).build((12,), seed=3)
            history = train(model, images.copy(), labels.copy(), cfg)
            return history, model.snapshot()

        h1, s1 = run()
        h2, s2 = run()
        assert h1.losses == h2.losses
        assert h1.accuracies == h2.accuracies
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)

    def test_presentation_order_invariance(self):
        rng = np.random.default_rng(4)
        images, labels = tiny_dataset(rng)
        cfg = PipelineConfig(batch_size=8, max_epochs=5, seed=5)

        def run(order):
            model = tiny_mlp(seed=5)
            history = train(model, images[order], labels[order], cfg)
            return history.losses, model.snapshot()

        identity = np.arange(len(labels))
        shuffled = np.random.default_rng(99).permutation(len(labels))
        l1, s1 = run(identity)
        l2, s2 = run(shuffled)
        assert l1 == l2
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)

    def test_restored_weights_have_best_loss(self):
        rng = np.random.default_rng(6)
        images, labels = tiny_dataset(rng, n=18)
        cfg = PipelineConfig(batch_size=6, max_epochs=12, patience=3, seed=7,
                             learning_rate=5e-2)
        model = tiny_mlp(seed=7)
        history = train(model, images, labels, cfg)
        assert history.best_epoch == int(np.argmin(history.losses)) + 1
        onehot = np.eye(3)[labels]
        final_loss, _ = trainer.evaluate(model, images.astype(model.dtype), onehot, 0.0)
        assert final_loss == pytest.approx(min(history.losses), abs=1e-9)

    def test_l2_gradient_shrinks_weight_norm_monotonically(self):
        # data-term gradient frozen at zero: the combined-loss gradient is
        # 2*lambda*w, and descent must shrink the norm every step
        rng = np.random.default_rng(20)
        w = rng.normal(size=(6, 3))
        params = [w]
        state = AdamState.for_params(params)
        lr = 1e-2
        norms = [float(np.linalg.norm(w))]
        for _ in range(50):
            adam_step(params, [2.0 * 0.1 * w], state, lr)
            norms.append(float(np.linalg.norm(w)))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_l2_shrinks_output_weights_without_data_signal(self):
        # uniform targets on zero inputs leave only the L2 pull on weights
        model = Model([Flatten(), SoftmaxOutput(3, l2_lambda=0.1)]).build((4,), seed=8)
        images = np.zeros((6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        cfg = PipelineConfig(batch_size=6, max_epochs=30, patience=30, seed=8)
        w0 = float(np.sum(model.layers[-1].w ** 2))
        train(model, images, labels, cfg)
        # loss is minimized over epochs; restored weights have smaller norm
        assert float(np.sum(model.layers[-1].w ** 2)) < w0

    def test_empty_dataset_rejected(self):
        model = tiny_mlp()
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 12)), np.zeros(0, dtype=int), PipelineConfig())

    def test_divergence_raises_with_epoch(self):
        # a non-finite parameter poisons the forward pass; the loop must
        # abort naming the epoch rather than looping on NaN
        model = tiny_mlp(seed=9)
        model.layers[-1].w[0, 0] = np.inf
        rng = np.random.default_rng(9)
        images, labels = tiny_dataset(rng, n=12)
        cfg = PipelineConfig(batch_size=4, max_epochs=10, seed=9)
        with pytest.raises(TrainingDivergedError) as err, np.errstate(invalid="ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                train(model, images, labels, cfg)
        assert err.value.epoch == 1
        assert "epoch 1" in str(err.value)

    def test_stops_before_max_epochs_when_stuck(self):
        # constant loss surface: first epoch is best, patience runs out
        model = Model([Flatten(), SoftmaxOutput(3, l2_lambda=0.0)]).build((4,), seed=10)
        for p in model.params():
            p[:] = 0.0
        images = np.zeros((6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        cfg = PipelineConfig(batch_size=6, max_epochs=50, patience=4, seed=10)
        history = train(model, images, labels, cfg)
        # zero inputs + balanced labels: logits gradient sums to zero, loss fixed
        assert history.stopped_epoch == 5
        assert history.best_epoch == 1


class TestPredict:
    def test_probability_argmax(self):
        model = tiny_mlp(seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 12))
        classes, probs = predict(model, x)
        assert np.array_equal(classes, probs.argmax(axis=1))
        assert probs.shape == (5, 3)

    def test_tie_breaks_to_lowest_index(self):
        assert int(np.argmax(np.array([0.5, 0.5, 0.0]))) == 0
        model = Model([Flatten(), SoftmaxOutput(3)]).build((2,), seed=12)
        for p in model.params():
            p[:] = 0.0  # all logits equal -> exact three-way tie
        classes, probs = predict(model, np.ones((3, 2)))
        assert np.allclose(probs, 1 / 3)
        assert np.array_equal(classes, [0, 0, 0])

    def test_transient_memory_does_not_grow_with_n(self):
        """predict runs EVAL_BATCH images per pass: over four passes' worth of
        desk-shape images it peaks as over one pass, net of input and output."""
        config = desk_config()
        shape = imaging.image_shape(config.target_frames, config.image_width)
        model = pipeline.build_model(config, shape)
        rng = np.random.default_rng(13)

        def transient(n):
            images = rng.standard_normal((n, *shape), dtype=np.float32)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                classes, probs = predict(model, images)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - base - classes.nbytes - probs.nbytes

        one_pass = transient(trainer.EVAL_BATCH)
        assert transient(4 * trainer.EVAL_BATCH) <= 1.3 * one_pass


class TestHistoryCsv:
    def test_roundtrip_layout(self, tmp_path):
        h = trainer.TrainHistory(losses=[1.0, 0.5], accuracies=[0.4, 0.9], best_epoch=2)
        path = tmp_path / "history.csv"
        trainer.write_history_csv(path, h, comments=["seed = 3"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 3"
        assert lines[1] == "epoch,loss,accuracy"
        assert lines[2] == "1,1.0,0.4"
        assert lines[3] == "2,0.5,0.9"
        assert "# restored_from_epoch,2" in lines
