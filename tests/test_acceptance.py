"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured numbers.

The expensive criteria share one synthetic benchmark at the reduced desk
profile (720 trials, 250 frames, width-55 images, 8/16/32 filters), generated
and trained through the real CLI so the checkpoint/CSV byte-identity check
exercises the shipping code path.  Run with `pytest tests/test_acceptance.py
-v -s` to see the PASS lines as they complete.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liftrisk import cli, metrics, pipeline, saliency, signals, synthdata, trainer
from liftrisk.config import PipelineConfig, load_config
from liftrisk.imaging import unwrap_image, wrap_image
from liftrisk.metrics import ConfusionMatrix, rk
from liftrisk.nncore import (AvgPool, BatchNorm, Conv2D, Dense, Flatten, MaxPool, Model,
                             SoftmaxOutput, build_preset, conv2d_batch)
from liftrisk.trainer import AdamState, EarlyStopper, TrainConfig, adam_step

SEED = 42


# ---------------------------------------------------------------------------
# shared benchmark fixtures


@pytest.fixture(scope="module")
def desk_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "data"
    assert cli.main(["synth", "--out", str(out), "--seed", str(SEED),
                     "--profile", "desk"]) == 0
    return out


@pytest.fixture(scope="module")
def bench_run(desk_dir, tmp_path_factory):
    """Criterion 7's training run, timed, through the CLI."""
    run_dir = tmp_path_factory.mktemp("runA")
    ckpt = run_dir / "model.ckpt"
    t0 = time.time()
    rc = cli.main(["train", "--data", str(desk_dir),
                   "--config", str(desk_dir / "pipeline_config.txt"),
                   "--out", str(ckpt)])
    elapsed = time.time() - t0
    assert rc == 0
    return {"ckpt": ckpt, "metrics": run_dir / "model_metrics.csv",
            "history": run_dir / "model_history.csv", "elapsed": elapsed}


@pytest.fixture(scope="module")
def prepared(desk_dir):
    """The same preprocessing the benchmark run performed, for the in-process
    model comparison; identical split and scaler by the shared seed."""
    config = load_config(desk_dir / "pipeline_config.txt")
    trials, manifest = synthdata.load_dataset(desk_dir)
    return config, pipeline.prepare(trials, manifest, config)


def read_metric_rows(path) -> dict:
    rows = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith("metric,"):
            continue
        name, cls, value = line.split(",")
        rows[(name, cls)] = float(value)
    return rows


def rel_err(analytic, numeric):
    if abs(analytic) < 1e-7 and abs(numeric) < 1e-7:
        return 0.0
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


def central_diff(f, arr, flat_index, h):
    orig = arr.flat[flat_index]
    arr.flat[flat_index] = orig + h
    fp = f()
    arr.flat[flat_index] = orig - h
    fm = f()
    arr.flat[flat_index] = orig
    return (fp - fm) / (2 * h)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    t_start = time.time()
    rng = np.random.default_rng(SEED)

    # per-layer isolation: scalar loss sum(y * R) against central differences
    def check_layer(layer, x, tol=1e-4, n_samples=30):
        y, cache = layer.forward(x, True, np.random.default_rng(0))
        r = np.random.default_rng(1).normal(size=y.shape)
        dx, grads = layer.backward(r, cache)

        def loss():
            y2, _ = layer.forward(x, True, np.random.default_rng(0))
            return float(np.sum(y2 * r))

        worst = 0.0
        for arr, ana in [(x, dx)] + list(zip(layer.params(), grads)):
            idx = rng.choice(arr.size, size=min(n_samples, arr.size), replace=False)
            for i in idx:
                num = central_diff(loss, arr, int(i), 1e-5)
                worst = max(worst, rel_err(ana.flat[int(i)], num))
        assert worst < tol, f"{type(layer).__name__}: rel err {worst}"
        return worst

    build_rng = np.random.default_rng(2)
    per_layer = {}
    conv = Conv2D(4)
    conv.build((6, 6, 3), build_rng, np.float64)
    conv.b += build_rng.normal(scale=0.05, size=conv.b.shape)
    per_layer["conv2d"] = check_layer(conv, rng.normal(size=(2, 6, 6, 3)))
    avg = AvgPool()
    avg.build((6, 6, 2), build_rng, np.float64)
    per_layer["avgpool"] = check_layer(avg, rng.normal(size=(2, 6, 6, 2)))
    mx = MaxPool()
    mx.build((6, 6, 2), build_rng, np.float64)
    per_layer["maxpool"] = check_layer(mx, rng.normal(size=(2, 6, 6, 2)))
    dense = Dense(7, activation="relu")
    dense.build((9,), build_rng, np.float64)
    dense.b += build_rng.normal(scale=0.05, size=dense.b.shape)
    per_layer["dense"] = check_layer(dense, rng.normal(size=(3, 9)))
    bn = BatchNorm()
    bn.build((5,), build_rng, np.float64)
    bn.gamma += build_rng.normal(scale=0.1, size=5)
    bn.beta += build_rng.normal(scale=0.1, size=5)
    per_layer["batchnorm"] = check_layer(bn, rng.normal(size=(6, 5)))

    # the output layer's backward is defined with respect to its logits (the
    # caller fuses softmax + cross-entropy), so its check scores the logits
    sm = SoftmaxOutput(3, l2_lambda=0.0)
    sm.build((5,), build_rng, np.float64)
    x_sm = rng.normal(size=(4, 5))
    _, cache = sm.forward(x_sm, True, None)
    r_sm = np.random.default_rng(1).normal(size=(4, 3))
    dx_sm, (dw_sm, db_sm) = sm.backward(r_sm, cache)

    def logits_loss():
        return float(np.sum((x_sm @ sm.w + sm.b) * r_sm))

    worst_sm = 0.0
    for arr, ana in [(x_sm, dx_sm), (sm.w, dw_sm), (sm.b, db_sm)]:
        idx = rng.choice(arr.size, size=min(30, arr.size), replace=False)
        for i in idx:
            num = central_diff(logits_loss, arr, int(i), 1e-5)
            worst_sm = max(worst_sm, rel_err(ana.flat[int(i)], num))
    assert worst_sm < 1e-4
    per_layer["softmax_dense"] = worst_sm

    # end-to-end desk-scale stack, dropout 0, 100 sampled parameters;
    # params are randomized off the zero-bias kink first
    model = build_preset("vgg_b_avg", classes=3, conv_filters=(4, 8, 8), dense_units=16,
                         dropout_rate=0.0, l2_lambda=1e-3)
    model.build((15, 15, 3), seed=3, dtype=np.float64)
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
        ce = -np.mean(np.sum(onehot * np.log(np.clip(probs, 1e-12, None)), axis=1))
        value = ce + model.layers[-1].l2_lambda * float(np.sum(model.layers[-1].w ** 2))
        model.restore(snap)
        return value

    pick = np.random.default_rng(4)
    worst_e2e = 0.0
    for _ in range(100):
        ti = int(pick.integers(len(params)))
        i = int(pick.integers(params[ti].size))
        num = central_diff(full_loss, params[ti], i, 1e-5)
        worst_e2e = max(worst_e2e, rel_err(grads[ti].flat[i], num))
    assert worst_e2e < 1e-3

    elapsed = time.time() - t_start
    assert elapsed < 120.0
    worst_layer = max(per_layer.values())
    print(f"\nPASS criterion 1: per-layer rel err <= {worst_layer:.2e} (< 1e-4), "
          f"end-to-end {worst_e2e:.2e} (< 1e-3) on 100 params, {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# criterion 2: convolution oracle


def test_criterion_2_convolution_oracle():
    t_start = time.time()

    def conv_naive(x, w, b):
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

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(500):
        hh, ww = rng.integers(2, 7, size=2)
        cin, cout = rng.integers(1, 4, size=2)
        x = rng.normal(size=(hh, ww, cin))
        w = rng.normal(size=(3, 3, cin, cout))
        b = rng.normal(size=cout)
        out = conv2d_batch(x[None], w, b)
        diff = float(np.max(np.abs(out[0] - conv_naive(x, w, b))))
        worst = max(worst, diff)
    assert worst < 1e-10
    elapsed = time.time() - t_start
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: 500 conv cases, max |diff| {worst:.2e} (< 1e-10), "
          f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 3: filter correctness


def test_criterion_3_filter_correctness():
    f = signals.design_bandpass(2, 2, 12, 25)

    def difference_equation(x):
        y = np.asarray(x, dtype=float)
        for s in f.sections:
            out = np.zeros_like(y)
            for n in range(len(y)):
                acc = s.b0 * y[n]
                if n >= 1:
                    acc += s.b1 * y[n - 1] - s.a1 * out[n - 1]
                if n >= 2:
                    acc += s.b2 * y[n - 2] - s.a2 * out[n - 2]
                out[n] = acc
            y = out
        return y

    impulse = np.zeros(750)
    impulse[0] = 1.0
    diff = float(np.max(np.abs(signals.filter_channel(impulse, f) - difference_equation(impulse))))
    assert diff < 1e-12

    peak = max(abs(signals.frequency_response(f, fr)) for fr in np.linspace(2, 12, 500))
    low_stop = abs(signals.frequency_response(f, 0.2))
    high_stop = abs(signals.frequency_response(f, 12.4))
    assert low_stop < 0.1 * peak
    assert high_stop < 0.1 * peak

    step = signals.filter_channel(np.ones(750), f)
    tail = float(np.max(np.abs(step[-1:])))
    settled = np.argmax(np.abs(step) < 1e-3)
    assert np.all(np.abs(step[-100:]) < 1e-3)
    print(f"\nPASS criterion 3: impulse vs oracle {diff:.2e} (< 1e-12), "
          f"|H(0.2)|={low_stop:.4f}, |H(12.4)|={high_stop:.4f} (< {0.1 * peak:.3f}), "
          f"step tail {tail:.2e} (< 1e-3, settles by sample {settled})")


# ---------------------------------------------------------------------------
# criterion 4: R_K correctness


def test_criterion_4_rk_correctness():
    rng = np.random.default_rng(SEED)

    def binary_mcc(m):
        tp, fn, fp, tn = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        denom = math.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)))
        return None if denom == 0 else (tp * tn - fp * fn) / denom

    checked = 0
    worst = 0.0
    while checked < 1000:
        m = rng.integers(0, 40, size=(2, 2))
        oracle = binary_mcc(m)
        if oracle is None:
            continue
        worst = max(worst, abs(float(rk(ConfusionMatrix(m, ("a", "b")))) - oracle))
        checked += 1
    assert worst < 1e-12

    for _ in range(20):
        d = rng.integers(1, 50, size=3)
        assert abs(float(rk(ConfusionMatrix(np.diag(d)))) - 1.0) < 1e-12

    rank_one = np.outer(rng.integers(1, 9, size=3), rng.integers(1, 9, size=3))
    assert abs(float(rk(ConfusionMatrix(rank_one)))) < 1e-12

    for _ in range(1000):
        m = rng.integers(0, 30, size=(3, 3))
        v = rk(ConfusionMatrix(m))
        assert -1.0 - 1e-12 <= float(v) <= 1.0 + 1e-12
        perm = rng.permutation(3)
        v2 = rk(ConfusionMatrix(m[np.ix_(perm, perm)]))
        assert abs(float(v2) - float(v)) < 1e-12
    print(f"\nPASS criterion 4: 1000 binary matrices vs closed-form MCC, "
          f"max |diff| {worst:.2e} (< 1e-12); diagonal=1, rank-one=0, "
          f"range and relabeling invariance on 1000 3x3 matrices")


# ---------------------------------------------------------------------------
# criterion 5: encoding bijection and shape trace


def test_criterion_5_encoding_and_shapes():
    rng = np.random.default_rng(SEED)
    for width in (55, 95):
        for _ in range(50):
            frames = int(rng.integers(5, 300))
            m = rng.normal(size=(12, frames, 3))
            img = wrap_image(m, width=width)
            assert np.array_equal(unwrap_image(img), m)

    model = PipelineConfig().preset().build((95, 95, 3), seed=0)
    heights = []
    for shape in model.output_shapes:
        if len(shape) == 3 and (not heights or shape[0] != heights[-1]):
            heights.append(shape[0])
    flat = next(s[0] for s in model.output_shapes if len(s) == 1 and s[0] > 3)
    dense = next(s[0] for l, s in zip(model.layers, model.output_shapes)
                 if isinstance(l, Dense))
    assert heights == [95, 47, 23, 11]
    assert flat == 15_488
    assert dense == 1024
    assert model.output_shapes[-1] == (3,)
    print("\nPASS criterion 5: wrap/unwrap exact on 100 matrices at widths 55 and 95; "
          "shape trace 95 -> 47 -> 23 -> 11 -> 15488 -> 1024 -> 3")


# ---------------------------------------------------------------------------
# criterion 6: optimizer and early stopping


def test_criterion_6_optimizer_and_early_stopping():
    params = [np.array([0.5])]
    state = AdamState.for_params(params)
    adam_step(params, [np.array([1.0])], state, TrainConfig(learning_rate=1e-3))
    expected = 0.5 - 1e-3 / (1.0 + 1e-8)
    first_step_err = abs(params[0][0] - expected)
    assert first_step_err < 1e-12

    params = [np.array([1.0])]
    state = AdamState.for_params(params)
    cfg = TrainConfig(learning_rate=0.1)
    for _ in range(200):
        adam_step(params, [2.0 * params[0]], state, cfg)
    theta_final = abs(float(params[0][0]))
    assert theta_final < 0.05

    stopper = EarlyStopper(patience=3, min_delta=0.0)
    stopped_at = None
    for epoch, value in enumerate([1.0, 0.9, 0.9, 0.9, 0.9, 0.9], start=1):
        if stopper.update(epoch, value):
            stopped_at = epoch
            break
    assert stopped_at == 5
    assert stopper.best_epoch == 2
    print(f"\nPASS criterion 6: adam first step err {first_step_err:.2e} (< 1e-12), "
          f"|theta| after 200 steps {theta_final:.4f} (< 0.05), "
          f"early stopping stopped at epoch 5 restoring epoch 2")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end synthetic benchmark


def test_criterion_7_benchmark(bench_run):
    rows = read_metric_rows(bench_run["metrics"])
    acc = rows[("accuracy", "")]
    rk_value = rows[("r_k", "")]
    f_low = rows[("f_measure", "low")]
    f_med = rows[("f_measure", "medium")]
    f_high = rows[("f_measure", "high")]
    assert acc >= 0.85
    assert rk_value >= 0.70
    assert f_high >= f_med
    assert f_high >= f_low
    assert bench_run["elapsed"] < 15 * 60
    print(f"\nPASS criterion 7: accuracy {acc:.4f} (>= 0.85), R_K {rk_value:.4f} (>= 0.70), "
          f"F high/med/low = {f_high:.3f}/{f_med:.3f}/{f_low:.3f} (high >= others), "
          f"train+eval {bench_run['elapsed']:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# criterion 8: ordinal model comparison


def test_criterion_8_model_ordering(bench_run, prepared):
    config, data = prepared
    vgg_rk = read_metric_rows(bench_run["metrics"])[("r_k", "")]

    def train_preset(preset):
        c = replace(config, model_preset=preset)
        model = pipeline.build_model(c, data.images.shape[1:])
        trainer.train(model, data.images[data.train_idx], data.labels[data.train_idx],
                      pipeline.train_config_of(c))
        preds, _ = trainer.predict(model, data.images[data.test_idx])
        cm = metrics.confusion(preds, data.labels[data.test_idx], k=3,
                               class_names=synthdata.RISK_CLASSES)
        return float(metrics.rk(cm)), metrics.accuracy(cm)

    mlp_rk, mlp_acc = train_preset("mlp")
    cnn_rk, cnn_acc = train_preset("simple_cnn")
    max_rk, max_acc = train_preset("vgg_b_max")

    assert vgg_rk >= mlp_rk
    assert cnn_rk >= mlp_rk
    ordering_note = ("avg >= max" if vgg_rk >= max_rk else "max > avg")
    print(f"\nPASS criterion 8: R_K vgg_b_avg {vgg_rk:.4f} >= mlp {mlp_rk:.4f}; "
          f"simple_cnn {cnn_rk:.4f} >= mlp {mlp_rk:.4f}; "
          f"vgg_b_max {max_rk:.4f} reported ({ordering_note}, not asserted)")


# ---------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_determinism(desk_dir, bench_run, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("runB")
    ckpt = run_dir / "model.ckpt"
    rc = cli.main(["train", "--data", str(desk_dir),
                   "--config", str(desk_dir / "pipeline_config.txt"),
                   "--out", str(ckpt)])
    assert rc == 0
    same_ckpt = ckpt.read_bytes() == bench_run["ckpt"].read_bytes()
    same_metrics = ((run_dir / "model_metrics.csv").read_bytes()
                    == bench_run["metrics"].read_bytes())
    assert same_ckpt, "checkpoint bytes differ between identical runs"
    assert same_metrics, "metrics CSV bytes differ between identical runs"
    print("\nPASS criterion 9: rerun with the same seed produced byte-identical "
          "checkpoint and metrics CSV")


# ---------------------------------------------------------------------------
# criterion 10: saliency


def test_criterion_10_saliency(bench_run, prepared):
    rng = np.random.default_rng(SEED)

    # linear model: saliency equals the class weight row exactly
    img = wrap_image(rng.normal(size=(12, 30, 3)), width=20)
    h, w, _ = img.pixels.shape
    linear = Model([Flatten(), SoftmaxOutput(3)]).build((h, w, 3), seed=1)
    for c in range(3):
        smap = saliency.class_score_gradient(linear, img, c)
        assert np.array_equal(smap.w, linear.layers[-1].w[:, c].reshape(h, w, 3))

    # finite-difference agreement on a small nonlinear model
    small_img = wrap_image(rng.normal(size=(12, 16, 3)), width=16)
    model = build_preset("vgg_b_avg", classes=3, conv_filters=(4, 4, 8), dense_units=8,
                         dropout_rate=0.25, l2_lambda=1e-5).build((12, 16, 3), seed=2)
    for p in model.params():
        p += rng.normal(scale=0.05, size=p.shape)
    smap = saliency.class_score_gradient(model, small_img, 1)

    def logit():
        out = small_img.pixels[None]
        for layer in model.layers[:-1]:
            out, _ = layer.forward(out, False, None)
        return float((out @ model.layers[-1].w + model.layers[-1].b)[0, 1])

    worst = 0.0
    pick = np.random.default_rng(3)
    for _ in range(50):
        i = int(pick.integers(small_img.pixels.size))
        num = central_diff(logit, small_img.pixels, i, 1e-4)
        worst = max(worst, rel_err(smap.w.flat[i], num))
    assert worst < 1e-3

    # trained benchmark model: attribution totals finite, non-negative, and
    # routing-consistent; the generator's emphasized sensors are reported
    trained, config, scaler = pipeline.load_trained(bench_run["ckpt"])
    _, data = prepared
    outputs = pipeline.saliency_for_class(trained, data, "high")
    attr = outputs.attribution
    assert np.all(np.isfinite(attr.per_sensor))
    assert np.all(attr.per_sensor >= 0.0)
    routed_total = attr.per_sensor.sum()
    direct_total = outputs.mean_magnitude.reshape(-1)[
        : data.encoded[outputs.image_indices[0]].pad_start].sum()
    assert routed_total == pytest.approx(direct_total, rel=1e-12)

    top4 = [signals.SENSOR_NAMES[s] for s in attr.ranking[:4]]
    emphasized = {signals.SENSOR_NAMES[s]
                  for s in synthdata.BACK_SENSORS + synthdata.WRIST_SENSORS}
    hits = [name for name in top4 if name in emphasized]
    print(f"\nPASS criterion 10: linear saliency exact; finite-difference rel err "
          f"{worst:.2e} (< 1e-3); attribution finite/non-negative/routing-consistent; "
          f"top-4 sensors reported: {', '.join(top4)} "
          f"({len(hits)}/4 are emphasized back/wrist sensors)")
