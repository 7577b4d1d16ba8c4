"""Gradient attribution: exactness on linear models, finite-difference
agreement on nonlinear ones, and the routing back to sensors."""

import numpy as np
import pytest

from liftrisk.imaging import wrap_image
from liftrisk.nncore import Dense, Dropout, Flatten, Model, SoftmaxOutput, build_preset
from liftrisk.saliency import (class_score_gradient, export_saliency, mean_magnitude,
                               sensor_attribution, write_attribution_csv)


def encoded_image(rng=None, frames=30, width=20):
    values = rng.normal(size=(12, frames, 3)) if rng is not None else np.zeros((12, frames, 3))
    return wrap_image(values, width=width)


class TestClassScoreGradient:
    def test_linear_model_recovers_weight_row(self):
        rng = np.random.default_rng(0)
        img = encoded_image(rng)
        h, w, _ = img.pixels.shape
        model = Model([Flatten(), SoftmaxOutput(3)]).build((h, w, 3), seed=1)
        for c in range(3):
            smap = class_score_gradient(model, img, c)
            expected = model.layers[-1].w[:, c].reshape(h, w, 3)
            assert np.array_equal(smap.w, expected)

    def test_linear_model_shift_invariance(self):
        rng = np.random.default_rng(1)
        img = encoded_image(rng)
        h, w, _ = img.pixels.shape
        model = Model([Flatten(), SoftmaxOutput(3)]).build((h, w, 3), seed=2)
        s1 = class_score_gradient(model, img, 1)
        shifted = wrap_image(np.full((12, 30, 3), 0.7), width=20)
        shifted.pixels[:] = img.pixels + 3.0
        s2 = class_score_gradient(model, shifted, 1)
        assert np.array_equal(s1.w, s2.w)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        img = encoded_image(rng, frames=16, width=16)
        model = build_preset("vgg_b_avg", classes=3, conv_filters=(4, 4, 8), dense_units=8,
                             dropout_rate=0.25, l2_lambda=1e-5).build((12, 16, 3), seed=3)
        for p in model.params():
            p += rng.normal(scale=0.05, size=p.shape)
        smap = class_score_gradient(model, img, 2)

        def logit():
            caches_out = img.pixels[None]
            out = caches_out
            for layer in model.layers[:-1]:
                out, _ = layer.forward(out, False, None)
            return float((out @ model.layers[-1].w + model.layers[-1].b)[0, 2])

        h = 1e-4
        pick = np.random.default_rng(4)
        base = img.pixels
        worst = 0.0
        for _ in range(50):
            i = int(pick.integers(base.size))
            orig = base.flat[i]
            base.flat[i] = orig + h
            lp = logit()
            base.flat[i] = orig - h
            lm = logit()
            base.flat[i] = orig
            num = (lp - lm) / (2 * h)
            ana = smap.w.flat[i]
            if abs(num) < 1e-7 and abs(ana) < 1e-7:
                continue
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana)))
        assert worst < 1e-3

    def test_gradient_scales_with_output_weights(self):
        rng = np.random.default_rng(5)
        img = encoded_image(rng, frames=16, width=16)
        model = build_preset("simple_cnn", classes=3, conv_filters=(4, 4, 8), dense_units=1024,
                             dropout_rate=0.0, l2_lambda=1e-5).build((12, 16, 3), seed=6)
        s1 = class_score_gradient(model, img, 0)
        model.layers[-1].w[:, 0] *= 2.5
        model.layers[-1].b[0] *= 2.5
        s2 = class_score_gradient(model, img, 0)
        assert np.allclose(s2.w, 2.5 * s1.w, atol=1e-12)

    def test_magnitude_is_max_abs_over_channels(self):
        rng = np.random.default_rng(7)
        img = encoded_image(rng)
        h, w, _ = img.pixels.shape
        model = Model([Flatten(), SoftmaxOutput(3)]).build((h, w, 3), seed=8)
        smap = class_score_gradient(model, img, 0)
        assert np.array_equal(smap.magnitude, np.abs(smap.w).max(axis=2))
        # flipping the sign of the weights leaves the magnitude unchanged
        model.layers[-1].w[:] *= -1.0
        smap2 = class_score_gradient(model, img, 0)
        assert np.array_equal(smap2.magnitude, smap.magnitude)

    def test_zero_weight_path_gives_zero_saliency(self):
        img = encoded_image(np.random.default_rng(9), frames=16, width=16)
        model = Model([Flatten(), SoftmaxOutput(3)]).build((12, 16, 3), seed=10)
        model.layers[-1].w[0, :] = 0.0  # pixel 0's only path is zeroed
        smap = class_score_gradient(model, img, 1)
        assert smap.w.flat[0] == 0.0

    def test_class_index_checked(self):
        img = encoded_image(np.random.default_rng(11))
        h, w, _ = img.pixels.shape
        model = Model([Flatten(), SoftmaxOutput(3)]).build((h, w, 3), seed=12)
        with pytest.raises(ValueError):
            class_score_gradient(model, img, 3)

    def test_dropout_inactive_during_saliency(self):
        rng = np.random.default_rng(13)
        img = encoded_image(rng, frames=16, width=16)
        model = Model([Flatten(), Dense(8, activation="none"), Dropout(0.5),
                       SoftmaxOutput(3)]).build((12, 16, 3), seed=14)
        s1 = class_score_gradient(model, img, 0)
        s2 = class_score_gradient(model, img, 0)
        assert np.array_equal(s1.w, s2.w)  # deterministic: no mask resampling


class TestSensorAttribution:
    def test_uniform_magnitude_equal_totals(self):
        img = encoded_image(frames=750, width=95)
        attr = sensor_attribution(np.ones((95, 95)), img)
        assert np.allclose(attr.per_sensor, 750.0)

    def test_single_sensor_routing(self):
        img = encoded_image(frames=40, width=24)
        mag = np.zeros((img.height, img.width))
        for t in range(40):
            r, c = img.to_rowcol(6, t)
            mag[r, c] = 2.0
        attr = sensor_attribution(mag, img)
        assert attr.ranking[0] == 6
        assert attr.per_sensor[6] == pytest.approx(80.0)
        others = np.delete(attr.per_sensor, 6)
        assert np.all(others == 0.0)

    def test_totals_non_negative_and_consistent(self):
        rng = np.random.default_rng(15)
        img = encoded_image(rng, frames=30, width=20)
        mag = np.abs(rng.normal(size=(img.height, img.width)))
        attr = sensor_attribution(mag, img)
        assert np.all(attr.per_sensor >= 0.0)
        assert attr.per_sensor.sum() == pytest.approx(
            mag.reshape(-1)[: img.pad_start].sum())
        assert sorted(attr.ranking) == list(range(12))

    def test_shape_mismatch_rejected(self):
        img = encoded_image(frames=30, width=20)
        with pytest.raises(ValueError):
            sensor_attribution(np.zeros((5, 5)), img)


class TestExport:
    def test_pgm_header(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "m.pgm"
        export_saliency(rng.random((95, 95)), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n95 95\n255\n")
        assert len(blob) == len(b"P5\n95 95\n255\n") + 95 * 95

    def test_constant_magnitude_midpoint(self, tmp_path):
        path = tmp_path / "flat.pgm"
        export_saliency(np.full((10, 12), 3.3), path)
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert set(payload) == {128}

    def test_affine_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(17)
        mag = rng.random((20, 20)) * 5.0 + 1.0
        path = tmp_path / "q.pgm"
        export_saliency(mag, path)
        payload = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1],
                                dtype=np.uint8).reshape(20, 20).astype(float)
        lo, hi = mag.min(), mag.max()
        expected = (mag - lo) / (hi - lo) * 255.0
        assert np.max(np.abs(payload - expected)) <= 0.5 + 1e-9

    def test_attribution_csv(self, tmp_path):
        img = encoded_image(frames=30, width=20)
        attr = sensor_attribution(np.ones((img.height, img.width)), img)
        path = tmp_path / "attr.csv"
        write_attribution_csv(path, attr, comments=["seed = 0"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 0"
        assert lines[1] == "sensor,total,rank"
        assert len(lines) == 2 + 12

    def test_mean_magnitude(self):
        rng = np.random.default_rng(18)
        img = encoded_image(rng, frames=16, width=16)
        model = build_preset("simple_cnn", classes=3, conv_filters=(4, 4, 8), dense_units=1024,
                             dropout_rate=0.0, l2_lambda=1e-5).build((12, 16, 3), seed=19)
        maps = [class_score_gradient(model, img, c) for c in range(3)]
        mean = mean_magnitude(maps)
        assert mean == pytest.approx(np.mean([m.magnitude for m in maps], axis=0))
        with pytest.raises(ValueError):
            mean_magnitude([])
