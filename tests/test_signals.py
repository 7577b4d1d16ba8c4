"""Filter design and preprocessing, checked against independent oracles:
scipy's pole-zero Butterworth design and a naive direct-form difference
equation evaluated term by term."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from liftrisk import signals
from liftrisk.signals import (BandpassFilter, ChannelScaler, TrialRecording, apply_scaler,
                              design_bandpass, filter_channel, fit_scaler,
                              frequency_response, pad_or_truncate)


def make_trial(channels):
    return TrialRecording(np.asarray(channels, dtype=float))


def random_trial(rng, frames=40):
    return make_trial(rng.normal(size=(36, frames)))


def naive_difference_equation(x, f: BandpassFilter):
    """Direct recursive evaluation of each section's difference equation."""
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


class TestDesign:
    def test_matches_scipy_pole_zero_design(self):
        """Transfer function of the produced coefficients vs the scipy
        bilinear pole-zero design, over the whole frequency axis."""
        for order, lo, hi, fs in [(2, 2, 12, 25), (1, 2, 3, 1000), (3, 1, 9, 50), (4, 2, 8, 40)]:
            f = design_bandpass(order, lo, hi, fs)
            sos = sp_signal.butter(order, [lo, hi], btype="bandpass", fs=fs, output="sos")
            freqs = np.linspace(0.01, fs / 2 * 0.999, 300)
            ours = np.array([abs(frequency_response(f, fr)) for fr in freqs])
            w, h = sp_signal.sosfreqz(sos, worN=2 * np.pi * freqs / fs, fs=2 * np.pi)
            assert np.max(np.abs(ours - np.abs(h))) < 1e-9

    def test_stopband_attenuation_at_0_2_hz(self):
        f = design_bandpass(2, 2, 12, 25)
        peak = max(abs(frequency_response(f, fr)) for fr in np.linspace(2, 12, 400))
        gain_db = 20 * np.log10(abs(frequency_response(f, 0.2)) / peak)
        assert gain_db < -20.0

    def test_geometric_mean_frequency_near_peak(self):
        f = design_bandpass(2, 2, 12, 25)
        band = [abs(frequency_response(f, fr)) for fr in np.linspace(2, 12, 400)]
        peak_db = 20 * np.log10(max(band))
        gm_db = 20 * np.log10(abs(frequency_response(f, np.sqrt(2 * 12))))
        assert peak_db - gm_db < 1.0

    def test_bandpass_shape(self):
        f = design_bandpass(2, 2, 12, 25)
        peak = max(abs(frequency_response(f, fr)) for fr in np.linspace(2, 12, 400))
        assert abs(frequency_response(f, 0.2)) < 0.1 * peak
        assert abs(frequency_response(f, 12.4)) < 0.1 * peak

    def test_all_poles_stable(self):
        for order, lo, hi, fs in [(1, 2, 3, 1000), (2, 2, 12, 25), (5, 3, 20, 100)]:
            f = design_bandpass(order, lo, hi, fs)
            for s in f.sections:
                assert all(abs(p) < 1.0 for p in s.poles())

    def test_section_count_equals_order(self):
        for order in (1, 2, 3, 4):
            assert len(design_bandpass(order, 2, 10, 60).sections) == order

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            design_bandpass(2, -1, 12, 25)
        with pytest.raises(ValueError):
            design_bandpass(2, 12, 2, 25)
        with pytest.raises(ValueError):
            design_bandpass(2, 5, 5, 25)
        with pytest.raises(ValueError):
            design_bandpass(0, 2, 12, 25)

    def test_clamps_high_edge_at_nyquist_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            f = design_bandpass(2, 2, 13, 25)
        assert f.high_clamped
        assert f.high_hz == pytest.approx(0.99 * 12.5)
        for s in f.sections:
            assert all(abs(p) < 1.0 for p in s.poles())


class TestFilterChannel:
    def test_zero_input_zero_output(self):
        f = design_bandpass(2, 2, 12, 25)
        y = filter_channel(np.zeros(100), f)
        assert np.all(y == 0.0)

    def test_dc_step_decays(self):
        f = design_bandpass(2, 2, 12, 25)
        y = filter_channel(np.ones(750), f)
        assert np.max(np.abs(y[-100:])) < 1e-3
        # H(1) = 0 exactly: DC is removed
        assert abs(frequency_response(f, 0.0)) < 1e-15

    def test_impulse_matches_difference_equation_oracle(self):
        f = design_bandpass(2, 2, 12, 25)
        x = np.zeros(750)
        x[0] = 1.0
        assert np.max(np.abs(filter_channel(x, f) - naive_difference_equation(x, f))) < 1e-12

    def test_random_input_matches_oracle(self):
        rng = np.random.default_rng(3)
        f = design_bandpass(2, 2, 12, 25)
        x = rng.normal(size=400)
        assert np.max(np.abs(filter_channel(x, f) - naive_difference_equation(x, f))) < 1e-12

    def test_matches_scipy_sosfilt(self):
        rng = np.random.default_rng(4)
        f = design_bandpass(2, 2, 12, 25)
        sos = sp_signal.butter(2, [2, 12], btype="bandpass", fs=25, output="sos")
        x = rng.normal(size=500)
        assert np.max(np.abs(filter_channel(x, f) - sp_signal.sosfilt(sos, x))) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(5)
        f = design_bandpass(2, 2, 12, 25)
        x, y = rng.normal(size=(2, 300))
        a, b = 1.7, -0.4
        lhs = filter_channel(a * x + b * y, f)
        rhs = a * filter_channel(x, f) + b * filter_channel(y, f)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_time_invariance_on_zero_prefix(self):
        rng = np.random.default_rng(6)
        f = design_bandpass(2, 2, 12, 25)
        x = rng.normal(size=200)
        k = 17
        delayed = np.concatenate([np.zeros(k), x])
        y = filter_channel(x, f)
        yd = filter_channel(delayed, f)
        assert np.array_equal(yd[:k], np.zeros(k))
        assert np.array_equal(yd[k:], y)

    def test_empty_rejected(self):
        f = design_bandpass(2, 2, 12, 25)
        with pytest.raises(ValueError):
            filter_channel(np.array([]), f)

    def test_filter_trial_matches_per_channel(self):
        rng = np.random.default_rng(7)
        f = design_bandpass(2, 2, 12, 25)
        t = random_trial(rng, frames=120)
        ft = signals.filter_trial(t, f)
        for c in range(36):
            assert np.array_equal(ft.channels[c], filter_channel(t.channels[c], f))


class TestPadOrTruncate:
    def test_pad_short_trial(self):
        rng = np.random.default_rng(8)
        t = random_trial(rng, frames=300)
        p = pad_or_truncate(t, 750)
        assert p.n_frames == 750
        assert np.array_equal(p.channels[:, :300], t.channels)
        assert np.all(p.channels[:, 300:] == 0.0)

    def test_identity_at_target(self):
        rng = np.random.default_rng(9)
        t = random_trial(rng, frames=750)
        p = pad_or_truncate(t, 750)
        assert np.array_equal(p.channels, t.channels)

    def test_truncate_long_trial(self):
        rng = np.random.default_rng(10)
        t = random_trial(rng, frames=800)
        p = pad_or_truncate(t, 750)
        assert p.n_frames == 750
        assert np.array_equal(p.channels, t.channels[:, :750])

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        t = random_trial(rng, frames=123)
        once = pad_or_truncate(t, 250)
        twice = pad_or_truncate(once, 250)
        assert np.array_equal(once.channels, twice.channels)

    def test_rejects_nonpositive_target(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            pad_or_truncate(random_trial(rng), 0)


class TestScaler:
    def test_minmax_spans_unit_interval(self):
        channels = np.zeros((36, 50))
        channels[0] = np.linspace(-4, 4, 50)
        channels[1:] = np.linspace(0, 1, 50)
        t = make_trial(channels)
        s = fit_scaler([t], mode="minmax")
        out = apply_scaler(t, s)
        assert out.channels[0].min() == pytest.approx(-1.0)
        assert out.channels[0].max() == pytest.approx(1.0)

    def test_minmax_never_exceeds_bounds_on_fit_data(self):
        rng = np.random.default_rng(13)
        trials = [random_trial(rng, frames=60) for _ in range(4)]
        s = fit_scaler(trials, mode="minmax")
        for t in trials:
            out = apply_scaler(t, s)
            assert out.channels.min() >= -1.0 - 1e-9
            assert out.channels.max() <= 1.0 + 1e-9

    def test_standardize_mean_zero_sd_one(self):
        rng = np.random.default_rng(14)
        channels = rng.normal(5.0, 2.0, size=(36, 5000))
        t = make_trial(channels)
        s = fit_scaler([t], mode="standardize")
        out = apply_scaler(t, s)
        assert np.max(np.abs(out.channels.mean(axis=1))) < 1e-9
        assert np.max(np.abs(out.channels.std(axis=1) - 1.0)) < 1e-9

    def test_constant_channel_standardizes_to_zero(self):
        channels = np.full((36, 40), 3.25)
        t = make_trial(channels)
        s = fit_scaler([t], mode="standardize")
        out = apply_scaler(t, s)
        assert np.all(out.channels == 0.0)

    def test_constant_channel_minmax_to_zero(self):
        t = make_trial(np.full((36, 40), -1.5))
        out = apply_scaler(t, fit_scaler([t], mode="minmax"))
        assert np.all(out.channels == 0.0)

    def test_unfitted_scaler_rejected(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            apply_scaler(random_trial(rng), ChannelScaler(mode="standardize"))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([], mode="standardize")

    def test_fit_uses_all_trials(self):
        t1 = make_trial(np.full((36, 10), 0.0))
        t2 = make_trial(np.full((36, 10), 10.0))
        s = fit_scaler([t1, t2], mode="minmax")
        out = apply_scaler(t1, s)
        assert np.all(out.channels == -1.0)


class TestTrialRecording:
    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            make_trial(np.zeros((35, 10)))
