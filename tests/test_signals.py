"""Filter design and preprocessing, checked against independent oracles:
scipy's pole-zero Butterworth design and a naive direct-form difference
equation evaluated term by term."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from liftrisk import signals
from liftrisk.signals import (TrialRecording, apply_scaler, design_bandpass,
                              filter_channel, fit_scaler, frequency_response,
                              pad_or_truncate)


def make_trial(channels):
    return TrialRecording(np.asarray(channels, dtype=float))


def random_trial(rng, frames=40):
    return make_trial(rng.normal(size=(36, frames)))


def as_frame_major(*trials):
    """[frames, N, 36]: equal-length trials in the layout that fit_scaler
    and apply_scaler read."""
    return np.stack([t.channels.T for t in trials], axis=1)


def scaled(t, s):
    """The trial scaled by apply_scaler, on a frame-major copy."""
    return make_trial(apply_scaler(t.channels.T.copy(), s).T)


def naive_difference_equation(x, sos):
    """Direct recursive evaluation of each section's difference equation."""
    y = np.asarray(x, dtype=float)
    for b0, b1, b2, _, a1, a2 in sos:
        out = np.zeros_like(y)
        for n in range(len(y)):
            acc = b0 * y[n]
            if n >= 1:
                acc += b1 * y[n - 1] - a1 * out[n - 1]
            if n >= 2:
                acc += b2 * y[n - 2] - a2 * out[n - 2]
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
            ours = np.array([abs(frequency_response(f, fr, fs)) for fr in freqs])
            w, h = sp_signal.sosfreqz(sos, worN=2 * np.pi * freqs / fs, fs=2 * np.pi)
            assert np.max(np.abs(ours - np.abs(h))) < 1e-9

    def test_stopband_attenuation_at_0_2_hz(self):
        f = design_bandpass(2, 2, 12, 25)
        peak = max(abs(frequency_response(f, fr, 25)) for fr in np.linspace(2, 12, 400))
        gain_db = 20 * np.log10(abs(frequency_response(f, 0.2, 25)) / peak)
        assert gain_db < -20.0

    def test_geometric_mean_frequency_near_peak(self):
        f = design_bandpass(2, 2, 12, 25)
        band = [abs(frequency_response(f, fr, 25)) for fr in np.linspace(2, 12, 400)]
        peak_db = 20 * np.log10(max(band))
        gm_db = 20 * np.log10(abs(frequency_response(f, np.sqrt(2 * 12), 25)))
        assert peak_db - gm_db < 1.0

    def test_bandpass_shape(self):
        f = design_bandpass(2, 2, 12, 25)
        peak = max(abs(frequency_response(f, fr, 25)) for fr in np.linspace(2, 12, 400))
        assert abs(frequency_response(f, 0.2, 25)) < 0.1 * peak
        assert abs(frequency_response(f, 12.4, 25)) < 0.1 * peak

    def test_all_poles_stable(self):
        for order, lo, hi, fs in [(1, 2, 3, 1000), (2, 2, 12, 25), (5, 3, 20, 100)]:
            f = design_bandpass(order, lo, hi, fs)
            for row in f:
                assert all(abs(p) < 1.0 for p in np.roots(row[3:]))

    def test_section_count_equals_order(self):
        for order in (1, 2, 3, 4):
            assert len(design_bandpass(order, 2, 10, 60)) == order

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
        with pytest.warns(UserWarning, match=r"clamping to 12\.375 Hz"):
            f = design_bandpass(2, 2, 13, 25)
        for row in f:
            assert all(abs(p) < 1.0 for p in np.roots(row[3:]))


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
        assert abs(frequency_response(f, 0.0, 25)) < 1e-15

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

    def test_input_unchanged(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=200)
        before = x.copy()
        filter_channel(x, design_bandpass(2, 2, 12, 25))
        assert x.tobytes() == before.tobytes()

    def test_filter_trial_matches_per_channel(self):
        rng = np.random.default_rng(7)
        f = design_bandpass(2, 2, 12, 25)
        t = random_trial(rng, frames=120)
        ft = make_trial(signals.filter_trial([t], f, t.n_frames)[:, 0].T)
        for c in range(36):
            assert np.array_equal(ft.channels[c], filter_channel(t.channels[c], f))


class TestSosLayout:
    """Our own design read by scipy as second-order sections: the row
    layout is scipy's, so its filter and response match ours."""

    @pytest.mark.parametrize("order, lo, hi, fs",
                             [(1, 2, 3, 1000), (2, 2, 12, 25), (3, 1, 9, 50), (4, 2, 8, 40)])
    def test_scipy_reads_design_as_sos(self, order, lo, hi, fs):
        sos = design_bandpass(order, lo, hi, fs)
        assert sos.dtype == np.float64 and sos.shape == (order, 6)
        assert np.all(sos[:, 3] == 1.0)
        x = np.random.default_rng(order).normal(size=500)
        assert np.max(np.abs(filter_channel(x, sos) - sp_signal.sosfilt(sos, x))) < 1e-12
        freqs = np.linspace(0.0, fs / 2, 300)
        _, h = sp_signal.sosfreqz(sos, worN=2 * np.pi * freqs / fs, fs=2 * np.pi)
        ours = np.array([frequency_response(sos, fr, fs) for fr in freqs])
        assert np.max(np.abs(ours - h)) < 1e-12


def per_trial_reference(trials, f, target_frames):
    """[target_frames, N, 36]: each trial filtered channel by channel, then
    padded or cut on its own."""
    return np.stack([pad_or_truncate(make_trial([filter_channel(c, f) for c in t.channels]),
                                     target_frames).channels.T for t in trials], axis=1)


class TestFilterTrial:
    @given(lengths=st.lists(st.integers(1, 16), min_size=1, max_size=4),
           target_frames=st.integers(1, 12), order=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[1, 7, 8, 13], target_frames=8, order=2, seed=0)
    @settings(max_examples=100)
    def test_matches_per_trial_reference(self, lengths, target_frames, order, seed):
        rng = np.random.default_rng(seed)
        f = design_bandpass(order, 2, 12, 25)
        trials = [random_trial(rng, frames=n) for n in lengths]
        got = signals.filter_trial(trials, f, target_frames)
        want = per_trial_reference(trials, f, target_frames)
        # bytes, so that a signed zero in the padding counts
        assert got.shape == want.shape == (target_frames, len(trials), 36)
        assert got.tobytes() == want.tobytes()

    def test_rejects_nonpositive_target(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            signals.filter_trial([random_trial(rng)], design_bandpass(2, 2, 12, 25), 0)


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


def where_scaler_reference(channels, s):
    """The per-trial formula apply_scaler computed before it scaled in
    place: a new [36, frames] array, each degenerate channel np.where'd to
    0.0.  Kept as the oracle of the in-place version."""
    x = channels
    if s.mode == "standardize":
        mean = s.params[:, 0:1]
        sd = s.params[:, 1:2]
        safe = sd >= signals.DEGENERATE_SPREAD
        return np.where(safe, (x - mean) / np.where(safe, sd, 1.0), 0.0)
    lo = s.params[:, 0:1]
    hi = s.params[:, 1:2]
    spread = hi - lo
    safe = spread >= signals.DEGENERATE_SPREAD
    return np.where(safe, 2.0 * (x - lo) / np.where(safe, spread, 1.0) - 1.0, 0.0)


# per-channel spreads (sd, or max - min) around the degenerate threshold
SPREADS = (0.0, np.nextafter(signals.DEGENERATE_SPREAD, 0.0), signals.DEGENERATE_SPREAD,
           np.nextafter(signals.DEGENERATE_SPREAD, 1.0), 1e-6, 1.0, 250.0)


class TestScaler:
    @pytest.mark.parametrize("mode", signals.SCALER_MODES)
    @given(frames=st.integers(1, 30), n_trials=st.integers(1, 5),
           spreads=st.lists(st.sampled_from(SPREADS), min_size=36, max_size=36),
           fitted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_in_place_matches_where_reference(self, mode, frames, n_trials, spreads, fitted,
                                              seed):
        """Every byte of apply_scaler over a [frames, N, 36] stack equals the
        per-trial np.where formula, signed zeros included."""
        rng = np.random.default_rng(seed)
        spreads = np.array(spreads)
        centers = rng.normal(0.0, 5.0, size=36)
        x = centers + spreads * rng.normal(size=(frames, n_trials, 36))
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        if fitted:  # constant and near-constant channels, fitted as prepare fits
            s = fit_scaler(x, mode)
        else:  # (mean, sd) or (0, max): each spread exactly as drawn
            first = centers if mode == "standardize" else np.zeros(36)
            s = signals.ChannelScaler(mode, np.stack([first, spreads], axis=1))
        got = apply_scaler(x.copy(), s)
        want = np.stack([where_scaler_reference(x[:, i].T, s).T for i in range(n_trials)],
                        axis=1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", signals.SCALER_MODES)
    @given(frames=st.integers(1, 40), n_trials=st.integers(1, 8),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_fit_on_rows_matches_fit_on_their_copy(self, mode, frames, n_trials, data, seed):
        rows = data.draw(st.lists(st.integers(0, n_trials - 1), min_size=1, max_size=n_trials,
                                  unique=True).map(sorted))
        x = np.random.default_rng(seed).normal(3.0, 2.0, size=(frames, n_trials, 36))
        assert (fit_scaler(x, mode, rows=rows).params.tobytes()
                == fit_scaler(x[:, rows], mode).params.tobytes())

    def test_minmax_spans_unit_interval(self):
        channels = np.zeros((36, 50))
        channels[0] = np.linspace(-4, 4, 50)
        channels[1:] = np.linspace(0, 1, 50)
        t = make_trial(channels)
        s = fit_scaler(as_frame_major(t), mode="minmax")
        out = scaled(t, s)
        assert out.channels[0].min() == pytest.approx(-1.0)
        assert out.channels[0].max() == pytest.approx(1.0)

    def test_minmax_never_exceeds_bounds_on_fit_data(self):
        rng = np.random.default_rng(13)
        trials = [random_trial(rng, frames=60) for _ in range(4)]
        s = fit_scaler(as_frame_major(*trials), mode="minmax")
        for t in trials:
            out = scaled(t, s)
            assert out.channels.min() >= -1.0 - 1e-9
            assert out.channels.max() <= 1.0 + 1e-9

    def test_standardize_mean_zero_sd_one(self):
        rng = np.random.default_rng(14)
        channels = rng.normal(5.0, 2.0, size=(36, 5000))
        t = make_trial(channels)
        s = fit_scaler(as_frame_major(t), mode="standardize")
        out = scaled(t, s)
        assert np.max(np.abs(out.channels.mean(axis=1))) < 1e-9
        assert np.max(np.abs(out.channels.std(axis=1) - 1.0)) < 1e-9

    def test_constant_channel_standardizes_to_zero(self):
        channels = np.full((36, 40), 3.25)
        t = make_trial(channels)
        s = fit_scaler(as_frame_major(t), mode="standardize")
        out = scaled(t, s)
        assert np.all(out.channels == 0.0)

    def test_constant_channel_minmax_to_zero(self):
        t = make_trial(np.full((36, 40), -1.5))
        out = scaled(t, fit_scaler(as_frame_major(t), mode="minmax"))
        assert np.all(out.channels == 0.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((10, 0, 36)), mode="standardize")

    @pytest.mark.parametrize("mode", signals.SCALER_MODES)
    @given(frames=st.integers(1, 400), n_trials=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    @example(frames=250, n_trials=6, seed=15)
    @settings(max_examples=40)
    def test_fit_on_strided_views_matches_contiguous(self, mode, frames, n_trials, seed):
        """prepare fits on the trials of a frame-major array, each a strided
        [36, frames] view; the fit must not depend on their strides."""
        rng = np.random.default_rng(seed)
        frame_major = rng.normal(3.0, 2.0, size=(frames, n_trials, 36))
        views = frame_major
        copies = np.asfortranarray(frame_major)
        stacked = np.concatenate([np.ascontiguousarray(frame_major[:, i].T)
                                  for i in range(n_trials)], axis=1)
        if mode == "standardize":
            want = np.stack([stacked.mean(axis=1), stacked.std(axis=1)], axis=1)
        else:
            want = np.stack([stacked.min(axis=1), stacked.max(axis=1)], axis=1)
        assert fit_scaler(views, mode).params.tobytes() == want.tobytes()
        assert fit_scaler(copies, mode).params.tobytes() == want.tobytes()

    def test_fit_uses_all_trials(self):
        t1 = make_trial(np.full((36, 10), 0.0))
        t2 = make_trial(np.full((36, 10), 10.0))
        s = fit_scaler(as_frame_major(t1, t2), mode="minmax")
        out = scaled(t1, s)
        assert np.all(out.channels == -1.0)


class TestTrialRecording:
    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            make_trial(np.zeros((35, 10)))
