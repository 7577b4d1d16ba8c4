"""IMU preprocessing: Butterworth bandpass filtering, trial length
normalization, and per-channel amplitude scaling.

The bandpass is designed analytically (analog Butterworth prototype, lowpass
to bandpass transform, bilinear transform with frequency pre-warping) and
realized as a cascade of second-order sections for numerical stability: a
float64 [order, 6] array, one (b0, b1, b2, 1, a1, a2) row per section as in
scipy.signal's SOS layout, the gain split evenly across its rows.
Filtering is causal single-pass with zero initial state, so the same code
path works on streamed samples.  A prepare's trials are one frame-major
[frames, N, 36] array: filter_trial returns it, fit_scaler reads its training
trials and apply_scaler scales it in place.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

N_SENSORS = 12
N_AXES = 3
N_CHANNELS = N_SENSORS * N_AXES

SENSOR_NAMES = (
    "side-accel", "side-gyro",
    "lwrist-accel", "lwrist-gyro",
    "rwrist-accel", "rwrist-gyro",
    "back-accel", "back-gyro",
    "arm-accel", "arm-gyro",
    "thigh-accel", "thigh-gyro",
)


# every recording, stored or generated, is sampled at this rate
SAMPLE_RATE_HZ = 25.0


@dataclass
class TrialRecording:
    """One lift trial: 36 channels (12 sensors x 3 axes) of equal length.

    Channel 3*s + k holds axis k of sensor s.  The trial's subject, zone and
    index live in its manifest entry.
    """

    channels: np.ndarray  # [36, frames]

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2 or self.channels.shape[0] != N_CHANNELS:
            raise ValueError(f"expected [{N_CHANNELS}, frames] channels, got {self.channels.shape}")
        if self.channels.shape[1] < 1:
            raise ValueError("trial must contain at least one frame")

    @property
    def n_frames(self) -> int:
        return self.channels.shape[1]


def check_band(order: int, low_hz: float, high_hz: float, sample_rate_hz: float) -> None:
    """Raise ValueError unless design_bandpass can design this band."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0 < low_hz < math.inf and 0 < high_hz < math.inf):  # false for NaN too
        raise ValueError(f"band edges must be finite and positive, got {low_hz}, {high_hz}")
    if low_hz >= high_hz:
        raise ValueError(f"low_hz must be < high_hz, got {low_hz} >= {high_hz}")
    if not sample_rate_hz > 2 * low_hz:
        raise ValueError(f"sample_rate_hz {sample_rate_hz} must exceed 2*low_hz")


def design_bandpass(order: int, low_hz: float, high_hz: float,
                    sample_rate_hz: float) -> np.ndarray:
    """Design a digital Butterworth bandpass as cascaded biquads: a float64
    [order, 6] second-order-sections array, one (b0, b1, b2, 1, a1, a2) row
    per section, the layout scipy.signal's sosfilt reads.

    Steps: place the analog lowpass prototype poles on the unit circle,
    map each through the lowpass-to-bandpass substitution
    s -> (s^2 + w_l*w_h) / (s * (w_h - w_l)) with the band edges pre-warped
    by tan(pi*f/fs), then map poles and zeros to the z-plane with the
    bilinear transform.  Each section carries one zero at z=+1 and one at
    z=-1; the overall gain is normalized to 1 at the warped band center
    and split evenly across sections.

    An upper edge at or above Nyquist is clamped to 0.99*Nyquist with a
    warning, which names the clamped edge, rather than rejected.
    """
    check_band(order, low_hz, high_hz, sample_rate_hz)
    nyquist = sample_rate_hz / 2.0
    if high_hz >= nyquist:
        clamped_hz = 0.99 * nyquist
        warnings.warn(
            f"bandpass upper edge {high_hz} Hz is at or above Nyquist "
            f"({nyquist} Hz); clamping to {clamped_hz} Hz",
            stacklevel=2,
        )
        high_hz = clamped_hz

    # Pre-warped analog band edges (bilinear convention s = (z-1)/(z+1)).
    wl = math.tan(math.pi * low_hz / sample_rate_hz)
    wh = math.tan(math.pi * high_hz / sample_rate_hz)
    w0sq = wl * wh
    bw = wh - wl

    # Prototype poles: exp(j*pi*(2k + order + 1) / (2*order)), left half plane.
    proto = [cmath.exp(1j * math.pi * (2 * k + order + 1) / (2 * order))
             for k in range(order)]

    # Bandpass substitution: each prototype pole p yields the two roots of
    # s^2 - p*bw*s + w0sq = 0.
    analog_poles: list[complex] = []
    for p in proto:
        pb = p * bw
        disc = cmath.sqrt(pb * pb - 4.0 * w0sq)
        analog_poles.append((pb + disc) / 2.0)
        analog_poles.append((pb - disc) / 2.0)

    # Bilinear transform; analog zeros (order at s=0, order at infinity) land
    # on z=+1 and z=-1.
    digital_poles = [(1.0 + s) / (1.0 - s) for s in analog_poles]

    sos = np.array([(1.0, 0.0, -1.0, 1.0, a1, a2)
                    for a1, a2 in _denominator_pairs(digital_poles)])

    # Normalize gain at the warped band center.
    w_center = 2.0 * math.atan(math.sqrt(w0sq))
    f_center = w_center * sample_rate_hz / (2.0 * math.pi)
    raw_gain = abs(frequency_response(sos, f_center, sample_rate_hz))
    per_section = (1.0 / raw_gain) ** (1.0 / len(sos))
    sos[:, :3] *= per_section

    for a1, a2 in sos[:, 4:].tolist():
        disc = cmath.sqrt(a1 * a1 - 4.0 * a2)
        if any(abs(p) >= 1.0 for p in ((-a1 + disc) / 2.0, (-a1 - disc) / 2.0)):
            raise ValueError("designed filter is unstable (pole on or outside unit circle)")
    return sos


def _denominator_pairs(poles: list[complex]) -> list[tuple[float, float]]:
    """Group 2N poles into N real-coefficient quadratics (a1, a2).

    Conjugate pairs give a1 = -2*Re(p), a2 = |p|^2.  Real poles (possible for
    wideband odd-order designs) are sorted and paired adjacently, giving
    a1 = -(r1 + r2), a2 = r1*r2.
    """
    is_real = lambda p: abs(p.imag) <= 1e-12 * max(1.0, abs(p))
    reps = sorted((p for p in poles if not is_real(p) and p.imag > 0),
                  key=lambda p: (p.real, p.imag))
    real_poles = sorted(p.real for p in poles if is_real(p))
    if len(real_poles) % 2 != 0:
        raise ValueError("unpaired real pole in bandpass design")
    pairs = [(-2.0 * p.real, abs(p) ** 2) for p in reps]
    for i in range(0, len(real_poles), 2):
        r1, r2 = real_poles[i], real_poles[i + 1]
        pairs.append((-(r1 + r2), r1 * r2))
    return pairs


def frequency_response(sos: np.ndarray, freq_hz: float, sample_rate_hz: float) -> complex:
    """H(e^{j*2*pi*f/fs}) evaluated from the section coefficients in Python
    complex arithmetic; the design's gain normalization reads it too."""
    z = cmath.exp(1j * 2.0 * math.pi * freq_hz / sample_rate_hz)
    zi = 1.0 / z
    h = complex(1.0, 0.0)
    for b0, b1, b2, _, a1, a2 in sos.tolist():
        h *= (b0 + b1 * zi + b2 * zi * zi) / (1.0 + a1 * zi + a2 * zi * zi)
    return h


def filter_channel(x, sos: np.ndarray) -> np.ndarray:
    """Causal single-pass filtering, direct form II transposed per section.
    The input is copied, never overwritten.  Kept as the one-channel
    reference that tests check the batched filter_trial against."""
    y = np.array(x, dtype=np.float64)
    if y.size == 0:
        raise ValueError("input sequence must be non-empty")
    return _df2t_cascade(y[:, None], sos)[:, 0]


def _df2t_cascade(y: np.ndarray, sos: np.ndarray) -> np.ndarray:
    """DF2T evaluation of every section in cascade over a float64
    [frames, rows] array, in place, rows filtered in parallel.

    The time recursion cannot vectorize, so the loop runs over frames with
    vector state across rows, each frame's rows contiguous; identical
    arithmetic to the scalar recursion.
    """
    n_frames, n_rows = y.shape
    for b0, b1, b2, _, a1, a2 in sos.tolist():
        s1 = np.zeros(n_rows)
        s2 = np.zeros(n_rows)
        for n in range(n_frames):
            xn = y[n]
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            y[n] = yn
    return y


def filter_trial(trials: list[TrialRecording], sos: np.ndarray,
                 target_frames: int) -> np.ndarray:
    """Bandpass every trial in one sweep and pad or cut it to
    ``target_frames``: [target_frames, N, 36] float64, trial i's filtered
    channels in ``[:, i]``, zero past its own length.

    Equal, byte for byte, to ``pad_or_truncate`` of each trial filtered on
    its own: the filter is causal and its rows are independent.
    """
    if target_frames < 1:
        raise ValueError("target_frames must be >= 1")
    frames = min(target_frames, max((t.n_frames for t in trials), default=0))
    out = np.zeros((target_frames, len(trials), N_CHANNELS))
    for i, t in enumerate(trials):
        out[:t.n_frames, i] = t.channels[:, :target_frames].T
    _df2t_cascade(out[:frames].reshape(frames, len(trials) * N_CHANNELS), sos)
    # the filter rings into a shorter trial's zero padding
    for i, t in enumerate(trials):
        out[t.n_frames:, i] = 0.0
    return out


def pad_or_truncate(t: TrialRecording, target_frames: int) -> TrialRecording:
    """Suffix-pad with zeros or cut to exactly ``target_frames`` frames."""
    if target_frames < 1:
        raise ValueError("target_frames must be >= 1")
    n = t.n_frames
    if n == target_frames:
        out = t.channels.copy()
    elif n < target_frames:
        out = np.zeros((N_CHANNELS, target_frames), dtype=np.float64)
        out[:, :n] = t.channels
    else:
        out = t.channels[:, :target_frames].copy()
    return TrialRecording(out)


SCALER_MODES = ("standardize", "minmax")
DEGENERATE_SPREAD = 1e-12


@dataclass
class ChannelScaler:
    """Per-channel affine scaling fitted on the training split only.

    standardize: (x - mean) / sd, channels with sd < 1e-12 map to zero.
    minmax: 2*(x - min)/(max - min) - 1 onto [-1, 1], degenerate channels
    map to zero as well (padding regions are constant).
    """

    mode: str
    params: np.ndarray  # [36, 2]: (mean, sd) or (min, max)

    def __post_init__(self):
        if self.mode not in SCALER_MODES:
            raise ValueError(f"unknown scaler mode {self.mode!r}")


def fit_scaler(x: np.ndarray, mode: str = "standardize", rows=None) -> ChannelScaler:
    """Fit on the trials ``rows`` (every trial when None) of a frame-major
    [frames, N, 36] array: every frame of those trials, channel by channel."""
    rows = range(x.shape[1]) if rows is None else rows
    if not len(rows):
        raise ValueError("cannot fit a scaler on an empty training set")
    # C order, a trial at a time: a reduction's bits depend on the layout it
    # reads, and a fancy-indexed copy of the rows would double the buffer
    frames = x.shape[0]
    stacked = np.empty((N_CHANNELS, len(rows) * frames))
    for k, i in enumerate(rows):
        stacked[:, k * frames:(k + 1) * frames] = x[:, i].T
    if mode == "standardize":
        # ndarray.std's own steps, with the deviations squared in place of
        # a second stacked copy
        mean = stacked.mean(axis=1, keepdims=True)
        np.square(np.subtract(stacked, mean, out=stacked), out=stacked)
        params = np.stack([mean[:, 0], np.sqrt(stacked.mean(axis=1))], axis=1)
    elif mode == "minmax":
        params = np.stack([stacked.min(axis=1), stacked.max(axis=1)], axis=1)
    else:
        raise ValueError(f"unknown scaler mode {mode!r}")
    return ChannelScaler(mode=mode, params=params)


def apply_scaler(x: np.ndarray, s: ChannelScaler) -> np.ndarray:
    """Scale a float64 [..., 36] array in place over its channel axis, with
    the formula's ufuncs in its order, and return it; a degenerate channel
    becomes 0.0."""
    if s.mode == "standardize":
        mean, sd = s.params.T
        safe = sd >= DEGENERATE_SPREAD
        np.divide(np.subtract(x, mean, out=x), np.where(safe, sd, 1.0), out=x)
    else:
        lo, hi = s.params.T
        spread = hi - lo
        safe = spread >= DEGENERATE_SPREAD
        np.multiply(np.subtract(x, lo, out=x), 2.0, out=x)
        np.subtract(np.divide(x, np.where(safe, spread, 1.0), out=x), 1.0, out=x)
    x[..., ~safe] = 0.0
    return x
