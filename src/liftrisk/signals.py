"""IMU preprocessing: Butterworth bandpass filtering, trial length
normalization, and per-channel amplitude scaling.

The bandpass is designed analytically (analog Butterworth prototype, lowpass
to bandpass transform, bilinear transform with frequency pre-warping) and
realized as a cascade of second-order sections for numerical stability.
Filtering is causal single-pass with zero initial state, so the same code
path works on streamed samples.
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


@dataclass
class Section:
    """Biquad coefficients, denominator normalized to a0 = 1."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def poles(self) -> tuple[complex, complex]:
        disc = cmath.sqrt(self.a1 * self.a1 - 4.0 * self.a2)
        return ((-self.a1 + disc) / 2.0, (-self.a1 - disc) / 2.0)


@dataclass
class BandpassFilter:
    order: int
    low_hz: float
    high_hz: float
    sample_rate_hz: float
    sections: list[Section]
    high_clamped: bool = False


def check_band(order: int, low_hz: float, high_hz: float, sample_rate_hz: float) -> None:
    """Raise ValueError unless design_bandpass can design this band."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if low_hz <= 0 or high_hz <= 0:
        raise ValueError("band edges must be positive")
    if low_hz >= high_hz:
        raise ValueError(f"low_hz must be < high_hz, got {low_hz} >= {high_hz}")
    if sample_rate_hz <= 2 * low_hz:
        raise ValueError(f"sample_rate_hz {sample_rate_hz} must exceed 2*low_hz")


def design_bandpass(order: int, low_hz: float, high_hz: float,
                    sample_rate_hz: float) -> BandpassFilter:
    """Design a digital Butterworth bandpass as cascaded biquads.

    Steps: place the analog lowpass prototype poles on the unit circle,
    map each through the lowpass-to-bandpass substitution
    s -> (s^2 + w_l*w_h) / (s * (w_h - w_l)) with the band edges pre-warped
    by tan(pi*f/fs), then map poles and zeros to the z-plane with the
    bilinear transform.  Each section carries one zero at z=+1 and one at
    z=-1; the overall gain is normalized to 1 at the warped band center
    and split evenly across sections.

    An upper edge at or above Nyquist is clamped to 0.99*Nyquist with a
    warning (recorded on the returned filter) rather than rejected.
    """
    check_band(order, low_hz, high_hz, sample_rate_hz)
    nyquist = sample_rate_hz / 2.0
    clamped = False
    if high_hz >= nyquist:
        clamped_hz = 0.99 * nyquist
        warnings.warn(
            f"bandpass upper edge {high_hz} Hz is at or above Nyquist "
            f"({nyquist} Hz); clamping to {clamped_hz} Hz",
            stacklevel=2,
        )
        high_hz = clamped_hz
        clamped = True

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

    sections = [Section(b0=1.0, b1=0.0, b2=-1.0, a1=a1, a2=a2)
                for a1, a2 in _denominator_pairs(digital_poles)]

    # Normalize gain at the warped band center.
    w_center = 2.0 * math.atan(math.sqrt(w0sq))
    f_center = w_center * sample_rate_hz / (2.0 * math.pi)
    raw_gain = abs(_response_at(sections, f_center, sample_rate_hz))
    per_section = (1.0 / raw_gain) ** (1.0 / len(sections))
    for s in sections:
        s.b0 *= per_section
        s.b1 *= per_section
        s.b2 *= per_section

    f = BandpassFilter(order=order, low_hz=low_hz, high_hz=high_hz,
                       sample_rate_hz=sample_rate_hz, sections=sections,
                       high_clamped=clamped)
    for s in f.sections:
        if any(abs(p) >= 1.0 for p in s.poles()):
            raise ValueError("designed filter is unstable (pole on or outside unit circle)")
    return f


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


def _response_at(sections: list[Section], freq_hz: float, sample_rate_hz: float) -> complex:
    z = cmath.exp(1j * 2.0 * math.pi * freq_hz / sample_rate_hz)
    zi = 1.0 / z
    h = complex(1.0, 0.0)
    for s in sections:
        h *= (s.b0 + s.b1 * zi + s.b2 * zi * zi) / (1.0 + s.a1 * zi + s.a2 * zi * zi)
    return h


def frequency_response(f: BandpassFilter, freq_hz: float) -> complex:
    """H(e^{j*2*pi*f/fs}) evaluated from the section coefficients."""
    return _response_at(f.sections, freq_hz, f.sample_rate_hz)


def filter_channel(x, f: BandpassFilter) -> np.ndarray:
    """Causal single-pass filtering, direct form II transposed per section."""
    y = np.asarray(x, dtype=np.float64)
    if y.size == 0:
        raise ValueError("input sequence must be non-empty")
    return _df2t_cascade(y[None, :], f)[0]


def _df2t_cascade(x: np.ndarray, f: BandpassFilter) -> np.ndarray:
    """DF2T evaluation of every section in cascade, rows filtered in parallel.

    The time recursion cannot vectorize, so the loop runs over frames with
    vector state across rows; identical arithmetic to the scalar recursion.
    """
    y = np.array(x, dtype=np.float64)
    n_rows, n_frames = y.shape
    for s in f.sections:
        b0, b1, b2, a1, a2 = s.b0, s.b1, s.b2, s.a1, s.a2
        s1 = np.zeros(n_rows)
        s2 = np.zeros(n_rows)
        for n in range(n_frames):
            xn = y[:, n].copy()
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            y[:, n] = yn
    return y


def filter_trial(t: TrialRecording, f: BandpassFilter) -> TrialRecording:
    """Apply the bandpass to every channel of a trial."""
    return TrialRecording(_df2t_cascade(t.channels, f))


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
    params: np.ndarray | None = None  # [36, 2]: (mean, sd) or (min, max)

    def __post_init__(self):
        if self.mode not in SCALER_MODES:
            raise ValueError(f"unknown scaler mode {self.mode!r}")

    @property
    def fitted(self) -> bool:
        return self.params is not None


def fit_scaler(training_trials: list[TrialRecording], mode: str = "standardize") -> ChannelScaler:
    if not training_trials:
        raise ValueError("cannot fit a scaler on an empty training set")
    stacked = np.concatenate([t.channels for t in training_trials], axis=1)  # [36, total]
    if mode == "standardize":
        params = np.stack([stacked.mean(axis=1), stacked.std(axis=1)], axis=1)
    elif mode == "minmax":
        params = np.stack([stacked.min(axis=1), stacked.max(axis=1)], axis=1)
    else:
        raise ValueError(f"unknown scaler mode {mode!r}")
    return ChannelScaler(mode=mode, params=params)


def apply_scaler(t: TrialRecording, s: ChannelScaler) -> TrialRecording:
    if not s.fitted:
        raise ValueError("scaler has not been fitted")
    x = t.channels
    if s.mode == "standardize":
        mean = s.params[:, 0:1]
        sd = s.params[:, 1:2]
        safe = sd >= DEGENERATE_SPREAD
        out = np.where(safe, (x - mean) / np.where(safe, sd, 1.0), 0.0)
    else:
        lo = s.params[:, 0:1]
        hi = s.params[:, 1:2]
        spread = hi - lo
        safe = spread >= DEGENERATE_SPREAD
        out = np.where(safe, 2.0 * (x - lo) / np.where(safe, spread, 1.0) - 1.0, 0.0)
    return TrialRecording(out)
