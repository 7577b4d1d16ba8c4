"""Trial-to-image encoding for the CNN and its exact inverse.

A preprocessed trial becomes a [12 sensors][frames][3 axes] channel matrix.
Each axis plane is flattened time-major (flat index k = frame*12 + sensor,
so one instant's 12 sensor values stay contiguous) and line-wrapped into
rows of a fixed width; the three axes become the image's color channels.
The leftover cells at the bottom are zero padding.  The index map is exact,
which lets saliency values route back to (sensor, frame) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import N_AXES, N_CHANNELS, N_SENSORS, SENSOR_NAMES, TrialRecording

DEFAULT_WIDTH = 95


@dataclass
class ChannelMatrix:
    values: np.ndarray  # [12, frames, 3]
    sensor_names: tuple[str, ...] = SENSOR_NAMES

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[0] != N_SENSORS or self.values.shape[2] != N_AXES:
            raise ValueError(f"expected [12, frames, 3], got {self.values.shape}")

    @property
    def frames(self) -> int:
        return self.values.shape[1]


@dataclass
class EncodedImage:
    """Wrapped image plus the bookkeeping needed to invert the wrap."""

    pixels: np.ndarray  # [H, W, 3]
    frames: int
    width: int

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def pad_start(self) -> int:
        """First padding cell in flat time-major order."""
        return N_SENSORS * self.frames

    def to_rowcol(self, sensor: int, frame: int) -> tuple[int, int]:
        if not 0 <= sensor < N_SENSORS or not 0 <= frame < self.frames:
            raise ValueError(f"(sensor={sensor}, frame={frame}) outside the non-padded region")
        k = frame * N_SENSORS + sensor
        return k // self.width, k % self.width

    def to_sensor_frame(self, row: int, col: int) -> tuple[int, int] | None:
        """Inverse map; None for padding cells."""
        k = row * self.width + col
        if k >= self.pad_start:
            return None
        return k % N_SENSORS, k // N_SENSORS


def to_channel_matrix(t: TrialRecording) -> ChannelMatrix:
    """Group the 36 channels as 12 sensors x 3 axes (axis k of sensor s is
    channel 3s+k)."""
    if t.channels.shape[0] != N_CHANNELS:
        raise ValueError(f"expected {N_CHANNELS} channels, got {t.channels.shape[0]}")
    # [36, frames] -> [12, 3, frames] -> [12, frames, 3]
    values = t.channels.reshape(N_SENSORS, N_AXES, t.n_frames).transpose(0, 2, 1)
    return ChannelMatrix(values=values)


def flatten_channel_matrix(m: ChannelMatrix) -> np.ndarray:
    """Inverse of to_channel_matrix: back to [36, frames]."""
    return m.values.transpose(0, 2, 1).reshape(N_CHANNELS, m.frames)


def image_shape(frames: int, width: int) -> tuple[int, int, int]:
    """(ceil(12*frames/width), width, 3): the shape wrap_image produces."""
    return -(-N_SENSORS * frames // width), width, N_AXES


def wrap_image(m: ChannelMatrix, width: int = DEFAULT_WIDTH) -> EncodedImage:
    """Line-wrap the time-major flattening of each axis plane into rows of
    ``width``; trailing cells are 0.
    """
    if width < N_SENSORS:
        raise ValueError(f"width must be >= {N_SENSORS}")
    frames = m.frames
    n_cells = N_SENSORS * frames
    height, _, _ = image_shape(frames, width)
    # flat[k, axis] with k = frame*12 + sensor
    flat = m.values.transpose(1, 0, 2).reshape(n_cells, N_AXES)
    pixels = np.zeros((height * width, N_AXES), dtype=np.float64)
    pixels[:n_cells] = flat
    return EncodedImage(pixels=pixels.reshape(height, width, N_AXES), frames=frames, width=width)


def unwrap_attribution(a: np.ndarray, img: EncodedImage) -> np.ndarray:
    """Route per-cell values back to [12, frames]; padding cells are dropped."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (img.height, img.width):
        raise ValueError(f"expected shape {(img.height, img.width)}, got {a.shape}")
    flat = a.reshape(-1)[: img.pad_start]
    # flat index k = frame*12 + sensor
    return flat.reshape(img.frames, N_SENSORS).T


def unwrap_image(img: EncodedImage) -> ChannelMatrix:
    """Full inverse of wrap_image on the non-padded region."""
    planes = [unwrap_attribution(img.pixels[:, :, k], img) for k in range(N_AXES)]
    return ChannelMatrix(values=np.stack(planes, axis=2))


def export_ppm(img: EncodedImage, path) -> None:
    """Write the image as binary PPM (P6), one byte per channel.

    Values map affinely from the image's global min/max to 0..255; a
    zero-range image maps to the 128 midpoint.
    """
    px = img.pixels
    lo = float(px.min())
    hi = float(px.max())
    if hi - lo < 1e-300:
        bytes_img = np.full(px.shape, 128, dtype=np.uint8)
    else:
        scaled = (px - lo) / (hi - lo) * 255.0
        bytes_img = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(bytes_img.tobytes())
