"""Trial-to-image encoding for the CNN and its exact inverse.

A preprocessed trial becomes a [12 sensors][frames][3 axes] channel matrix.
Each axis plane is flattened time-major (flat index k = frame*12 + sensor,
so one instant's 12 sensor values stay contiguous) and line-wrapped into
rows of a fixed width; the three axes become the image's color channels.
The leftover cells at the bottom are zero padding.  The index map is exact,
which lets saliency values route back to (sensor, frame) coordinates.
A frame-major [frames, 36] trial, or each trial of a [frames, N, 36]
stack, is already in that cell order: the encoding is one strided copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import N_AXES, N_SENSORS


@dataclass
class EncodedImage:
    """Wrapped image plus the bookkeeping needed to invert the wrap."""

    pixels: np.ndarray  # [H, W, 3], or [..., H, W, 3] for a stack of images
    frames: int
    width: int

    @property
    def height(self) -> int:
        return self.pixels.shape[-3]

    @property
    def pad_start(self) -> int:
        """First padding cell in flat time-major order."""
        return N_SENSORS * self.frames

    def to_rowcol(self, sensor: int, frame: int) -> tuple[int, int]:
        """The pixel of a sensor at a frame; the reference tests check the wrap against."""
        if not 0 <= sensor < N_SENSORS or not 0 <= frame < self.frames:
            raise ValueError(f"(sensor={sensor}, frame={frame}) outside the non-padded region")
        k = frame * N_SENSORS + sensor
        return k // self.width, k % self.width

    def to_sensor_frame(self, row: int, col: int) -> tuple[int, int] | None:
        """Inverse map; None for padding cells.  A reference for tests, as to_rowcol is."""
        k = row * self.width + col
        if k >= self.pad_start:
            return None
        return k % N_SENSORS, k // N_SENSORS


def to_channel_matrix(x: np.ndarray) -> np.ndarray:
    """A view of a frame-major [frames, ..., 36] array as [..., 12, frames, 3]
    channel matrices: the 36 channels grouped as 12 sensors x 3 axes (axis k
    of sensor s is channel 3s+k)."""
    return np.moveaxis(x.reshape(*x.shape[:-1], N_SENSORS, N_AXES), 0, -2)


def image_shape(frames: int, width: int) -> tuple[int, int, int]:
    """(ceil(12*frames/width), width, 3): the shape wrap_image produces."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if width < N_SENSORS:
        raise ValueError(f"width must be >= {N_SENSORS}, got {width}")
    return -(-N_SENSORS * frames // width), width, N_AXES


def wrap_image(values: np.ndarray, width: int) -> EncodedImage:
    """Line-wrap the time-major flattening of each axis plane of a
    [..., 12, frames, 3] channel matrix into rows of ``width``, copying each
    value once; trailing cells are 0."""
    *lead, _, frames, _ = values.shape
    n_cells = N_SENSORS * frames
    height, _, _ = image_shape(frames, width)
    pixels = np.zeros((*lead, height * width, N_AXES), dtype=np.float64)
    # a view, as splitting an axis never copies: cells[..., frame, sensor,
    # axis] is flat cell k = frame*12 + sensor
    cells = pixels[..., :n_cells, :].reshape(*lead, frames, N_SENSORS, N_AXES)
    cells[...] = np.swapaxes(values, -3, -2)
    return EncodedImage(pixels.reshape(*lead, height, width, N_AXES), frames, width)


def unwrap_attribution(a: np.ndarray, img: EncodedImage) -> np.ndarray:
    """Route per-cell values back to [12, frames]; padding cells are dropped."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (img.height, img.width):
        raise ValueError(f"expected shape {(img.height, img.width)}, got {a.shape}")
    flat = a.reshape(-1)[: img.pad_start]
    # flat index k = frame*12 + sensor
    return flat.reshape(img.frames, N_SENSORS).T


def unwrap_image(img: EncodedImage) -> np.ndarray:
    """Full inverse of wrap_image on the non-padded region: [12, frames, 3].
    Kept as the reference that tests check the batched wrap_image against."""
    planes = [unwrap_attribution(img.pixels[:, :, k], img) for k in range(N_AXES)]
    return np.stack(planes, axis=2)
