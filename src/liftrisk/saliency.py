"""Gradient-based input attribution and sensor-level importance ranking.

The attribution weight of a pixel is the derivative of the chosen class's
pre-softmax score with respect to that pixel, evaluated at the image itself;
for a linear model this recovers the class's weight row exactly.  Channel
aggregation takes the max absolute value across the 3 axis channels, and the
exact wrap inverse routes cell magnitudes back to (sensor, frame) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import lines_text, write_file
from .imaging import EncodedImage, unwrap_attribution
from .nncore import Model
from .signals import N_SENSORS, SENSOR_NAMES


@dataclass
class SaliencyMap:
    w: np.ndarray          # [H, W, 3] d(score)/d(pixel)
    magnitude: np.ndarray  # [H, W] max-abs over channels


@dataclass
class SensorAttribution:
    per_sensor: np.ndarray  # [12] summed magnitude over non-padded cells
    ranking: list[int]      # sensor indices, descending total


def class_score_gradient(model: Model, img: EncodedImage, class_index: int) -> SaliencyMap:
    """Exact reverse-mode gradient of the class logit at the given image,
    inference mode (dropout off, batch norm on running statistics)."""
    grad = model.logit_input_gradient(img.pixels[None], class_index)[0]
    grad = np.asarray(grad, dtype=np.float64)
    return SaliencyMap(w=grad, magnitude=np.abs(grad).max(axis=2))


def mean_magnitude(maps: list[SaliencyMap]) -> np.ndarray:
    if not maps:
        raise ValueError("no saliency maps to average")
    return np.mean([m.magnitude for m in maps], axis=0)


def sensor_attribution(magnitude: np.ndarray, img: EncodedImage) -> SensorAttribution:
    """Sum attribution magnitude per sensor; padding cells contribute nothing."""
    per_sensor = unwrap_attribution(magnitude, img).sum(axis=1)
    ranking = np.argsort(-per_sensor, kind="stable")
    return SensorAttribution(per_sensor=per_sensor, ranking=[int(i) for i in ranking])


def export_saliency(magnitude: np.ndarray, path) -> None:
    """Write a magnitude map as binary PGM (P5), min->0 max->255; a constant
    map uses the 128 midpoint."""
    mag = np.asarray(magnitude, dtype=np.float64)
    lo = float(mag.min())
    hi = float(mag.max())
    if hi - lo < 1e-300:
        data = np.full(mag.shape, 128, dtype=np.uint8)
    else:
        data = np.clip(np.rint((mag - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    h, w = mag.shape
    write_file(path, f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())


def write_attribution_csv(path, attr: SensorAttribution, comments=()) -> None:
    """Sensor name, total attribution and rank (1 = most important)."""
    rank_of = {s: r + 1 for r, s in enumerate(attr.ranking)}
    rows = [f"{SENSOR_NAMES[s]},{float(attr.per_sensor[s])!r},{rank_of[s]}" for s in range(N_SENSORS)]
    write_file(path, lines_text(["sensor,total,rank", *rows], comments))
