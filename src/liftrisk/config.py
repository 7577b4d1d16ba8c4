"""Pipeline configuration: one flat `key = value` document holding every
tunable, parseable without any external format dependency.

Lines are `key = value`, `#` starts a comment, blank lines are ignored.
Unknown keys are rejected by name so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .imaging import image_shape
from .nncore import PRESET_NAMES, AvgPool, MaxPool, build_preset, pool_shape
from .signals import SAMPLE_RATE_HZ, SCALER_MODES, check_band
from .trainer import TrainConfig


def _parse_int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(x.strip()) for x in v.split(","))


@dataclass
class PipelineConfig:
    filter_order: int = 2
    filter_low_hz: float = 2.0
    filter_high_hz: float = 12.0
    target_frames: int = 750
    scaler_mode: str = "standardize"
    image_width: int = 95
    model_preset: str = "vgg_b_avg"
    conv_filters: tuple[int, ...] = (32, 64, 128)
    dense_units: int = 1024
    l2_lambda: float = 1e-5
    learning_rate: float = 1e-3
    dropout_rate: float = 0.25
    batch_size: int = 32
    patience: int = 10
    min_delta: float = 0.0
    max_epochs: int = 500
    train_fraction: float = 0.75
    seed: int = 42
    dtype: str = "float64"

    def __post_init__(self):
        if self.scaler_mode not in SCALER_MODES:
            raise ConfigError(f"scaler_mode must be one of {SCALER_MODES}, got {self.scaler_mode!r}")
        if self.model_preset not in PRESET_NAMES:
            raise ConfigError(f"model_preset must be one of {PRESET_NAMES}, got {self.model_preset!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if len(self.conv_filters) != 3:
            raise ConfigError(f"conv_filters needs exactly 3 values, got {self.conv_filters}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        try:
            train_config_of(self)  # TrainConfig checks the training-loop bounds
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._check_geometry()

    def _check_geometry(self) -> None:
        """Hold the bandpass, the image wrap and the preset's pools to the
        bounds of the functions that use them, before any data is read.  An
        unbuilt preset holds no arrays."""
        band = (self.filter_order, self.filter_low_hz, self.filter_high_hz)
        try:
            check_band(*band, SAMPLE_RATE_HZ)
        except ValueError as exc:
            raise ConfigError(f"filter_order, filter_low_hz, filter_high_hz = {band}: {exc}") from exc
        size = f"target_frames = {self.target_frames}, image_width = {self.image_width}"
        try:
            shape = pooled = image_shape(self.target_frames, self.image_width)
        except ValueError as exc:
            raise ConfigError(f"{size}: {exc}") from exc
        try:
            for layer in build_preset(self.model_preset).layers:
                if isinstance(layer, (AvgPool, MaxPool)):
                    pooled = pool_shape(pooled)
        except ValueError as exc:
            raise ConfigError(f"{size} give image shape {shape}, too small for the pools "
                              f"of {self.model_preset}: {exc}") from exc

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_lines(self) -> list[str]:
        """Canonical serialization; parsing these lines reproduces the config."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            out.append(f"{f.name} = {v}")
        return out


def train_config_of(config: PipelineConfig) -> TrainConfig:
    return TrainConfig(learning_rate=config.learning_rate,
                       batch_size=config.batch_size,
                       patience=config.patience,
                       min_delta=config.min_delta,
                       max_epochs=config.max_epochs,
                       seed=config.seed)


def parse_config_lines(lines, source: str = "<config>") -> PipelineConfig:
    # each key parses as the type of its default; the one tuple is of ints
    parsers = {f.name: _parse_int_tuple if isinstance(f.default, tuple) else type(f.default)
               for f in fields(PipelineConfig)}
    values = parse_kv_lines(lines, parsers, source)
    try:
        return PipelineConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_kv_lines(lines, parsers: dict, source: str) -> dict:
    """Shared `key = value` reader; rejects unknown keys by name."""
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in parsers:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_lines(text.splitlines(), source=str(path))


def desk_config(seed: int = 42) -> PipelineConfig:
    """Reduced profile: 250-frame trials, width-55 images, small model.

    The epoch cap is lowered too; models that plateau stop by early stopping
    long before it, and models that only grind (the points of comparison)
    should not stretch a fast profile to the full safety cap.
    """
    return PipelineConfig(target_frames=250, image_width=55,
                          conv_filters=(8, 16, 32), dense_units=128,
                          max_epochs=150, dtype="float32", seed=seed)
