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
from .nncore import AvgPool, MaxPool, Model, build_preset, pool_shape
from .signals import SAMPLE_RATE_HZ, SCALER_MODES, check_band
from .synthdata import RISK_CLASSES


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
        """Hold every value to the bounds of the functions that use it,
        before any data is read.  An unbuilt preset holds no arrays."""
        if self.scaler_mode not in SCALER_MODES:
            raise ConfigError(f"scaler_mode must be one of {SCALER_MODES}, got {self.scaler_mode!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.min_delta < np.inf:
            raise ConfigError(f"min_delta must be finite and >= 0, got {self.min_delta}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        band = (self.filter_order, self.filter_low_hz, self.filter_high_hz)
        try:
            check_band(*band, SAMPLE_RATE_HZ)
        except ValueError as exc:
            raise ConfigError(f"filter_order, filter_low_hz, filter_high_hz = {band}: {exc}") from exc
        try:
            layers = self.preset().layers
        except ValueError as exc:
            model = (self.model_preset, self.conv_filters, self.dense_units, self.dropout_rate,
                     self.l2_lambda)
            raise ConfigError(f"model_preset, conv_filters, dense_units, dropout_rate, l2_lambda "
                              f"= {model}: {exc}") from exc
        size = f"target_frames = {self.target_frames}, image_width = {self.image_width}"
        try:
            shape = pooled = image_shape(self.target_frames, self.image_width)
        except ValueError as exc:
            raise ConfigError(f"{size}: {exc}") from exc
        try:
            for layer in layers:
                if isinstance(layer, (AvgPool, MaxPool)):
                    pooled = pool_shape(pooled)
        except ValueError as exc:
            raise ConfigError(f"{size} give image shape {shape}, too small for the pools "
                              f"of {self.model_preset}: {exc}") from exc

    def preset(self) -> Model:
        """The unbuilt model; its layers hold the bounds of their sizes, rate and L2 weight."""
        return build_preset(self.model_preset, len(RISK_CLASSES), self.conv_filters,
                            self.dense_units, self.dropout_rate, self.l2_lambda)

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


def parse_config_lines(lines, source: str = "<config>") -> PipelineConfig:
    # each key parses as the type of its default, but for the one tuple, of ints
    parsers = {f.name: type(f.default) for f in fields(PipelineConfig)}
    parsers["conv_filters"] = lambda v: tuple(int(x) for x in v.split(","))
    values = parse_kv_lines(lines, parsers, source)
    try:
        return PipelineConfig(**values)
    except (ConfigError, ValueError, TypeError) as exc:
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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
