"""End-to-end pipelines shared by the CLI commands: preprocess, train,
evaluate, and attribute.  Every step is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imaging, metrics, saliency, signals, synthdata, trainer
from .config import PipelineConfig, parse_config_lines, train_config_of
from .errors import CheckpointMismatchError, DataError
from .nncore import Model, build_preset, load_checkpoint, save_checkpoint
from .synthdata import Manifest, RISK_CLASSES


@dataclass
class PreparedData:
    images: np.ndarray            # [N, H, W, 3]
    labels: np.ndarray            # [N] class indices
    encoded: list[imaging.EncodedImage]
    manifest: Manifest            # with split assigned
    train_idx: np.ndarray
    test_idx: np.ndarray
    scaler: signals.ChannelScaler


def assign_split(manifest: Manifest, config: PipelineConfig) -> Manifest:
    """Honor a split already recorded in the manifest; otherwise derive one
    deterministically from the config's seed and train fraction."""
    assigned = [e.split for e in manifest.entries if e.split != "unassigned"]
    if assigned:
        if len(assigned) != len(manifest.entries):
            raise DataError("manifest split is only partially assigned")
        return manifest
    return synthdata.split_dataset(manifest, config.train_fraction, seed=config.seed)


def load_test_split(directory, config: PipelineConfig,
                    ) -> tuple[list[signals.TrialRecording], Manifest, list[int]]:
    """Only the test split's trials, read after the whole manifest is split
    as `prepare` would split it, with that split's manifest and each
    trial's position in the whole manifest."""
    manifest = assign_split(synthdata.load_manifest(directory), config)
    positions = [i for i, e in enumerate(manifest.entries) if e.split == "test"]
    if not positions:
        raise DataError(f"no test-split trials in {directory}", path=str(directory))
    test = Manifest(entries=[manifest.entries[i] for i in positions])
    trials, test = synthdata.load_dataset(directory, test)
    return trials, test, positions


def prepare(trials, manifest: Manifest, config: PipelineConfig,
            scaler: signals.ChannelScaler | None = None) -> PreparedData:
    """filter -> pad -> scale (fitted on the training split) -> encode."""
    manifest = assign_split(manifest, config)
    bandpass = signals.design_bandpass(config.filter_order, config.filter_low_hz,
                                       config.filter_high_hz, signals.SAMPLE_RATE_HZ)
    processed = [signals.pad_or_truncate(signals.filter_trial(t, bandpass), config.target_frames)
                 for t in trials]
    train_idx = np.array([i for i, e in enumerate(manifest.entries) if e.split == "train"],
                         dtype=np.int64)
    test_idx = np.array([i for i, e in enumerate(manifest.entries) if e.split == "test"],
                        dtype=np.int64)
    if scaler is None:
        fit_on = [processed[i] for i in train_idx] if len(train_idx) else processed
        scaler = signals.fit_scaler(fit_on, config.scaler_mode)
    scaled = [signals.apply_scaler(t, scaler) for t in processed]
    encoded = [imaging.wrap_image(imaging.to_channel_matrix(t), config.image_width)
               for t in scaled]
    images = np.stack([e.pixels for e in encoded])
    labels = np.array([synthdata.zone_to_risk(e.zone).index for e in manifest.entries],
                      dtype=np.int64)
    return PreparedData(images=images, labels=labels, encoded=encoded, manifest=manifest,
                        train_idx=train_idx, test_idx=test_idx, scaler=scaler)


def build_model(config: PipelineConfig, input_shape: tuple) -> Model:
    model = build_preset(config.model_preset, classes=len(RISK_CLASSES),
                         conv_filters=config.conv_filters,
                         dense_units=config.dense_units,
                         dropout_rate=config.dropout_rate,
                         l2_lambda=config.l2_lambda)
    return model.build(input_shape, seed=config.seed, dtype=config.np_dtype)


@dataclass
class TrainResult:
    model: Model
    history: trainer.TrainHistory
    cm: metrics.ConfusionMatrix
    data: PreparedData


def run_training(trials, manifest: Manifest, config: PipelineConfig) -> TrainResult:
    data = prepare(trials, manifest, config)
    model = build_model(config, data.images.shape[1:])
    history = trainer.train(model, data.images[data.train_idx], data.labels[data.train_idx],
                            train_config_of(config))
    preds, _ = trainer.predict(model, data.images[data.test_idx])
    cm = metrics.confusion(preds, data.labels[data.test_idx], k=len(RISK_CLASSES),
                           class_names=RISK_CLASSES)
    return TrainResult(model=model, history=history, cm=cm, data=data)


def save_trained(path, result: TrainResult, config: PipelineConfig) -> None:
    save_checkpoint(path, result.model, config.to_lines(),
                    extra_tensors={"scaler_params": result.data.scaler.params})


def load_trained(path) -> tuple[Model, PipelineConfig, signals.ChannelScaler]:
    model, config_lines, extra = load_checkpoint(path)
    config = parse_config_lines(config_lines, source=f"{path}:config")
    params = extra.get("scaler_params")
    want = (signals.N_CHANNELS, 2)
    if params is None or params.shape != want:
        found = "missing" if params is None else f"of shape {params.shape}"
        raise CheckpointMismatchError(
            f"{path}: tensor extra.scaler_params is {found}, expected shape {want}")
    scaler = signals.ChannelScaler(mode=config.scaler_mode, params=params)
    return model, config, scaler


def check_geometry(model: Model, config: PipelineConfig) -> None:
    """The encoded image shape must match what the checkpointed model expects."""
    shape = imaging.image_shape(config.target_frames, config.image_width)
    if model.input_shape != shape:
        raise CheckpointMismatchError(
            f"checkpoint expects image shape {model.input_shape}, "
            f"configuration produces shape {shape}")


def evaluate_checkpoint(model: Model, config: PipelineConfig,
                        scaler: signals.ChannelScaler, trials,
                        manifest: Manifest) -> tuple[metrics.ConfusionMatrix, PreparedData]:
    """Evaluate on the manifest's test split (re-derived from the checkpoint
    config when the manifest carries no split)."""
    check_geometry(model, config)
    data = prepare(trials, manifest, config, scaler=scaler)
    preds, _ = trainer.predict(model, data.images[data.test_idx])
    cm = metrics.confusion(preds, data.labels[data.test_idx], k=len(RISK_CLASSES),
                           class_names=RISK_CLASSES)
    return cm, data


@dataclass
class SaliencyOutputs:
    mean_magnitude: np.ndarray
    per_image: list[saliency.SaliencyMap]
    attribution: saliency.SensorAttribution
    image_indices: list[int]


def saliency_for_class(model: Model, data: PreparedData, class_name: str,
                       directory=None) -> SaliencyOutputs:
    """Per-image saliency maps over the test images of one class, plus the
    mean map and its sensor attribution.  A class with no test image is a
    DataError naming the class and `directory`, the dataset it came from."""
    class_index = RISK_CLASSES.index(class_name)
    idx = [int(i) for i in data.test_idx if data.labels[i] == class_index]
    if not idx:
        where = "" if directory is None else f" in {directory}"
        raise DataError(f"no test-split images of class {class_name!r}{where}")
    maps = [saliency.class_score_gradient(model, data.encoded[i], class_index) for i in idx]
    mean_mag = saliency.mean_magnitude(maps)
    attr = saliency.sensor_attribution(mean_mag, data.encoded[idx[0]])
    return SaliencyOutputs(mean_magnitude=mean_mag, per_image=maps,
                           attribution=attr, image_indices=idx)


def write_manifest_csv(path, manifest: Manifest, comments: list[str] | None = None) -> None:
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        fh.write(",".join(synthdata.MANIFEST_HEADER) + "\n")
        for e in manifest.entries:
            fh.write(f"{e.trial_file},{e.subject_id},{e.zone},{e.trial_index},"
                     f"{e.frame_count},{e.split}\n")
