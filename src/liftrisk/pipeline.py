"""End-to-end pipelines shared by the CLI commands: preprocess, train,
evaluate, and attribute.  Every step is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imaging, metrics, saliency, signals, synthdata, trainer
from .config import PipelineConfig, parse_config_lines
from .errors import CheckpointMismatchError, DataError
from .nncore import Model, load_checkpoint, save_checkpoint
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


def _split_manifest(directory, config: PipelineConfig, splits) -> Manifest:
    """The directory's whole manifest, split as `prepare` splits it; each of
    `splits` that holds no trial, or a train split of one trial for a preset
    with batch normalization, is a DataError, raised before any trial file
    is read."""
    manifest = assign_split(synthdata.load_manifest(directory), config)
    for split in splits:
        count = sum(e.split == split for e in manifest.entries)
        if not count:
            raise DataError(f"no {split}-split trials in {directory}", path=str(directory))
        if split == "train" and count == 1 and config.batch_norm:
            raise DataError(f"one train-split trial in {directory}: the batch normalization of "
                            f"{config.model_preset} trains on two or more", path=str(directory))
    return manifest


def load_split(directory, config: PipelineConfig,
               ) -> tuple[list[signals.TrialRecording], Manifest]:
    """Every trial of the directory's manifest, which must hold train-split
    and test-split trials, with the split manifest."""
    return synthdata.load_dataset(directory, _split_manifest(directory, config, ("train", "test")))


def prepare_test_split(directory, config: PipelineConfig, scaler: signals.ChannelScaler,
                       class_name: str | None = None) -> tuple[PreparedData, list[int]]:
    """`prepare`, with a fitted scaler, of only the test split's trials, of
    `class_name` alone when it is given, read after the whole manifest is
    split as `prepare` would split it; with each trial's position in the
    whole manifest.  A class with no test trial is a DataError naming the
    class and `directory`, raised before any trial file is read.  No raw
    trial outlives the call."""
    manifest = _split_manifest(directory, config, ("test",))
    positions = [i for i, e in enumerate(manifest.entries) if e.split == "test"]
    if class_name is not None:
        positions = [i for i in positions
                     if synthdata.zone_to_risk(manifest.entries[i].zone) == class_name]
        if not positions:
            raise DataError(f"no test-split images of class {class_name!r} in {directory}",
                            path=str(directory))
    test = Manifest(entries=[manifest.entries[i] for i in positions])
    return prepare(*synthdata.load_dataset(directory, test), config, scaler=scaler), positions


def prepare(trials, manifest: Manifest, config: PipelineConfig,
            scaler: signals.ChannelScaler | None = None) -> PreparedData:
    """filter and pad -> scale (fitted on the training split) -> encode,
    each one pass over the frame-major [target_frames, N, 36] bandpass."""
    manifest = assign_split(manifest, config)
    bandpass = signals.design_bandpass(config.filter_order, config.filter_low_hz,
                                       config.filter_high_hz, signals.SAMPLE_RATE_HZ)
    filtered = signals.filter_trial(trials, bandpass, config.target_frames)
    splits = np.array([e.split for e in manifest.entries])
    train_idx, test_idx = (np.flatnonzero(splits == s) for s in ("train", "test"))
    if scaler is None:
        scaler = signals.fit_scaler(filtered, config.scaler_mode,
                                    rows=train_idx if len(train_idx) else None)
    signals.apply_scaler(filtered, scaler)
    # one copy of the pixels: each trial's image is a view of its row
    stack = imaging.wrap_image(imaging.to_channel_matrix(filtered), config.image_width)
    images = stack.pixels
    encoded = [imaging.EncodedImage(row, stack.frames, stack.width) for row in images]
    labels = np.array([RISK_CLASSES.index(synthdata.zone_to_risk(e.zone))
                       for e in manifest.entries], dtype=np.int64)
    return PreparedData(images=images, labels=labels, encoded=encoded, manifest=manifest,
                        train_idx=train_idx, test_idx=test_idx, scaler=scaler)


def build_model(config: PipelineConfig, input_shape: tuple) -> Model:
    return config.preset().build(input_shape, seed=config.seed, dtype=config.np_dtype)


# fit and score index the split inside the trainer calls, which convert it
# to the model dtype: no caller holds the float64 copy of the rows meanwhile
def fit(config: PipelineConfig, images: np.ndarray, labels: np.ndarray,
        rows: np.ndarray) -> tuple[Model, trainer.TrainHistory]:
    """The config's model, trained on `rows` of the images."""
    model = build_model(config, images.shape[1:])
    return model, trainer.train(model, images[rows], labels[rows], config)


def score(model: Model, images: np.ndarray, labels: np.ndarray,
          rows: np.ndarray) -> metrics.ConfusionMatrix:
    """The confusion matrix of the model's predictions for `rows` of the images."""
    preds, _ = trainer.predict(model, images[rows])
    return metrics.confusion(preds, labels[rows], k=len(RISK_CLASSES))


# only perfbench's paper_train calls this, handing the result to
# trainer.train; it goes in the next change to perfbench
def train_config_of(config: PipelineConfig) -> PipelineConfig:
    return config


@dataclass
class TrainResult:
    model: Model
    history: trainer.TrainHistory
    cm: metrics.ConfusionMatrix
    data: PreparedData


def run_training(directory, config: PipelineConfig) -> TrainResult:
    """Train and score the config's model on the dataset in `directory`.
    No local holds the raw trials, so they are freed once prepare returns."""
    data = prepare(*load_split(directory, config), config)
    model, history = fit(config, data.images, data.labels, data.train_idx)
    cm = score(model, data.images, data.labels, data.test_idx)
    return TrainResult(model=model, history=history, cm=cm, data=data)


def save_trained(path, result: TrainResult, config: PipelineConfig) -> None:
    save_checkpoint(path, result.model, config.to_lines(),
                    extra_tensors={"scaler_params": result.data.scaler.params})


def load_trained(path) -> tuple[Model, PipelineConfig, signals.ChannelScaler]:
    """The model the checkpoint's config builds, with the checkpoint's tensors."""
    config = None

    def build(lines: list[str]) -> Model:
        nonlocal config
        config = parse_config_lines(lines, source=f"{path}:config")
        return build_model(config, imaging.image_shape(config.target_frames, config.image_width))

    model, _, extra = load_checkpoint(path, build)
    params = extra.get("scaler_params")
    want = (signals.N_CHANNELS, 2)
    if params is None or params.shape != want:
        found = "missing" if params is None else f"of shape {params.shape}"
        raise CheckpointMismatchError(
            f"{path}: tensor extra.scaler_params is {found}, expected shape {want}")
    scaler = signals.ChannelScaler(mode=config.scaler_mode, params=params)
    return model, config, scaler


def evaluate_checkpoint(model: Model, config: PipelineConfig, scaler: signals.ChannelScaler,
                        directory) -> metrics.ConfusionMatrix:
    """The model scored on the test split of the dataset in `directory`.  The
    config must encode images of the model's input shape, as the checkpoint's
    own config and every override that `liftrisk eval` accepts do."""
    data, _ = prepare_test_split(directory, config, scaler)
    return score(model, data.images, data.labels, data.test_idx)


@dataclass
class SaliencyOutputs:
    mean_magnitude: np.ndarray
    per_image: list[saliency.SaliencyMap]
    attribution: saliency.SensorAttribution
    image_indices: list[int]


def saliency_for_class(model: Model, data: PreparedData, class_name: str) -> SaliencyOutputs:
    """Per-image saliency maps over the test images of one class, plus the
    mean map and its sensor attribution.  A class with no test image is a
    DataError naming the class."""
    class_index = RISK_CLASSES.index(class_name)
    idx = [int(i) for i in data.test_idx if data.labels[i] == class_index]
    if not idx:
        raise DataError(f"no test-split images of class {class_name!r}")
    maps = [saliency.class_score_gradient(model, data.encoded[i], class_index) for i in idx]
    mean_mag = saliency.mean_magnitude(maps)
    attr = saliency.sensor_attribution(mean_mag, data.encoded[idx[0]])
    return SaliencyOutputs(mean_magnitude=mean_mag, per_image=maps,
                           attribution=attr, image_indices=idx)

