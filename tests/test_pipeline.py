"""pipeline.prepare keeps one copy of the pixels, each row the encoding of
its own trial, with golden bytes and a memory bound fixed by its shapes;
no command holds a raw trial past prepare."""

import dataclasses
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from liftrisk import cli, imaging, pipeline, saliency, signals, synthdata, trainer
from liftrisk.config import desk_config


def test_encoded_pixels_are_rows_of_images(tiny_dataset_dir, tiny_config):
    trials, manifest = synthdata.load_dataset(tiny_dataset_dir)
    data = pipeline.prepare(trials, manifest, tiny_config)
    bandpass = signals.design_bandpass(tiny_config.filter_order, tiny_config.filter_low_hz,
                                       tiny_config.filter_high_hz, signals.SAMPLE_RATE_HZ)
    assert len(data.encoded) == len(data.images) == len(trials)
    for i, (trial, e) in enumerate(zip(trials, data.encoded)):
        assert np.shares_memory(data.images, e.pixels)
        assert np.shares_memory(data.images[i], e.pixels)
        # the trial filtered channel by channel and encoded on its own
        filtered = signals.TrialRecording([signals.filter_channel(c, bandpass)
                                           for c in trial.channels])
        padded = signals.pad_or_truncate(filtered, tiny_config.target_frames)
        scaled = signals.apply_scaler(padded.channels.T.copy(), data.scaler)
        want = imaging.wrap_image(imaging.to_channel_matrix(scaled), tiny_config.image_width)
        assert data.images[i].tobytes() == want.pixels.tobytes()
        assert (e.pixels.shape, e.frames, e.width) == (want.pixels.shape, want.frames, want.width)


# the call each command makes after prepare, by which no raw trial may be alive
AFTER_PREPARE = {"train": (trainer, "train"), "tune": (trainer, "train"),
                 "eval": (trainer, "predict"), "saliency": (saliency, "class_score_gradient")}


@pytest.mark.parametrize("command", ["train", "tune", "eval", "saliency"])
def test_raw_trials_freed_before_training(tiny_dataset_dir, tiny_config_file, tmp_path,
                                          monkeypatch, command):
    ckpt = tmp_path / "model.ckpt"
    if command in ("eval", "saliency"):
        assert cli.main(["train", "--data", str(tiny_dataset_dir),
                         "--config", str(tiny_config_file), "--out", str(ckpt)]) == 0
    refs, alive = [], []
    load_dataset = synthdata.load_dataset
    module, name = AFTER_PREPARE[command]
    after_prepare = getattr(module, name)

    def recording_load_dataset(*args):
        trials, manifest = load_dataset(*args)
        refs.extend(weakref.ref(t) for t in trials)
        return trials, manifest

    def checking(*args):
        alive.append(sum(r() is not None for r in refs))
        return after_prepare(*args)

    monkeypatch.setattr(synthdata, "load_dataset", recording_load_dataset)
    monkeypatch.setattr(module, name, checking)
    grid = tmp_path / "grid.txt"
    grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n")
    data, config = ["--data", str(tiny_dataset_dir)], ["--config", str(tiny_config_file)]
    args = {"train": [*data, *config, "--out", str(tmp_path / "out.ckpt")],
            "tune": [*data, "--grid", str(grid), *config, "--out", str(tmp_path / "out.csv")],
            "eval": ["--model", str(ckpt), *data],
            "saliency": ["--model", str(ckpt), *data, "--class", "high",
                         "--out", str(tmp_path / "sal")]}
    assert cli.main([command, *args[command]]) == 0
    assert refs and alive and not any(alive)
    if command != "saliency":  # saliency takes a gradient per test image of its class
        assert len(alive) == 1


# sha256 of the tiny fixture's prepared images and fitted scaler parameters,
# recorded before prepare scaled and encoded its whole array at once
GOLDEN = {
    "standardize": ("eae06451f7a16276df49e5111e4b36f9191de036c3a0ae08353e7a46ac5283b9",
                    "3f68b72d7389ec2eb4774271458207cb5423e31093e4559c085ffc0e3246ac6b"),
    "minmax": ("b5031b4771d3df5605061455e7f738e979cab91fba6661159af1fe6014372ce2",
               "69eafc9b27d0341a0f376c8a78377da2ee3b48d4a82312db91bb3b54b95a9c26"),
}


@pytest.mark.parametrize("mode", signals.SCALER_MODES)
def test_prepared_bytes_are_golden(tiny_dataset_dir, tiny_config, mode):
    config = dataclasses.replace(tiny_config, scaler_mode=mode)
    data = pipeline.prepare(*synthdata.load_dataset(tiny_dataset_dir), config)
    assert (hashlib.sha256(data.images.tobytes()).hexdigest(),
            hashlib.sha256(data.scaler.params.tobytes()).hexdigest()) == GOLDEN[mode]


@pytest.mark.parametrize("mode", signals.SCALER_MODES)
def test_prepare_peak_memory_bounded_by_shapes(mode):
    """A desk prepare holds the filtered array, then beside it either the
    C-ordered copy of the training rows that fit_scaler reduces or the
    images; nothing else of their size."""
    config = dataclasses.replace(desk_config(seed=5), scaler_mode=mode)
    trials, manifest = synthdata.generate_dataset(synthdata.desk_profile(seed=5))
    n, frames = len(trials), config.target_frames
    tracemalloc.start()
    try:
        data = pipeline.prepare(trials, manifest, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    value_bytes = frames * signals.N_CHANNELS * 8  # one trial's float64 values
    train_copy = len(data.train_idx) * value_bytes
    bound = 1.05 * (n * value_bytes + max(train_copy, data.images.nbytes))
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB above the {bound / 1e6:.1f} MB bound"
