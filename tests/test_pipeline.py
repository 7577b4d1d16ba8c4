"""pipeline.prepare keeps one copy of the pixels, each row the encoding of
its own trial, and training holds no raw trial."""

import weakref

import numpy as np
import pytest

from liftrisk import cli, imaging, pipeline, signals, synthdata, trainer


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
        scaled = signals.apply_scaler(
            signals.pad_or_truncate(filtered, tiny_config.target_frames), data.scaler)
        want = imaging.wrap_image(imaging.to_channel_matrix(scaled), tiny_config.image_width)
        assert data.images[i].tobytes() == want.pixels.tobytes()
        assert (e.pixels.shape, e.frames, e.width) == (want.pixels.shape, want.frames, want.width)


@pytest.mark.parametrize("command", ["train", "tune"])
def test_raw_trials_freed_before_training(tiny_dataset_dir, tiny_config_file, tmp_path,
                                          monkeypatch, command):
    refs, alive = [], []
    load_dataset, train = synthdata.load_dataset, trainer.train

    def recording_load_dataset(*args):
        trials, manifest = load_dataset(*args)
        refs.extend(weakref.ref(t) for t in trials)
        return trials, manifest

    def checking_train(*args):
        alive.append(sum(r() is not None for r in refs))
        return train(*args)

    monkeypatch.setattr(synthdata, "load_dataset", recording_load_dataset)
    monkeypatch.setattr(trainer, "train", checking_train)
    grid = tmp_path / "grid.txt"
    grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n")
    extra = ["--grid", str(grid)] if command == "tune" else []
    assert cli.main([command, "--data", str(tiny_dataset_dir), "--config", str(tiny_config_file),
                     "--out", str(tmp_path / "out.csv"), *extra]) == 0
    assert refs and alive == [0]
