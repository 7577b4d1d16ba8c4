"""pipeline.prepare keeps one copy of the pixels, each row the encoding of
its own trial."""

import numpy as np

from liftrisk import imaging, pipeline, signals, synthdata


def test_encoded_pixels_are_rows_of_images(tiny_dataset_dir, tiny_config):
    trials, manifest = synthdata.load_dataset(tiny_dataset_dir)
    data = pipeline.prepare(trials, manifest, tiny_config)
    bandpass = signals.design_bandpass(tiny_config.filter_order, tiny_config.filter_low_hz,
                                       tiny_config.filter_high_hz, signals.SAMPLE_RATE_HZ)
    assert len(data.encoded) == len(data.images) == len(trials)
    for i, (trial, e) in enumerate(zip(trials, data.encoded)):
        assert np.shares_memory(data.images, e.pixels)
        assert np.shares_memory(data.images[i], e.pixels)
        # the trial encoded on its own, as prepare encodes it
        scaled = signals.apply_scaler(
            signals.pad_or_truncate(signals.filter_trial(trial, bandpass),
                                    tiny_config.target_frames), data.scaler)
        want = imaging.wrap_image(imaging.to_channel_matrix(scaled), tiny_config.image_width)
        assert data.images[i].tobytes() == want.pixels.tobytes()
        assert (e.pixels.shape, e.frames, e.width) == (want.pixels.shape, want.frames, want.width)
