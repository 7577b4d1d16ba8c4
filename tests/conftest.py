import pytest

from liftrisk import synthdata
from liftrisk.config import PipelineConfig


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    """36 short trials (3 subjects x 12 zones x 1), saved to disk once."""
    out = tmp_path_factory.mktemp("tinydata")
    profile = synthdata.DatasetProfile(n_subjects=3, trials_per_zone_per_subject=1,
                                       duration_low_s=2.0, duration_high_s=3.0, seed=7)
    trials, manifest = synthdata.generate_dataset(profile)
    synthdata.save_dataset(out, trials, manifest)
    return out


TINY_CONFIG = PipelineConfig(target_frames=60, image_width=16, conv_filters=(4, 8, 8),
                             dense_units=16, batch_size=8, max_epochs=6, patience=3,
                             dtype="float32", seed=7)


@pytest.fixture()
def tiny_config():
    return TINY_CONFIG


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("\n".join(TINY_CONFIG.to_lines()) + "\n")
    return path
