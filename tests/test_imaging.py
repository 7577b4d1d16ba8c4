"""Wrap/unwrap bijection and the index arithmetic of the image encoding."""

import numpy as np
import pytest

from liftrisk.imaging import to_channel_matrix, unwrap_attribution, unwrap_image, wrap_image


def make_trial(channels):
    """[36, frames] channels as the frame-major [frames, 36] array that
    to_channel_matrix reads."""
    return np.asarray(channels, dtype=float).T


class TestToChannelMatrix:
    def test_indexing_definition(self):
        frames = 20
        channels = np.zeros((36, frames))
        for s in range(12):
            for k in range(3):
                channels[3 * s + k] = s + k / 10
        m = to_channel_matrix(make_trial(channels))
        for s in range(12):
            for k in range(3):
                assert np.all(m[s, :, k] == s + k / 10)

    def test_shape_750(self):
        m = to_channel_matrix(make_trial(np.zeros((36, 750))))
        assert m.shape == (12, 750, 3)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        channels = rng.normal(size=(36, 100))
        t = make_trial(channels)
        # back to [36, frames]: channel 3s+k is axis k of sensor s
        m = to_channel_matrix(t)
        assert np.array_equal(m.transpose(0, 2, 1).reshape(36, 100), channels)

    def test_feature_accounting(self):
        # 12 sensor streams x 3 axes x 750 frames = 27,000 values per trial
        m = to_channel_matrix(make_trial(np.zeros((36, 750))))
        assert m.size == 27_000

    def test_stack_is_a_view_of_each_trial(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5, 36))  # [frames, N, 36]
        m = to_channel_matrix(x)
        assert m.shape == (5, 12, 20, 3) and np.shares_memory(m, x)
        for i in range(5):
            assert np.array_equal(m[i], to_channel_matrix(x[:, i]))


class TestWrapImage:
    @pytest.mark.parametrize("frames,width", [(250, 55), (20, 16), (7, 12)])
    def test_stack_equals_each_image_wrapped_alone(self, frames, width):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(frames, 4, 36))
        stack = wrap_image(to_channel_matrix(x), width)
        assert stack.pixels.shape == (4, stack.height, width, 3)
        for i in range(4):
            alone = wrap_image(to_channel_matrix(x[:, i]), width)
            assert stack.pixels[i].tobytes() == alone.pixels.tobytes()
            assert (stack.frames, stack.width, stack.height) == (alone.frames, alone.width,
                                                                 alone.height)

    def test_default_geometry(self):
        m = np.zeros((12, 750, 3))
        img = wrap_image(m, width=95)
        assert img.pixels.shape == (95, 95, 3)
        assert img.pad_start == 9000
        assert img.height * img.width - img.pad_start == 25

    def test_flat_index_example(self):
        img = wrap_image(np.zeros((12, 750, 3)), width=95)
        assert img.to_rowcol(sensor=5, frame=100) == (12, 65)
        assert img.to_sensor_frame(12, 65) == (5, 100)

    def test_desk_geometry(self):
        m = np.zeros((12, 250, 3))
        img = wrap_image(m, width=55)
        assert img.pixels.shape == (55, 55, 3)
        assert img.height * img.width - img.pad_start == 25

    def test_desk_geometry_by_exhaustive_enumeration(self):
        # every (sensor, frame) maps to a distinct in-range cell; the rest pad
        img = wrap_image(np.zeros((12, 250, 3)), width=55)
        seen = set()
        for t in range(250):
            for s in range(12):
                rc = img.to_rowcol(s, t)
                assert rc not in seen
                seen.add(rc)
        assert len(seen) == 3000
        all_cells = {(r, c) for r in range(55) for c in range(55)}
        pad_cells = all_cells - seen
        assert len(pad_cells) == 25
        for r, c in pad_cells:
            assert img.to_sensor_frame(r, c) is None

    def test_padding_cells_are_zero(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(12, 250, 3)) + 5.0
        img = wrap_image(m, width=55)
        flat = img.pixels.reshape(-1, 3)
        assert np.all(flat[img.pad_start:] == 0.0)
        assert np.all(flat[: img.pad_start] != 0.0)

    def test_time_locality(self):
        # adjacent frames sit 12 apart; one frame's sensors are contiguous
        img = wrap_image(np.zeros((12, 100, 3)), width=40)
        for t in range(50):
            k_t = t * 12
            k_next = (t + 1) * 12
            assert k_next - k_t == 12
            rcs = [img.to_rowcol(s, t) for s in range(12)]
            flats = [r * img.width + c for r, c in rcs]
            assert flats == list(range(k_t, k_t + 12))

    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            wrap_image(np.zeros((12, 10, 3)), width=11)


class TestUnwrap:
    @pytest.mark.parametrize("width", [55, 95])
    def test_roundtrip_random_matrices(self, width):
        rng = np.random.default_rng(2)
        for _ in range(100):
            frames = int(rng.integers(5, 300))
            m = rng.normal(size=(12, frames, 3))
            img = wrap_image(m, width=width)
            back = unwrap_image(img)
            assert np.array_equal(back, m)

    def test_known_plane_roundtrip(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(12, 80, 3))
        img = wrap_image(m, width=30)
        plane0 = unwrap_attribution(img.pixels[:, :, 0], img)
        assert np.array_equal(plane0, m[:, :, 0].reshape(12, 80))

    def test_all_ones_routing(self):
        img = wrap_image(np.zeros((12, 750, 3)), width=95)
        a = np.ones((95, 95))
        routed = unwrap_attribution(a, img)
        assert routed.shape == (12, 750)
        assert np.all(routed == 1.0)
        assert routed.sum() == 9000  # padded tail contributed nothing

    def test_single_cell_routing(self):
        img = wrap_image(np.zeros((12, 750, 3)), width=95)
        a = np.zeros((95, 95))
        a[12, 65] = 1.0
        routed = unwrap_attribution(a, img)
        nz = np.argwhere(routed != 0)
        assert nz.tolist() == [[5, 100]]

    def test_shape_mismatch_rejected(self):
        img = wrap_image(np.zeros((12, 100, 3)), width=40)
        with pytest.raises(ValueError):
            unwrap_attribution(np.zeros((10, 10)), img)

