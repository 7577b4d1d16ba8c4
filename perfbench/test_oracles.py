"""Fast tests of the benchmark's own oracles, so that a failed workload check
points at the program and not at the oracle.  Run with
`python3 -m pytest perfbench/test_oracles.py`."""

import math

import numpy as np

from oracles import central_differences, conv3x3_shifted, mcc_covariance


def _binary_mcc(tn, fp, fn, tp):
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / den


def test_mcc_covariance_matches_binary_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(500):
        c = rng.integers(1, 40, size=(2, 2))
        want = _binary_mcc(c[0, 0], c[0, 1], c[1, 0], c[1, 1])
        assert abs(mcc_covariance(c) - want) < 1e-12


def test_mcc_covariance_edge_cases():
    assert mcc_covariance(np.diag([3, 5, 9])) == 1.0
    assert abs(mcc_covariance(np.outer([1, 2, 3], [4, 1, 2]))) < 1e-12
    # every prediction in one class: zero denominator, reported as 0
    assert mcc_covariance([[4, 0, 0], [7, 0, 0], [2, 0, 0]]) == 0.0


def test_shifted_conv_identity_kernel_copies_input():
    x = np.arange(2 * 4 * 5 * 3, dtype=np.float64).reshape(2, 4, 5, 3)
    w = np.zeros((3, 3, 3, 3))
    w[1, 1] = np.eye(3)
    np.testing.assert_array_equal(conv3x3_shifted(x, w, np.zeros(3)), x)


def test_shifted_conv_offset_kernel_shifts_with_zero_padding():
    x = np.arange(1 * 3 * 4 * 1, dtype=np.float64).reshape(1, 3, 4, 1) + 1
    w = np.zeros((3, 3, 1, 1))
    w[0, 2, 0, 0] = 1.0  # out[r, c] = x[r - 1, c + 1]
    out = conv3x3_shifted(x, w, np.zeros(1))[0, :, :, 0]
    want = np.zeros((3, 4))
    want[1:, :3] = x[0, :2, 1:, 0]
    np.testing.assert_array_equal(out, want)


def test_shifted_conv_ones_kernel_counts_neighbours_and_adds_bias():
    x = np.ones((1, 4, 4, 2))
    w = np.ones((3, 3, 2, 1))
    out = conv3x3_shifted(x, w, np.array([0.5]))[0, :, :, 0]
    neighbours = np.array([[4, 6, 6, 4], [6, 9, 9, 6], [6, 9, 9, 6], [4, 6, 6, 4]])
    np.testing.assert_array_equal(out, 2 * neighbours + 0.5)


def test_central_differences_are_exact_on_a_quadratic():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    x = rng.normal(size=4)
    before = x.copy()

    def f():
        return float(x @ a @ x + b @ x)

    grad = (a + a.T) @ x + b
    for i in range(4):
        differences = list(central_differences(f, x, (i,), (1e-2, 1e-3)))
        assert len(differences) == 2
        for d in differences:
            assert abs(d - grad[i]) < 1e-9
    np.testing.assert_array_equal(x, before)


def test_a_smaller_step_leaves_a_kink_outside():
    # slope 2 below the kink at 0.5 + 3e-3 and 7 above it: the step 1e-2
    # reaches across the kink, the step 1e-3 does not
    x = np.array([0.5])

    def f():
        return 2.0 * x[0] + 5.0 * max(0.0, x[0] - 0.503)

    wide, narrow = central_differences(f, x, (0,), (1e-2, 1e-3))
    assert abs(wide - 2.0) > 1.0
    assert abs(narrow - 2.0) < 1e-9
    assert x[0] == 0.5


def test_central_differences_restore_x_when_stopped_early():
    x = np.array([1.0, 2.0])
    differences = central_differences(lambda: float(x @ x), x, (1,), (1e-4, 1e-5))
    assert abs(next(differences) - 4.0) < 1e-9
    np.testing.assert_array_equal(x, [1.0, 2.0])
