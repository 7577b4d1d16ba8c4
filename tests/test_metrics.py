"""Confusion-matrix statistics against closed-form and brute-force oracles."""

import numpy as np
import pytest

from liftrisk import metrics
from liftrisk.metrics import ConfusionMatrix, accuracy, confusion, f_measure, precision, recall, rk


def binary_mcc(tp, fn, fp, tn):
    """Closed-form binary Matthews correlation; the K=2 oracle."""
    denom = np.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)))
    if denom == 0:
        return None
    return (tp * tn - fp * fn) / denom


class TestConfusion:
    def test_diagonal(self):
        c = confusion([0, 1, 2], [0, 1, 2], k=3)
        assert np.array_equal(c.counts, np.eye(3, dtype=int))

    def test_all_predicted_zero(self):
        c = confusion([0, 0, 0], [0, 1, 2], k=3)
        assert np.array_equal(c.counts[:, 0], [1, 1, 1])
        assert c.counts[:, 1:].sum() == 0

    def test_empty(self):
        c = confusion([], [], k=3)
        assert c.counts.sum() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], k=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion([3], [0], k=3)


class TestPrecisionRecallF:
    def test_precision_eq2(self):
        # TP=3, FP=1 for class 0
        c = ConfusionMatrix(np.array([[3, 0], [1, 0]]), ("a", "b"))
        assert float(precision(c, 0)) == 0.75

    def test_f_measure_of_equal_pr(self):
        # precision = recall = 0.5 -> harmonic mean 0.5
        c = ConfusionMatrix(np.array([[1, 1], [1, 1]]), ("a", "b"))
        assert float(precision(c, 0)) == 0.5
        assert float(recall(c, 0)) == 0.5
        assert float(f_measure(c, 0)) == 0.5

    def test_degenerate_class_flagged(self):
        # class 2 never predicted and never true: every denominator is zero
        c = ConfusionMatrix(np.array([[2, 1, 0], [1, 2, 0], [0, 0, 0]]))
        values = (precision(c, 2), recall(c, 2), f_measure(c, 2))
        assert values == (0.0, 0.0, 0.0)
        assert all(type(v) is float for v in values)

    def test_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = ConfusionMatrix(rng.integers(0, 30, size=(3, 3)))
            for k in range(3):
                for fn in (precision, recall, f_measure):
                    assert 0.0 <= float(fn(c, k)) <= 1.0


class TestAccuracy:
    def test_perfect(self):
        c = ConfusionMatrix(np.diag([60, 120, 180]))
        assert accuracy(c) == 1.0

    def test_all_off_diagonal(self):
        c = ConfusionMatrix(np.array([[0, 5], [5, 0]]), ("a", "b"))
        assert accuracy(c) == 0.0

    def test_163_of_180(self):
        # a 180-sample test set with 163 on the diagonal rounds to 0.906
        counts = np.diag([20, 55, 88])
        counts[0, 1] = 4
        counts[1, 2] = 6
        counts[2, 1] = 7
        c = ConfusionMatrix(counts)
        assert c.total == 180
        assert np.trace(c.counts) == 163
        assert round(accuracy(c), 3) == 0.906

    def test_equals_count_weighted_recall(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = ConfusionMatrix(rng.integers(0, 25, size=(3, 3)) + np.eye(3, dtype=int))
            weighted = sum(float(recall(c, k)) * c.counts[k].sum() for k in range(3))
            assert accuracy(c) == pytest.approx(weighted / c.total, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix(np.zeros((3, 3), dtype=int)))


class TestRk:
    def test_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.integers(1, 50, size=3)
            assert float(rk(ConfusionMatrix(np.diag(d)))) == pytest.approx(1.0, abs=1e-12)

    def test_matches_binary_mcc_on_1000_matrices(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            m = rng.integers(0, 40, size=(2, 2))
            tp, fn, fp, tn = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            oracle = binary_mcc(tp, fn, fp, tn)
            if oracle is None:
                continue
            ours = rk(ConfusionMatrix(m, ("a", "b")))
            assert ours == pytest.approx(oracle, abs=1e-12)
            checked += 1

    def test_rank_one_is_zero(self):
        # statistically independent predictions: C[t][p] = r_t * s_p
        r = np.array([2, 3, 5])
        s = np.array([4, 1, 2])
        c = ConfusionMatrix(np.outer(r, s))
        assert abs(float(rk(c))) < 1e-12
        # all-equal matrix is the simplest rank-one case
        assert abs(float(rk(ConfusionMatrix(np.full((3, 3), 7))))) < 1e-12

    def test_rank_one_matches_brute_force_triple_sum(self):
        # independent evaluation of the triple sum for K=3
        c = np.outer([2, 3, 5], [4, 1, 2]).astype(float)
        num = 0.0
        for k in range(3):
            for l in range(3):
                for m in range(3):
                    num += c[k, k] * c[l, m] - c[k, l] * c[m, k]
        assert abs(num) < 1e-9

    def test_range_and_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = rng.integers(0, 30, size=(3, 3))
            v = rk(ConfusionMatrix(m))
            assert -1.0 - 1e-12 <= float(v) <= 1.0 + 1e-12
            perm = rng.permutation(3)
            relabeled = m[np.ix_(perm, perm)]
            v2 = rk(ConfusionMatrix(relabeled))
            assert float(v2) == pytest.approx(float(v), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = rng.integers(0, 30, size=(3, 3)) + np.eye(3, dtype=int)
            v1 = float(rk(ConfusionMatrix(m)))
            v2 = float(rk(ConfusionMatrix(m * 7)))
            assert v2 == pytest.approx(v1, abs=1e-12)

    def test_degenerate_single_class(self):
        # only one observed class: true-marginal denominator collapses
        m = np.zeros((3, 3), dtype=int)
        m[1, :] = [3, 4, 5]
        assert rk(ConfusionMatrix(m)) == 0.0
        # only one predicted class
        m2 = np.zeros((3, 3), dtype=int)
        m2[:, 0] = [3, 4, 5]
        assert rk(ConfusionMatrix(m2)) == 0.0


class TestReport:
    def test_rows_layout(self):
        c = confusion([0, 1, 2, 2], [0, 1, 2, 1], k=3)
        rows = metrics.report_rows(c)
        names = [r[0] for r in rows]
        assert names == ["precision"] * 3 + ["recall"] * 3 + ["f_measure"] * 3 + ["accuracy", "r_k"]

    def test_csv_write(self, tmp_path):
        c = confusion([0, 1, 2], [0, 1, 2], k=3)
        path = tmp_path / "report.csv"
        metrics.write_report_csv(path, c, comments=["seed = 1"])
        text = path.read_text().splitlines()
        assert text[0] == "# seed = 1"
        assert text[1] == "metric,class,value"
        assert "accuracy,,1.0" in text
