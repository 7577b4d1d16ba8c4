"""Confusion-matrix statistics: per-class precision/recall/F-measure, accuracy,
and the K-category correlation R_K used to rank models with a single number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import lines_text, write_file
from .synthdata import RISK_CLASSES


@dataclass
class ConfusionMatrix:
    """K x K counts, rows = true class, columns = predicted class."""

    counts: np.ndarray
    class_names: tuple[str, ...] = RISK_CLASSES

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("confusion matrix entries must be non-negative")
        if len(self.class_names) != self.counts.shape[0]:
            self.class_names = tuple(f"class{i}" for i in range(self.counts.shape[0]))

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(preds, truths, k: int, class_names=RISK_CLASSES) -> ConfusionMatrix:
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape:
        raise ValueError("preds and truths must have equal length")
    if preds.size and (preds.min() < 0 or preds.max() >= k or truths.min() < 0 or truths.max() >= k):
        raise ValueError(f"class indices must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (truths, preds), 1)
    return ConfusionMatrix(counts, class_names=tuple(class_names)[:k])


def precision(c: ConfusionMatrix, k: int) -> float:
    predicted = int(c.counts[:, k].sum())
    return int(c.counts[k, k]) / predicted if predicted else 0.0


def recall(c: ConfusionMatrix, k: int) -> float:
    true = int(c.counts[k, :].sum())
    return int(c.counts[k, k]) / true if true else 0.0


def f_measure(c: ConfusionMatrix, k: int) -> float:
    p = precision(c, k)
    r = recall(c, k)
    denom = p + r
    return 2.0 * p * r / denom if denom else 0.0


def accuracy(c: ConfusionMatrix) -> float:
    total = c.total
    if total == 0:
        raise ValueError("accuracy of an empty confusion matrix is undefined")
    return float(np.trace(c.counts)) / total


def rk(c: ConfusionMatrix) -> float:
    """K-category correlation of a confusion matrix.

    The numerator is the literal triple sum over (k, l, m) of
    C[k,k]*C[l,m] - C[k,l]*C[m,k]; the denominator factors are
    sqrt(sum_k t_k*(N - t_k)) over true-class marginals t and the same
    over predicted-class marginals.  Cheap at K=3 and the same brute-force
    form doubles as the oracle in the property tests.  Returns 0.0 when only
    one class was observed or only one predicted.
    """
    cm = c.counts.astype(np.float64)
    k = c.k
    num = 0.0
    for a in range(k):
        for l in range(k):
            for m in range(k):
                num += cm[a, a] * cm[l, m] - cm[a, l] * cm[m, a]
    n = cm.sum()
    t_marg = cm.sum(axis=1)  # true-class counts
    p_marg = cm.sum(axis=0)  # predicted-class counts
    den_true = float(np.sum(t_marg * (n - t_marg)))
    den_pred = float(np.sum(p_marg * (n - p_marg)))
    if den_true == 0.0 or den_pred == 0.0:
        return 0.0
    return float(num / (np.sqrt(den_true) * np.sqrt(den_pred)))


def report_rows(c: ConfusionMatrix) -> list[tuple[str, str, float]]:
    """Rows (metric, class, value) for the metrics report CSV."""
    rows: list[tuple[str, str, float]] = []
    for name, fn in (("precision", precision), ("recall", recall), ("f_measure", f_measure)):
        for i, cls in enumerate(c.class_names):
            rows.append((name, cls, fn(c, i)))
    rows.append(("accuracy", "", accuracy(c)))
    rows.append(("r_k", "", rk(c)))
    return rows


def write_report_csv(path, c: ConfusionMatrix, comments=()) -> None:
    """Per-class precision/recall/F-measure plus accuracy and R_K summary rows."""
    rows = [f"{name},{cls},{value!r}" for name, cls, value in report_rows(c)]
    write_file(path, lines_text(["metric,class,value", *rows], comments))
