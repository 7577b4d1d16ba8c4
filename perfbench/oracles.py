"""Computations made apart from liftrisk, against which the benchmark checks
the program's outputs.  Nothing here imports liftrisk."""

from __future__ import annotations

from pathlib import Path

import numpy as np

RISK_CLASSES = ("low", "medium", "high")

# Lifting zones of the source paper grouped into risk levels: the two
# mid-height zones close to the body are low risk, the four around them
# medium, and the far or floor/shoulder zones high.
ZONE_RISK = {4: "low", 5: "low",
             6: "medium", 7: "medium", 8: "medium", 9: "medium",
             1: "high", 2: "high", 3: "high", 10: "high", 11: "high", 12: "high"}


def mcc_covariance(counts) -> float:
    """Multiclass Matthews correlation in its covariance form,
    cov(X, Y) / sqrt(cov(X, X) cov(Y, Y)), from a K x K confusion matrix
    with rows = true class.  Only the trace and the two marginals enter;
    0 when either marginal is concentrated on one class."""
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum()
    true_m = c.sum(axis=1)
    pred_m = c.sum(axis=0)
    num = np.trace(c) * n - true_m @ pred_m
    den = np.sqrt(n * n - pred_m @ pred_m) * np.sqrt(n * n - true_m @ true_m)
    return 0.0 if den == 0.0 else float(num / den)


def conv3x3_shifted(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padding stride-1 3x3 cross-correlation of [N,H,W,Cin] with
    [3,3,Cin,Cout] as nine shifted products summed, without patches."""
    n, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((n, h, wd, w.shape[3]), dtype=np.result_type(x, w))
    for i in range(3):
        for j in range(3):
            out += xp[:, i:i + h, j:j + wd, :] @ w[i, j]
    return out + b


def central_differences(f, x: np.ndarray, index, steps):
    """(f() at x[index] + h  -  f() at x[index] - h) / 2h for each h in
    steps, made lazily: x is perturbed in place and restored before each
    difference is yielded; f reads x itself.

    The kink of a ReLU unit inside +-h spoils a difference.  A smaller h
    leaves fewer kinks inside, and away from them the difference converges
    to the derivative, so a derivative that no step matches is wrong."""
    old = x[index].copy()
    for h in steps:
        x[index] = old + h
        try:
            f_plus = f()
            x[index] = old - h
            f_minus = f()
        finally:
            x[index] = old
        yield (f_plus - f_minus) / (2.0 * h)


def read_pgm(path) -> tuple[int, int, bytes]:
    """(width, height, pixels) of a binary P5 file with maxval 255; raises
    ValueError on a bad header or a payload of the wrong size."""
    blob = Path(path).read_bytes()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: not a P5 image with maxval 255")
    width, height = (int(v) for v in parts[1].split())
    if len(parts[3]) != width * height:
        raise ValueError(f"{path}: {len(parts[3])} payload bytes for {width}x{height}")
    return width, height, parts[3]


def read_csv_rows(path) -> list[list[str]]:
    """Data rows of a liftrisk report CSV: comment lines and the header dropped."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def read_comment_values(path) -> dict[str, str]:
    """`# key,value` trailer lines of a liftrisk CSV."""
    out = {}
    for ln in Path(path).read_text().splitlines():
        if ln.startswith("# ") and "," in ln:
            key, _, value = ln[2:].partition(",")
            out[key] = value
    return out
