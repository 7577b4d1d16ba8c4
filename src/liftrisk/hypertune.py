"""Grid search over L2 weight, learning rate, and dropout, ranked by R_K.

Cells run sequentially (they are independent, so a caller may parallelize
with per-cell seeds) against one fixed train/test split; each cell gets a
deterministic seed derived from the base seed and its grid position, so any
row can be reproduced standalone.  A diverging cell is recorded as failed
rather than aborting the sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, pipeline, trainer
from .config import PipelineConfig
from .errors import TrainingDivergedError
from .fileio import lines_text, write_file

CELL_SEED_STRIDE = 10007


@dataclass
class GridSpec:
    lambdas: tuple[float, ...] = (1e-1, 1e-3, 1e-5, 1e-7, 1e-10)
    alphas: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    dropouts: tuple[float, ...] = (0.0, 0.25, 0.5)
    repeats: int = 1
    base: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if not (self.lambdas and self.alphas and self.dropouts):
            raise ValueError("grid axes must be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    def cells(self) -> list[TuneCell]:
        """Unscored cells in grid order, lambdas x alphas x dropouts x repeats:
        each holds the base config with its L2 weight, learning rate, dropout and seed."""
        combos = itertools.product(self.lambdas, self.alphas, self.dropouts,
                                   range(self.repeats))
        return [TuneCell(replace(self.base, l2_lambda=lam, learning_rate=alpha,
                                 dropout_rate=drop,
                                 seed=self.base.seed + CELL_SEED_STRIDE * index + rep), rep)
                for index, (lam, alpha, drop, rep) in enumerate(combos)]


@dataclass
class TuneCell:
    config: PipelineConfig
    repeat: int
    rk: float = float("nan")
    accuracy: float = float("nan")
    history: trainer.TrainHistory | None = None   # None while unscored or when training diverged

    @property
    def failed(self) -> bool:
        return self.history is None

    @property
    def final_loss(self) -> float:
        """The monitored loss of the epoch whose parameters training restored."""
        h = self.history
        return float("nan") if h is None else h.losses[h.best_epoch - 1]

    @property
    def epochs_run(self) -> int:
        return 0 if self.history is None else self.history.stopped_epoch


def grid_search(grid: GridSpec, images: np.ndarray, labels: np.ndarray,
                train_rows: np.ndarray, test_rows: np.ndarray) -> list[TuneCell]:
    """One model per cell, trained on `train_rows` of the images and scored
    on `test_rows`; results in grid order."""
    results: list[TuneCell] = []
    for cell in grid.cells():
        try:
            model, history = pipeline.fit(cell.config, images, labels, train_rows)
        except TrainingDivergedError:
            results.append(cell)
            continue
        cm = pipeline.score(model, images, labels, test_rows)
        cell.rk = metrics.rk(cm)
        cell.accuracy = metrics.accuracy(cm)
        cell.history = history
        results.append(cell)
    return results


def ranked(results: list[TuneCell]) -> list[TuneCell]:
    """Non-failed cells by R_K descending, ties by lower final training loss."""
    ok = [c for c in results if not c.failed]
    return sorted(ok, key=lambda c: (-c.rk, c.final_loss))


def write_results_csv(path, results: list[TuneCell], comments=()) -> None:
    order = ranked(results)
    rank_of = {id(c): r + 1 for r, c in enumerate(order)}
    rows = [f"{c.config.l2_lambda!r},{c.config.learning_rate!r},{c.config.dropout_rate!r},"
            f"{c.repeat},{c.config.seed},{c.rk!r},{c.accuracy!r},{c.final_loss!r},{c.epochs_run},"
            f"{c.failed},{rank_of.get(id(c), '')}" for c in results]
    write_file(path, lines_text(["l2_lambda,learning_rate,dropout_rate,repeat,seed,rk,accuracy,"
                                 "final_loss,epochs_run,failed,rank", *rows], comments))
