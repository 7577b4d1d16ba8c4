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
from typing import Callable

import numpy as np

from . import metrics, trainer
from .errors import TrainingDivergedError
from .nncore import Model

CELL_SEED_STRIDE = 10007


@dataclass
class GridSpec:
    lambdas: tuple[float, ...] = (1e-1, 1e-3, 1e-5, 1e-7, 1e-10)
    alphas: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    dropouts: tuple[float, ...] = (0.0, 0.25, 0.5)
    repeats: int = 1
    base: trainer.TrainConfig = field(default_factory=trainer.TrainConfig)

    def __post_init__(self):
        if not (self.lambdas and self.alphas and self.dropouts):
            raise ValueError("grid axes must be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    def cells(self) -> list[TuneCell]:
        """Unscored cells in grid order: lambdas x alphas x dropouts x repeats."""
        combos = itertools.product(self.lambdas, self.alphas, self.dropouts,
                                   range(self.repeats))
        return [TuneCell(l2_lambda=lam, learning_rate=alpha, dropout_rate=drop, repeat=rep,
                         seed=self.base.seed + CELL_SEED_STRIDE * index + rep)
                for index, (lam, alpha, drop, rep) in enumerate(combos)]

    def train_config(self, cell: TuneCell) -> trainer.TrainConfig:
        """The base config with the cell's learning rate and seed."""
        return replace(self.base, learning_rate=cell.learning_rate, seed=cell.seed)


@dataclass
class TuneCell:
    l2_lambda: float
    learning_rate: float
    dropout_rate: float
    repeat: int
    seed: int
    rk: float = float("nan")
    accuracy: float = float("nan")
    final_loss: float = float("nan")
    epochs_run: int = 0
    failed: bool = False
    history: trainer.TrainHistory | None = None


def grid_search(grid: GridSpec,
                train_images: np.ndarray, train_labels: np.ndarray,
                test_images: np.ndarray, test_labels: np.ndarray,
                model_builder: Callable[[TuneCell], Model],
                classes: int = 3) -> list[TuneCell]:
    """One model per cell on the shared split; results in grid order.  The
    builder gives each cell's model its L2 weight, dropout rate and seed."""
    results: list[TuneCell] = []
    for cell in grid.cells():
        model = model_builder(cell)
        try:
            history = trainer.train(model, train_images, train_labels, grid.train_config(cell))
        except TrainingDivergedError:
            cell.failed = True
            results.append(cell)
            continue
        preds, _ = trainer.predict(model, test_images)
        cm = metrics.confusion(preds, test_labels, k=classes)
        cell.rk = float(metrics.rk(cm))
        cell.accuracy = metrics.accuracy(cm)
        cell.final_loss = history.losses[history.best_epoch - 1]
        cell.epochs_run = history.stopped_epoch
        cell.history = history
        results.append(cell)
    return results


def ranked(results: list[TuneCell]) -> list[TuneCell]:
    """Non-failed cells by R_K descending, ties by lower final training loss."""
    ok = [c for c in results if not c.failed]
    return sorted(ok, key=lambda c: (-c.rk, c.final_loss))


def write_results_csv(path, results: list[TuneCell], comments: list[str] | None = None) -> None:
    order = ranked(results)
    rank_of = {id(c): r + 1 for r, c in enumerate(order)}
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        fh.write("l2_lambda,learning_rate,dropout_rate,repeat,seed,rk,accuracy,"
                 "final_loss,epochs_run,failed,rank\n")
        for c in results:
            rank = rank_of.get(id(c), "")
            fh.write(f"{c.l2_lambda!r},{c.learning_rate!r},{c.dropout_rate!r},"
                     f"{c.repeat},{c.seed},{c.rk!r},{c.accuracy!r},{c.final_loss!r},"
                     f"{c.epochs_run},{c.failed},{rank}\n")
