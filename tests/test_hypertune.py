"""Grid-search determinism, ranking, and failure isolation."""

import numpy as np
import pytest

from liftrisk import trainer
from liftrisk.hypertune import GridSpec, TuneCell, grid_search, ranked, write_results_csv
from liftrisk.nncore import Dense, Dropout, Flatten, Model, SoftmaxOutput


def make_data(rng, n=24, dim=10):
    labels = np.arange(n) % 3
    images = rng.normal(size=(n, dim)) + labels[:, None] * 2.0
    return images, labels


def builder_for(dim=10):
    def build(cell: TuneCell) -> Model:
        return Model([Flatten(), Dense(8, activation="relu"), Dropout(cell.dropout_rate),
                      SoftmaxOutput(3, l2_lambda=cell.l2_lambda)]).build((dim,), seed=cell.seed)
    return build


BASE = trainer.TrainConfig(batch_size=8, max_epochs=4, patience=4, seed=11)


class TestGridSpec:
    def test_cells_in_grid_order(self):
        grid = GridSpec(lambdas=(1e-3, 1e-5), alphas=(1e-2,), dropouts=(0.0, 0.25),
                        base=BASE)
        cells = grid.cells()
        assert len(cells) == 4
        combos = [(c.l2_lambda, c.dropout_rate) for c in cells]
        assert combos == [(1e-3, 0.0), (1e-3, 0.25), (1e-5, 0.0), (1e-5, 0.25)]
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == 4

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            GridSpec(lambdas=(), base=BASE)

    def test_defaults_span_documented_ranges(self):
        g = GridSpec()
        assert min(g.lambdas) == 1e-10 and max(g.lambdas) == 1e-1
        assert 1e-3 in g.alphas
        assert 0.25 in g.dropouts


class TestGridSearch:
    def test_single_cell_equals_standalone_run(self):
        rng = np.random.default_rng(0)
        images, labels = make_data(rng)
        tr_im, tr_lb = images[:18], labels[:18]
        te_im, te_lb = images[18:], labels[18:]
        grid = GridSpec(lambdas=(1e-5,), alphas=(1e-3,), dropouts=(0.0,), base=BASE)
        results = grid_search(grid, tr_im, tr_lb, te_im, te_lb, builder_for())
        assert len(results) == 1
        cell = results[0]
        assert not cell.failed

        standalone = grid.cells()[0]
        model = builder_for()(standalone)
        history = trainer.train(model, tr_im, tr_lb, grid.train_config(standalone))
        assert history.losses == cell.history.losses
        preds, _ = trainer.predict(model, te_im)
        from liftrisk import metrics
        cm = metrics.confusion(preds, te_lb, k=3)
        assert float(metrics.rk(cm)) == cell.rk
        assert metrics.accuracy(cm) == cell.accuracy

    def test_rerun_identical(self):
        rng = np.random.default_rng(1)
        images, labels = make_data(rng)
        grid = GridSpec(lambdas=(1e-3, 1e-7), alphas=(1e-3,), dropouts=(0.0,), base=BASE)
        args = (images[:18], labels[:18], images[18:], labels[18:], builder_for())
        r1 = grid_search(grid, *args)
        r2 = grid_search(grid, *args)
        for a, b in zip(r1, r2):
            assert (a.rk, a.accuracy, a.final_loss, a.epochs_run, a.seed) == \
                   (b.rk, b.accuracy, b.final_loss, b.epochs_run, b.seed)

    def test_failed_cell_recorded_not_fatal(self):
        rng = np.random.default_rng(2)
        images, labels = make_data(rng)

        def sabotaging_builder(cell: TuneCell) -> Model:
            model = builder_for()(cell)
            if cell.dropout_rate == 0.5:
                model.layers[-1].w[0, 0] = np.nan
            return model

        grid = GridSpec(lambdas=(1e-5,), alphas=(1e-3,), dropouts=(0.0, 0.5), base=BASE)
        with np.errstate(invalid="ignore"):
            results = grid_search(grid, images[:18], labels[:18], images[18:], labels[18:],
                                  sabotaging_builder)
        assert [c.failed for c in results] == [False, True]
        assert np.isnan(results[1].rk)

    def test_ranking_by_rk_then_loss(self):
        cells = [
            TuneCell(1e-5, 1e-3, 0.0, 0, 1, rk=0.5, final_loss=0.2),
            TuneCell(1e-5, 1e-3, 0.25, 0, 2, rk=0.9, final_loss=0.4),
            TuneCell(1e-5, 1e-3, 0.5, 0, 3, rk=0.9, final_loss=0.3),
            TuneCell(1e-5, 1e-2, 0.0, 0, 4, failed=True),
        ]
        order = ranked(cells)
        assert [c.seed for c in order] == [3, 2, 1]

    def test_rk_values_in_range(self):
        rng = np.random.default_rng(3)
        images, labels = make_data(rng, n=30)
        grid = GridSpec(lambdas=(1e-5,), alphas=(1e-2, 1e-3), dropouts=(0.0,), base=BASE)
        results = grid_search(grid, images[:24], labels[:24], images[24:], labels[24:],
                              builder_for())
        for c in results:
            if not c.failed:
                assert -1.0 <= c.rk <= 1.0


class TestResultsCsv:
    def test_layout_and_rank_column(self, tmp_path):
        cells = [
            TuneCell(1e-5, 1e-3, 0.0, 0, 1, rk=0.2, accuracy=0.5, final_loss=0.9,
                     epochs_run=3),
            TuneCell(1e-3, 1e-3, 0.0, 0, 2, rk=0.8, accuracy=0.9, final_loss=0.1,
                     epochs_run=4),
            TuneCell(1e-1, 1e-3, 0.0, 0, 3, failed=True),
        ]
        path = tmp_path / "tune.csv"
        write_results_csv(path, cells, comments=["base seed = 11"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# base seed = 11"
        header = lines[1].split(",")
        assert header[:4] == ["l2_lambda", "learning_rate", "dropout_rate", "repeat"]
        rows = [l.split(",") for l in lines[2:]]
        assert rows[0][-1] == "2"   # rk 0.2 ranks second
        assert rows[1][-1] == "1"   # rk 0.8 ranks first
        assert rows[2][-2] == "True" and rows[2][-1] == ""
