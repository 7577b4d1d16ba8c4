"""Grid-search determinism, ranking, and failure isolation."""

from dataclasses import replace

import numpy as np
import pytest

from liftrisk import pipeline, trainer
from liftrisk.config import PipelineConfig
from liftrisk.hypertune import GridSpec, TuneCell, grid_search, ranked, write_results_csv


def make_data(rng, n=24, dim=10):
    labels = np.arange(n) % 3
    images = rng.normal(size=(n, dim)) + labels[:, None] * 2.0
    return images, labels


# Flatten, Dense(8, relu), Dropout(cell rate), SoftmaxOutput(3, cell L2) on 10 features
BASE = PipelineConfig(model_preset="mlp", dense_units=8, batch_size=8, max_epochs=4,
                      patience=4, seed=11)


def make_cell(l2_lambda, learning_rate, dropout_rate, repeat, seed, final_loss=float("nan"),
              epochs_run=1, failed=False, **scores):
    """A cell whose training ran `epochs_run` epochs and restored the last,
    of monitored loss `final_loss`; a failed cell has no history."""
    config = replace(BASE, l2_lambda=l2_lambda, learning_rate=learning_rate,
                     dropout_rate=dropout_rate, seed=seed)
    history = None if failed else trainer.TrainHistory(losses=[final_loss] * epochs_run,
                                                       best_epoch=epochs_run)
    return TuneCell(config, repeat, history=history, **scores)


class TestGridSpec:
    def test_cells_in_grid_order(self):
        grid = GridSpec(lambdas=(1e-3, 1e-5), alphas=(1e-2,), dropouts=(0.0, 0.25),
                        base=BASE)
        cells = grid.cells()
        assert len(cells) == 4
        combos = [(c.config.l2_lambda, c.config.dropout_rate) for c in cells]
        assert combos == [(1e-3, 0.0), (1e-3, 0.25), (1e-5, 0.0), (1e-5, 0.25)]
        seeds = [c.config.seed for c in cells]
        assert len(set(seeds)) == 4

    def test_unscored_cell_reads_as_failed(self):
        cell = TuneCell(BASE, 0)
        assert cell.failed and cell.epochs_run == 0 and np.isnan(cell.final_loss)

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
        results = grid_search(grid, images, labels, np.arange(0, 18), np.arange(18, 24))
        assert len(results) == 1
        cell = results[0]
        assert not cell.failed

        standalone = grid.cells()[0].config
        model = pipeline.build_model(standalone, tr_im.shape[1:])
        history = trainer.train(model, tr_im, tr_lb, standalone)
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
        args = (images, labels, np.arange(0, 18), np.arange(18, 24))
        r1 = grid_search(grid, *args)
        r2 = grid_search(grid, *args)
        for a, b in zip(r1, r2):
            assert (a.rk, a.accuracy, a.final_loss, a.epochs_run, a.config.seed) == \
                   (b.rk, b.accuracy, b.final_loss, b.epochs_run, b.config.seed)

    def test_failed_cell_recorded_not_fatal(self, monkeypatch):
        rng = np.random.default_rng(2)
        images, labels = make_data(rng)
        build_model = pipeline.build_model

        def sabotaging_build_model(config, input_shape):
            model = build_model(config, input_shape)
            if config.dropout_rate == 0.5:
                model.layers[-1].w[0, 0] = np.nan
            return model

        monkeypatch.setattr(pipeline, "build_model", sabotaging_build_model)
        grid = GridSpec(lambdas=(1e-5,), alphas=(1e-3,), dropouts=(0.0, 0.5), base=BASE)
        with np.errstate(invalid="ignore"):
            results = grid_search(grid, images, labels, np.arange(0, 18), np.arange(18, 24))
        assert [c.failed for c in results] == [False, True]
        assert np.isnan(results[1].rk)

    def test_ranking_by_rk_then_loss(self):
        cells = [
            make_cell(1e-5, 1e-3, 0.0, 0, 1, rk=0.5, final_loss=0.2),
            make_cell(1e-5, 1e-3, 0.25, 0, 2, rk=0.9, final_loss=0.4),
            make_cell(1e-5, 1e-3, 0.5, 0, 3, rk=0.9, final_loss=0.3),
            make_cell(1e-5, 1e-2, 0.0, 0, 4, failed=True),
        ]
        order = ranked(cells)
        assert [c.config.seed for c in order] == [3, 2, 1]

    def test_rk_values_in_range(self):
        rng = np.random.default_rng(3)
        images, labels = make_data(rng, n=30)
        grid = GridSpec(lambdas=(1e-5,), alphas=(1e-2, 1e-3), dropouts=(0.0,), base=BASE)
        results = grid_search(grid, images, labels, np.arange(0, 24), np.arange(24, 30))
        for c in results:
            if not c.failed:
                assert -1.0 <= c.rk <= 1.0


class TestResultsCsv:
    def test_layout_and_rank_column(self, tmp_path):
        cells = [
            make_cell(1e-5, 1e-3, 0.0, 0, 1, rk=0.2, accuracy=0.5, final_loss=0.9,
                      epochs_run=3),
            make_cell(1e-3, 1e-3, 0.0, 0, 2, rk=0.8, accuracy=0.9, final_loss=0.1,
                      epochs_run=4),
            make_cell(1e-1, 1e-3, 0.0, 0, 3, failed=True),
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
