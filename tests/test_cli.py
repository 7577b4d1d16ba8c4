"""CLI commands end to end at tiny scale: outputs, determinism, exit codes."""

import os
import shutil
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftrisk import cli, pipeline, saliency, synthdata
from liftrisk.config import PipelineConfig, load_config, parse_config_lines
from liftrisk.errors import CheckpointMismatchError, ConfigError
from liftrisk.nncore import save_checkpoint


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def trained_run(tiny_dataset_dir, tiny_config, tmp_path_factory):
    """The directory holding model.ckpt and the three CSVs of one tiny
    `train`, run once for the module."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "config.txt"
    config.write_text("\n".join(tiny_config.to_lines()) + "\n")
    assert run(["train", "--data", str(tiny_dataset_dir), "--config", str(config),
                "--out", str(root / "run" / "model.ckpt")]) == 0
    return root / "run"


@pytest.fixture()
def trained(trained_run, tmp_path):
    """A copy of that run's files in the test's tmp_path, so a test that
    spoils one spoils it for no other test."""
    for path in trained_run.iterdir():
        shutil.copy(path, tmp_path / path.name)
    return tmp_path / "model.ckpt"


class TestSynth:
    def test_writes_default_dataset(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth", "--out", str(out), "--seed", "3", "--profile", "desk"]) == 0
        assert (out / "manifest.csv").exists()
        assert (out / "pipeline_config.txt").exists()
        trials = list((out / "trials").glob("trial_*.csv"))
        assert len(trials) == 720

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out", str(a), "--seed", "5", "--profile", "desk"])
        run(["synth", "--out", str(b), "--seed", "5", "--profile", "desk"])
        for rel in ["manifest.csv", "trials/trial_0_1_0.csv", "trials/trial_9_12_5.csv",
                    "pipeline_config.txt"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_refuses_nonempty_dir(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run(["synth", "--out", str(out), "--profile", "desk"]) == cli.EXIT_DATA

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run(["synth", "--out", str(out), "--profile", "desk", "--force"]) == 0

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["synth"])
        assert exc.value.code == 2

    def test_lost_worker_exit_3(self, tmp_path, capsys, monkeypatch):
        write_file = synthdata.write_file

        def killed_on_first(path, data):
            if path.name == "trial_0_1_0.csv":
                os._exit(1)   # as a worker killed from outside ends
            write_file(path, data)

        monkeypatch.setattr(synthdata, "write_file", killed_on_first)
        rc = run(["synth", "--out", str(tmp_path / "data"), "--profile", "desk"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert "worker process ended while writing" in err and "trial_0_1_0.csv" in err

    def test_desk_profile_config(self, tmp_path):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--profile", "desk", "--seed", "9"])
        cfg = load_config(out / "pipeline_config.txt")
        assert cfg.target_frames == 250
        assert cfg.image_width == 55
        assert cfg.conv_filters == (8, 16, 32)
        assert cfg.dense_units == 128
        assert cfg.seed == 9


class TestTrain:
    def test_end_to_end_writes_reports(self, tiny_dataset_dir, tiny_config_file, tmp_path):
        ckpt = tmp_path / "out" / "model.ckpt"
        rc = run(["train", "--data", str(tiny_dataset_dir), "--config",
                  str(tiny_config_file), "--out", str(ckpt)])
        assert rc == 0
        assert ckpt.exists()
        metrics_text = (tmp_path / "out" / "model_metrics.csv").read_text()
        assert "accuracy," in metrics_text
        assert "r_k," in metrics_text
        history_lines = (tmp_path / "out" / "model_history.csv").read_text().splitlines()
        assert any(l.startswith("epoch,loss,accuracy") for l in history_lines)
        manifest_text = (tmp_path / "out" / "model_manifest.csv").read_text()
        assert ",train" in manifest_text and ",test" in manifest_text

    def test_unknown_config_key_exit_2(self, tiny_dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("foo = 1\n")
        rc = run(["train", "--data", str(tiny_dataset_dir), "--config", str(bad),
                  "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_CONFIG
        assert "foo" in capsys.readouterr().err

    def test_bad_training_bound_exit_2(self, tiny_dataset_dir, tiny_config, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(tiny_config.to_lines()).replace("batch_size = 8",
                                                                  "batch_size = 0") + "\n")
        rc = run(["train", "--data", str(tiny_dataset_dir), "--config", str(bad),
                  "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "batch_size" in err and "Traceback" not in err

    def test_unreadable_data_exit_3(self, tiny_config_file, tmp_path):
        rc = run(["train", "--data", str(tmp_path / "nope"), "--config",
                  str(tiny_config_file), "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_DATA

    def test_rerun_byte_identical_outputs(self, tiny_dataset_dir, tiny_config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run(["train", "--data", str(tiny_dataset_dir), "--config",
                      str(tiny_config_file), "--out", str(out / "model.ckpt")])
            assert rc == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "model_metrics.csv").read_bytes() == (b / "model_metrics.csv").read_bytes()
        assert (a / "model_history.csv").read_bytes() == (b / "model_history.csv").read_bytes()

    def test_non_finite_data_rejected_exit_3(self, tiny_dataset_dir, tiny_config_file,
                                             tmp_path, capsys):
        import shutil

        data = tmp_path / "poisoned"
        shutil.copytree(tiny_dataset_dir, data)
        victim = next((data / "trials").glob("*.csv"))
        lines = victim.read_text().splitlines()
        parts = lines[1].split(",")
        parts[1] = "inf"
        lines[1] = ",".join(parts)
        victim.write_text("\n".join(lines) + "\n")
        rc = run(["train", "--data", str(data), "--config", str(tiny_config_file),
                  "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_DATA
        assert victim.name in capsys.readouterr().err

    def test_absurd_learning_rate_diverges_exit_4(self, tiny_dataset_dir, tiny_config, tmp_path,
                                                   capsys):
        # float32 overflows to inf under a 1e30 learning rate; the loop must
        # abort with the diverged exit code, not loop on NaN
        cfg = replace(tiny_config, learning_rate=1e30, max_epochs=3)
        cfg_path = tmp_path / "hot.txt"
        cfg_path.write_text("\n".join(cfg.to_lines()) + "\n")
        with np.errstate(invalid="ignore", over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = run(["train", "--data", str(tiny_dataset_dir), "--config", str(cfg_path),
                      "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_DIVERGED
        assert "epoch" in capsys.readouterr().err


class TestEval:
    def test_eval_matches_train_report(self, trained, tiny_dataset_dir, tmp_path):
        out = tmp_path / "eval.csv"
        assert run(["eval", "--model", str(trained), "--data", str(tiny_dataset_dir),
                    "--out", str(out)]) == 0
        train_metrics = (trained.parent / "model_metrics.csv").read_text()
        eval_metrics = out.read_text()
        data_rows = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert data_rows(train_metrics) == data_rows(eval_metrics)

    def test_width_mismatch_exit_5(self, trained, tiny_dataset_dir, tiny_config, tmp_path,
                                   capsys):
        # the checkpoint holds (45, 16, 3): 12 * 60 frames wrapped at width 16.  The
        # dataset has no trial file: the mismatch is found before any is read
        data = tmp_path / "no_trials"
        shutil.copytree(tiny_dataset_dir, data)
        shutil.rmtree(data / "trials")
        for override, shape in [({"image_width": 20}, (36, 20, 3)),
                                ({"target_frames": 80}, (60, 16, 3))]:
            path = tmp_path / "override.txt"
            path.write_text("\n".join(replace(tiny_config, **override).to_lines()) + "\n")
            rc = run(["eval", "--model", str(trained), "--data", str(data), "--config", str(path)])
            assert rc == cli.EXIT_MISMATCH
            err = capsys.readouterr().err
            assert "override.txt" in err and str((45, 16, 3)) in err and str(shape) in err

    def test_truncated_checkpoint_exit_5(self, trained, tiny_dataset_dir, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(trained.read_bytes()[:2000])
        rc = run(["eval", "--model", str(cut), "--data", str(tiny_dataset_dir)])
        assert rc == cli.EXIT_MISMATCH
        assert "cut.ckpt" in capsys.readouterr().err

    def test_bad_magic_exit_5(self, tiny_dataset_dir, tmp_path, capsys):
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"not a checkpoint at all\n")
        rc = run(["eval", "--model", str(garbage), "--data", str(tiny_dataset_dir)])
        assert rc == cli.EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "garbage.ckpt" in err and "magic" in err and "Traceback" not in err

    def test_out_into_missing_directory(self, trained, tiny_dataset_dir, tmp_path):
        out = tmp_path / "not" / "yet" / "eval.csv"
        assert run(["eval", "--model", str(trained), "--data", str(tiny_dataset_dir),
                    "--out", str(out)]) == 0
        assert "r_k," in out.read_text()

    def test_unsupported_version_exit_5(self, trained, tiny_dataset_dir, tmp_path, capsys):
        other = tmp_path / "v9.ckpt"
        blob = trained.read_bytes()
        assert b"\nversion 1\n" in blob
        other.write_bytes(blob.replace(b"\nversion 1\n", b"\nversion 9\n", 1))
        rc = run(["eval", "--model", str(other), "--data", str(tiny_dataset_dir)])
        assert rc == cli.EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "v9.ckpt" in err and "version 9" in err and "Traceback" not in err

    def test_missing_checkpoint_is_error(self, tiny_dataset_dir, tmp_path, capsys):
        rc = run(["eval", "--model", str(tmp_path / "none.ckpt"), "--data", str(tiny_dataset_dir)])
        assert rc == cli.EXIT_MISMATCH
        assert "none.ckpt" in capsys.readouterr().err


def _spec_line(old, new):
    """A copy of the trained checkpoint with one layer spec line rewritten."""
    def spoil(trained, dataset, config, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = trained.read_bytes()
        assert f"\n{old}\n".encode() in blob
        bad.write_bytes(blob.replace(f"\n{old}\n".encode(), f"\n{new}\n".encode(), 1))
        return {"--model": bad}
    return spoil


def _scaler(edit):
    """A copy of the trained checkpoint saved with edit(scaler_params) as its
    scaler tensor, or with none when edit returns None."""
    def spoil(trained, dataset, config, tmp_path):
        model, config, scaler = pipeline.load_trained(trained)
        params = edit(scaler.params)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, model, config.to_lines(),
                        None if params is None else {"scaler_params": params})
        return {"--model": bad}
    return spoil


def _header(old: bytes, new: bytes):
    """A copy of the trained checkpoint with one header line rewritten."""
    def spoil(trained, dataset, config, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = trained.read_bytes()
        assert b"\n" + old + b"\n" in blob
        bad.write_bytes(blob.replace(b"\n" + old + b"\n", b"\n" + new + b"\n", 1))
        return {"--model": bad}
    return spoil


def _first_weight(value: float):
    """A copy of the trained checkpoint whose first conv weight is `value`."""
    def spoil(trained, dataset, config, tmp_path):
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(trained.read_bytes())
        at = blob.index(b"\ntensor layer00.w 4 3 3 3 4\n") + len(b"\ntensor layer00.w 4 3 3 3 4\n")
        blob[at: at + 8] = np.float64(value).tobytes()
        bad.write_bytes(bytes(blob))
        return {"--model": bad}
    return spoil


def _config(**override):
    """The tiny config with `override`, read before a dataset that does not
    exist: exit 2 rather than 3 shows that no trial file was read."""
    def spoil(trained, dataset, config, tmp_path):
        lines = [line for line in config.to_lines() if line.split(" = ")[0] not in override]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in override.items()]) + "\n")
        return {"--config": path, "--data": tmp_path / "unread"}
    return spoil


def _cut_trial(rows):
    """A copy of the dataset whose first trial file keeps `rows` data rows,
    cut at a line boundary."""
    def spoil(trained, dataset, config, tmp_path):
        copy = tmp_path / "cut"
        shutil.copytree(dataset, copy)
        victim = copy / synthdata.load_manifest(copy).entries[0].trial_file
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[: rows + 1]))
        return {"--data": copy}
    return spoil


def _dataset_file(edit):
    """A copy of the dataset after edit(copy, its first trial file)."""
    def spoil(trained, dataset, config, tmp_path):
        copy = tmp_path / "spoilt"
        shutil.copytree(dataset, copy)
        edit(copy, copy / synthdata.load_manifest(copy).entries[0].trial_file)
        return {"--data": copy}
    return spoil


def _replace_by_directory(copy, trial):
    trial.unlink()
    trial.mkdir()


def _insert_0xff(path):
    """Put a byte that is not UTF-8 after the first comma of the file at `path`."""
    path.write_bytes(path.read_bytes().replace(b",", b",\xff", 1))


def _non_utf8(option, name):
    """`option` names a file, otherwise valid, holding a byte that is not UTF-8."""
    def spoil(trained, dataset, config, tmp_path):
        path = tmp_path / name
        text = ("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n" if option == "--grid"
                else "\n".join(config.to_lines()) + "\n")
        path.write_bytes(text.replace("\n", "\n# \xff\n", 1).encode("latin-1"))
        return {option: path, "--data": tmp_path / "unread"}
    return spoil


def _one_split(split):
    """A dataset of the manifest alone, every trial recorded in `split`: no
    trial file exists, so a command that reads one fails on it instead."""
    def spoil(trained, dataset, config, tmp_path):
        copy = tmp_path / "one_split"
        copy.mkdir()
        manifest = synthdata.load_manifest(dataset)
        for entry in manifest.entries:
            entry.split = split
        synthdata.write_manifest(copy / "manifest.csv", manifest)
        return {"--data": copy}
    return spoil


def _one_train_trial(trained, dataset, config, tmp_path):
    """A dataset of the manifest alone, its first trial in the train split and
    every other in the test split: no trial file exists, so a command that
    reads one fails on it instead."""
    copy = tmp_path / "one_train"
    copy.mkdir()
    manifest = synthdata.load_manifest(dataset)
    for i, entry in enumerate(manifest.entries):
        entry.split = "test" if i else "train"
    synthdata.write_manifest(copy / "manifest.csv", manifest)
    return {"--data": copy}


def _out_below_file(*parts, data=True):
    """`--out` at `parts` below a regular file, or the file itself; with `data`,
    over a dataset that does not exist: exit 2 rather than 3 shows that the
    path is checked before any trial file is read."""
    def spoil(trained, dataset, config, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        args = {"--out": blocker.joinpath(*parts)}
        if data:
            args["--data"] = tmp_path / "unread"
        return args
    return spoil


class TestBadInputs:
    """Bad checkpoints, config values, trial files and output paths, one row
    each: the
    command, how its input is spoiled, the exit code and what the message
    must name."""

    @pytest.mark.parametrize("command, spoil, code, named", [
        ("eval", lambda *a: {"--model": a[3] / "absent.ckpt"}, cli.EXIT_MISMATCH,
         ["absent.ckpt"]),
        ("eval", _spec_line("conv2d filters=4", "conv3d filters=4"), cli.EXIT_MISMATCH,
         ["bad.ckpt", "conv3d filters=4"]),
        ("eval", _spec_line("conv2d filters=4", "conv2d filtrs=4"), cli.EXIT_MISMATCH,
         ["bad.ckpt", "conv2d filtrs=4"]),
        ("eval", _scaler(lambda p: None), cli.EXIT_MISMATCH,
         ["bad.ckpt", "extra.scaler_params"]),
        ("eval", _scaler(lambda p: p[:35]), cli.EXIT_MISMATCH,
         ["bad.ckpt", "extra.scaler_params", "(35, 2)"]),
        ("train", _config(filter_order=0), cli.EXIT_CONFIG, ["filter_order"]),
        ("train", _config(filter_low_hz=13.0), cli.EXIT_CONFIG, ["filter_low_hz"]),
        ("train", _config(target_frames=0), cli.EXIT_CONFIG, ["target_frames"]),
        ("train", _config(image_width=11), cli.EXIT_CONFIG, ["image_width"]),
        ("train", _config(target_frames=4, image_width=16), cli.EXIT_CONFIG,
         ["target_frames", "image_width", "(3, 16, 3)"]),
        ("train", _cut_trial(9), cli.EXIT_DATA, ["trial_0_1_0.csv", "frame_count", "9 data rows"]),
        ("eval", _header(b"version 1", b"version"), cli.EXIT_MISMATCH, ["bad.ckpt:2:", "version"]),
        ("eval", _header(b"config 19", b"config x"), cli.EXIT_MISMATCH, ["bad.ckpt:3:", "config x"]),
        ("eval", _header(b"dtype float32", b"dtype float36"), cli.EXIT_MISMATCH,
         ["bad.ckpt:", "float36"]),
        ("eval", _header(b"input_shape 45 16 3", b"input_shape 45 16 \xff"), cli.EXIT_MISMATCH,
         ["bad.ckpt:", "input_shape"]),
        ("eval", _header(b"tensor layer00.w 4 3 3 3 4", b"tensor layer00.w 4 3 3 3"),
         cli.EXIT_MISMATCH, ["bad.ckpt:", "layer00.w"]),
        ("eval", _first_weight(1e300), cli.EXIT_MISMATCH, ["bad.ckpt", "layer00.w", "float32"]),
        ("eval", _first_weight(float("nan")), cli.EXIT_MISMATCH, ["bad.ckpt", "layer00.w"]),
        ("eval", _header(b"conv_filters = 4,8,8", b"#onv_filters = 4,8,8"), cli.EXIT_MISMATCH,
         ["bad.ckpt:", "conv2d filters=4", "conv2d filters=32"]),
        ("eval", _header(b"dense_units = 16", b"dense_units = 17"), cli.EXIT_MISMATCH,
         ["bad.ckpt:", "dense units=16 activation=relu", "dense units=17 activation=relu"]),
        ("eval", _spec_line("dropout rate=0.25", "dropout rate=0.35"), cli.EXIT_MISMATCH,
         ["bad.ckpt:", "dropout rate=0.35", "dropout rate=0.25"]),
        ("eval", _config(dense_units=17), cli.EXIT_MISMATCH,
         ["bad.txt", "dense units=17 activation=relu", "dense units=16 activation=relu"]),
        ("eval", _config(dtype="float64"), cli.EXIT_MISMATCH,
         ["bad.txt", "dtype float64", "dtype float32"]),
        ("train", _config(batch_size=0), cli.EXIT_CONFIG, ["bad.txt", "batch_size"]),
        ("train", _config(learning_rate="nan"), cli.EXIT_CONFIG, ["bad.txt", "learning_rate"]),
        ("train", _config(filter_low_hz="nan"), cli.EXIT_CONFIG, ["bad.txt", "filter_low_hz"]),
        ("train", _config(dense_units=-1), cli.EXIT_CONFIG, ["bad.txt", "dense_units"]),
        ("train", _config(conv_filters="-1,8,8"), cli.EXIT_CONFIG, ["bad.txt", "conv_filters"]),
        ("train", _config(l2_lambda="inf"), cli.EXIT_CONFIG, ["bad.txt", "l2_lambda"]),
        ("train", _config(min_delta="nan"), cli.EXIT_CONFIG, ["bad.txt", "min_delta"]),
        ("train", _config(seed=-1), cli.EXIT_CONFIG, ["bad.txt", "seed"]),
        ("train", _one_split("train"), cli.EXIT_DATA, ["one_split", "no test-split trials"]),
        ("train", _one_split("test"), cli.EXIT_DATA, ["one_split", "no train-split trials"]),
        ("tune", _one_split("train"), cli.EXIT_DATA, ["one_split", "no test-split trials"]),
        ("tune", _one_split("test"), cli.EXIT_DATA, ["one_split", "no train-split trials"]),
        ("train", _dataset_file(_replace_by_directory), cli.EXIT_DATA,
         ["cannot read", "trial_0_1_0.csv"]),
        ("train", _dataset_file(lambda copy, trial: _insert_0xff(trial)), cli.EXIT_DATA,
         ["cannot read", "trial_0_1_0.csv", "utf-8"]),
        ("train", _dataset_file(lambda copy, trial: _insert_0xff(copy / "manifest.csv")),
         cli.EXIT_DATA, ["cannot read", "manifest.csv", "utf-8"]),
        ("train", _non_utf8("--config", "bad.txt"), cli.EXIT_CONFIG, ["bad.txt", "utf-8"]),
        ("tune", _non_utf8("--grid", "bad_grid.txt"), cli.EXIT_CONFIG, ["bad_grid.txt", "utf-8"]),
        ("train", _config(batch_size=1), cli.EXIT_CONFIG,
         ["bad.txt", "batch_size = 1", "model_preset = vgg_b_avg"]),
        ("train", _one_train_trial, cli.EXIT_DATA, ["one_train", "one train-split trial"]),
        ("tune", _one_train_trial, cli.EXIT_DATA, ["one_train", "one train-split trial"]),
        ("synth", _out_below_file(data=False), cli.EXIT_CONFIG, ["blocker", "is not a directory"]),
        ("train", _out_below_file("m.ckpt"), cli.EXIT_CONFIG, ["blocker/m.ckpt"]),
        ("train", lambda *a: {"--out": a[3], "--data": a[3] / "unread"}, cli.EXIT_CONFIG,
         ["is a directory"]),
        ("tune", _out_below_file("t.csv"), cli.EXIT_CONFIG, ["blocker/t.csv"]),
        ("eval", _out_below_file("e.csv"), cli.EXIT_CONFIG, ["blocker/e.csv"]),
        ("saliency", _out_below_file(), cli.EXIT_CONFIG, ["blocker", "is not a directory"]),
    ], ids=["missing-checkpoint", "unknown-layer", "misspelt-layer-key", "no-scaler",
            "scaler-35x2", "filter-order", "band-edges", "target-frames", "image-width",
            "pools", "cut-trial", "bare-version", "config-count", "dtype", "non-utf8-header",
            "tensor-dims", "weight-past-float32", "nan-weight", "config-comment-flip",
            "config-dense-units", "spec-dropout-rate", "eval-override-model",
            "eval-override-dtype", "batch-size", "learning-rate-nan", "filter-low-nan",
            "dense-units", "conv-filters", "l2-inf", "min-delta-nan", "seed",
            "train-all-train", "train-all-test", "tune-all-train", "tune-all-test",
            "trial-is-directory", "non-utf8-trial", "non-utf8-manifest", "non-utf8-config",
            "non-utf8-grid", "batch-size-1-batchnorm", "train-one-train-trial",
            "tune-one-train-trial", "synth-out-is-file", "train-out-below-file",
            "train-out-is-directory", "tune-out-below-file", "eval-out-below-file",
            "saliency-out-is-file"])
    def test_exit_code_names_the_input(self, trained, tiny_dataset_dir, tiny_config,
                                       tiny_config_file, tmp_path, capsys,
                                       command, spoil, code, named):
        grid = tmp_path / "grid.txt"
        grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n")
        args = {"eval": {"--model": trained, "--data": tiny_dataset_dir},
                "train": {"--data": tiny_dataset_dir, "--config": tiny_config_file,
                          "--out": tmp_path / "out" / "m.ckpt"},
                "tune": {"--data": tiny_dataset_dir, "--grid": grid,
                         "--config": tiny_config_file, "--out": tmp_path / "out" / "t.csv"},
                "synth": {"--out": tmp_path / "data", "--profile": "desk"},
                "saliency": {"--model": trained, "--data": tiny_dataset_dir, "--class": "high",
                             "--out": tmp_path / "maps"},
                }[command]
        args.update(spoil(trained, tiny_dataset_dir, tiny_config, tmp_path))
        argv = [command] + [str(v) for pair in args.items() for v in pair]
        try:
            rc = run(argv)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped cli.main: {exc}")
        err = capsys.readouterr().err
        assert rc == code, err
        for name in named:
            assert name in err


@pytest.fixture(scope="module")
def saved_checkpoint(trained_run, tmp_path_factory):
    """The bytes of a checkpoint `train` wrote, and a directory to spoil it in."""
    return (trained_run / "model.ckpt").read_bytes(), tmp_path_factory.mktemp("spoiled")


class TestCorruptCheckpoint:
    @given(data=st.data())
    def test_bit_flip_or_cut_loads_or_names_the_file(self, saved_checkpoint, data):
        blob, out = saved_checkpoint
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            spoiled = bytearray(blob)
            spoiled[bit // 8] ^= 1 << bit % 8
        else:
            spoiled = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        path = out / "spoiled.ckpt"
        path.write_bytes(bytes(spoiled))
        try:
            pipeline.load_trained(path)
        except (CheckpointMismatchError, ConfigError) as exc:
            assert str(path) in str(exc)


class TestInputImmutability:
    def test_train_does_not_mutate_dataset_dir(self, tiny_dataset_dir, tiny_config_file,
                                               tmp_path):
        def snapshot(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        before = snapshot(tiny_dataset_dir)
        run(["train", "--data", str(tiny_dataset_dir), "--config",
             str(tiny_config_file), "--out", str(tmp_path / "m.ckpt")])
        run(["eval", "--model", str(tmp_path / "m.ckpt"),
             "--data", str(tiny_dataset_dir)])
        assert snapshot(tiny_dataset_dir) == before


class TestSaliencyCmd:
    def test_outputs(self, tiny_dataset_dir, tiny_config_file, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        run(["train", "--data", str(tiny_dataset_dir), "--config",
             str(tiny_config_file), "--out", str(ckpt)])
        out = tmp_path / "sal"
        rc = run(["saliency", "--model", str(ckpt), "--data", str(tiny_dataset_dir),
                  "--class", "high", "--out", str(out)])
        assert rc == 0
        per_image = list(out.glob("saliency_high_img*.pgm"))
        assert len(per_image) >= 1
        assert (out / "saliency_high_mean.pgm").exists()
        attr = (out / "attribution_high.csv").read_text().splitlines()
        assert "sensor,total,rank" in attr

    def test_class_without_test_images_exit_3(self, trained, tiny_dataset_dir, tmp_path,
                                              capsys, monkeypatch):
        def unread(path, entry):
            raise AssertionError(f"{path} was read")

        # the tiny dataset's test split holds only medium and high trials,
        # which is known before any trial file is read
        monkeypatch.setattr(synthdata, "_load_trial", unread)
        rc = run(["saliency", "--model", str(trained), "--data", str(tiny_dataset_dir),
                  "--class", "low", "--out", str(tmp_path / "sal")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "'low'" in err and str(tiny_dataset_dir) in err and "Traceback" not in err

    @pytest.mark.parametrize("class_name", ["medium", "high"])
    def test_class_alone_equals_whole_test_split(self, trained, tiny_dataset_dir, tmp_path,
                                                 class_name):
        """saliency reads only its class's trials; its files are those of
        saliency_for_class over a prepare of the whole test split."""
        out = tmp_path / "sal"
        assert run(["saliency", "--model", str(trained), "--data", str(tiny_dataset_dir),
                    "--class", class_name, "--out", str(out)]) == 0

        model, config, scaler = pipeline.load_trained(trained)
        data, positions = pipeline.prepare_test_split(tiny_dataset_dir, config, scaler)
        whole = pipeline.saliency_for_class(model, data, class_name)
        ref = tmp_path / "ref"
        saliency.export_saliency(whole.mean_magnitude, ref / f"saliency_{class_name}_mean.pgm")
        for i, smap in zip(whole.image_indices, whole.per_image):
            saliency.export_saliency(smap.magnitude,
                                     ref / f"saliency_{class_name}_img{positions[i]:04d}.pgm")
        saliency.write_attribution_csv(ref / f"attribution_{class_name}.csv", whole.attribution,
                                       cli._comment_header(config))

        def files(root):
            return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

        assert len(files(ref)) == len(whole.per_image) + 2
        assert files(out) == files(ref)


class TestManifestRows:
    @pytest.mark.parametrize("field, value, message", [
        (0, None, "is repeated"),        # line 2's trial_file again
        (2, "13", "zone 13 is outside 1-12"),
        (5, "dev", "split 'dev' is not one of"),
        (0, '"a\rb.csv"', "cannot be read back"),   # quoted, so the csv reader keeps it
        (0, '"a\nb.csv"', "cannot be read back"),
    ], ids=["repeated-trial-file", "zone", "split", "trial-file-cr", "trial-file-lf"])
    def test_bad_row_exit_3(self, tiny_dataset_dir, tiny_config_file, tmp_path, capsys,
                            field, value, message):
        data = tmp_path / "data"
        data.mkdir()
        lines = (tiny_dataset_dir / "manifest.csv").read_text().splitlines()
        assert lines[0].startswith("trial_file,")
        row = lines[2].split(",")
        row[field] = lines[1].split(",")[0] if value is None else value
        lines[2] = ",".join(row)
        (data / "manifest.csv").write_text("\n".join(lines) + "\n")
        rc = run(["train", "--data", str(data), "--config", str(tiny_config_file),
                  "--out", str(tmp_path / "model.ckpt")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "manifest.csv:3:" in err and message in err and "Traceback" not in err


class TestReadsTestSplitOnly:
    """eval and saliency read the manifest and the test split's trial files only."""

    @staticmethod
    def copy_without(dataset, config, tmp_path, split):
        """A copy of the dataset with every trial file of `split` (as split
        under `config`) deleted; returns the copy and the deleted files."""
        copy = tmp_path / f"no_{split}"
        shutil.copytree(dataset, copy)
        manifest = pipeline.assign_split(synthdata.load_manifest(copy), config)
        gone = [copy / e.trial_file for e in manifest.entries if e.split == split]
        for path in gone:
            path.unlink()
        return copy, gone

    @staticmethod
    def outputs(trained, dataset, out):
        """Bytes of eval's metrics CSV and of every saliency output file."""
        assert run(["eval", "--model", str(trained), "--data", str(dataset),
                    "--out", str(out / "eval.csv")]) == 0
        assert run(["saliency", "--model", str(trained), "--data", str(dataset),
                    "--class", "high", "--out", str(out / "sal")]) == 0
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()}

    def test_train_split_files_unread(self, trained, tiny_dataset_dir, tiny_config, tmp_path):
        pruned, gone = self.copy_without(tiny_dataset_dir, tiny_config, tmp_path, "train")
        assert gone
        full = self.outputs(trained, tiny_dataset_dir, tmp_path / "full")
        assert any(p.suffix == ".pgm" and "img" in p.name for p in full)
        assert self.outputs(trained, pruned, tmp_path / "pruned") == full

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    def test_missing_test_split_file_exit_3(self, trained, tiny_dataset_dir, tiny_config,
                                            tmp_path, capsys, command):
        pruned, gone = self.copy_without(tiny_dataset_dir, tiny_config, tmp_path, "test")
        extra = ["--class", "high", "--out", str(tmp_path / "sal")] if command == "saliency" else []
        argv = [command, "--model", str(trained), "--data", str(pruned), *extra]
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert gone[0].name in err and "Traceback" not in err

    @pytest.mark.parametrize("first, rest, message", [
        ("train", "train", "no test-split trials"),
        ("test", "unassigned", "partially assigned")], ids=["all-train", "partly-assigned"])
    def test_unusable_split_exit_3(self, trained, tiny_dataset_dir, tmp_path, capsys,
                                   first, rest, message):
        data = tmp_path / "resplit"
        shutil.copytree(tiny_dataset_dir, data)
        manifest = synthdata.load_manifest(data)
        for i, entry in enumerate(manifest.entries):
            entry.split = rest if i else first
        synthdata.write_manifest(data / "manifest.csv", manifest)
        assert run(["eval", "--model", str(trained), "--data", str(data)]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err


class TestTune:
    def test_one_cell_grid(self, tiny_dataset_dir, tiny_config_file, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n")
        out = tmp_path / "tune.csv"
        rc = run(["tune", "--data", str(tiny_dataset_dir), "--grid", str(grid),
                  "--config", str(tiny_config_file), "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 2  # header + one data row
        assert (tmp_path / "tune_cell000_history.csv").exists()

    def test_cell_values_reach_the_model(self, tiny_dataset_dir, tiny_config_file, tmp_path,
                                         monkeypatch):
        from liftrisk import pipeline

        specs = []
        build_model = pipeline.build_model

        def recording_build_model(config, input_shape):
            model = build_model(config, input_shape)
            specs.append(model.spec_lines())
            return model

        monkeypatch.setattr(pipeline, "build_model", recording_build_model)
        grid = tmp_path / "grid.txt"
        grid.write_text("lambdas = 1e-3,1e-7\nalphas = 1e-3\ndropouts = 0.4\n")
        rc = run(["tune", "--data", str(tiny_dataset_dir), "--grid", str(grid),
                  "--config", str(tiny_config_file), "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        assert len(specs) == 2
        for spec, l2 in zip(specs, ["0.001", "1e-07"]):
            assert spec[-1] == f"softmax classes=3 l2_lambda={l2}"
            dropouts = [line for line in spec if line.startswith("dropout")]
            assert dropouts and all(line == "dropout rate=0.4" for line in dropouts)

    def test_bad_grid_value_exit_2(self, tmp_path, tiny_config_file, capsys):
        # checked before the (here missing) dataset is read
        grid = tmp_path / "grid.txt"
        grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.0,1.0\n")
        rc = run(["tune", "--data", str(tmp_path / "nope"), "--grid", str(grid),
                  "--config", str(tiny_config_file), "--out", str(tmp_path / "t.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "dropout_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("lambdas = inf", "l2_lambda"),
                                           ("alphas = nan", "learning_rate")])
    def test_non_finite_grid_value_names_the_grid_file(self, tmp_path, tiny_config_file,
                                                       capsys, line, key):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.0\n{line}\n")
        rc = run(["tune", "--data", str(tmp_path / "nope"), "--grid", str(grid),
                  "--config", str(tiny_config_file), "--out", str(tmp_path / "t.csv")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "grid.txt" in err and key in err

    def test_unknown_grid_key_exit_2(self, tiny_dataset_dir, tiny_config_file,
                                     tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("gamma = 1\n")
        rc = run(["tune", "--data", str(tiny_dataset_dir), "--grid", str(grid),
                  "--config", str(tiny_config_file), "--out", str(tmp_path / "t.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err


def test_only_synth_starts_a_process(tiny_dataset_dir, tiny_config_file, tmp_path,
                                     monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    grid = tmp_path / "grid.txt"
    grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n")
    data, ckpt = str(tiny_dataset_dir), str(tmp_path / "m.ckpt")
    for args in (["train", "--data", data, "--config", str(tiny_config_file), "--out", ckpt],
                 ["eval", "--model", ckpt, "--data", data],
                 ["saliency", "--model", ckpt, "--data", data, "--class", "high",
                  "--out", str(tmp_path / "sal")],
                 ["tune", "--data", data, "--grid", str(grid), "--config",
                  str(tiny_config_file), "--out", str(tmp_path / "tune.csv")]):
        assert run(args) == 0, args


class TestConfigParsing:
    def test_roundtrip(self, tiny_config):
        parsed = parse_config_lines(tiny_config.to_lines())
        assert parsed == tiny_config

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_lines(["bogus = 3"])

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_lines(["# comment", "", "seed = 5  # trailing"])
        assert cfg.seed == 5

    def test_bad_value_reported_with_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config_lines(["seed = 1", "batch_size = big"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_lines(["seed 5"])

    def test_invalid_choice_rejected(self):
        with pytest.raises(ConfigError, match="scaler_mode"):
            parse_config_lines(["scaler_mode = robust"])

    @pytest.mark.parametrize("key, value", [("learning_rate", "0.0"), ("patience", "0"),
                                            ("batch_size", "0"), ("max_epochs", "0"),
                                            ("l2_lambda", "-1e-3"), ("dropout_rate", "1.0"),
                                            ("filter_order", "0"), ("filter_low_hz", "13.0"),
                                            ("target_frames", "0"), ("image_width", "11"),
                                            ("learning_rate", "inf"), ("min_delta", "-0.5"),
                                            ("min_delta", "inf"), ("seed", "-1")])
    def test_training_bound_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_lines([f"{key} = {value}"])

    @pytest.mark.parametrize("key, value", [("dense_units", "0"), ("conv_filters", "8,-1,8"),
                                            ("conv_filters", "8,8"), ("l2_lambda", "nan"),
                                            ("dropout_rate", "nan")])
    def test_bad_layer_value_names_key_and_source(self, key, value):
        with pytest.raises(ConfigError, match=key) as err:
            parse_config_lines([f"{key} = {value}"], source="p.txt")
        assert str(err.value).startswith("p.txt: ") and "pools" not in str(err.value)

    @given(st.lists(st.one_of(
        st.builds("{} = {}".format,
                  st.one_of(st.sampled_from([f.name for f in fields(PipelineConfig)]), st.text()),
                  st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "-0.0",
                                             "4,8,8", "0,8,8", "-1,8,8", "8,8", "mlp", "minmax",
                                             "float32", "9" * 40]),
                            st.integers().map(str), st.floats().map(repr), st.text())),
        st.text()), max_size=6))
    def test_any_text_parses_or_names_its_source(self, lines):
        try:
            parse_config_lines(lines, source="p.txt")
        except ConfigError as exc:
            assert "p.txt" in str(exc)
