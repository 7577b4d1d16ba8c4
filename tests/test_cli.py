"""CLI commands end to end at tiny scale: outputs, determinism, exit codes."""

import shutil
import warnings

import numpy as np
import pytest

from liftrisk import cli, pipeline, synthdata
from liftrisk.config import load_config, parse_config_lines
from liftrisk.errors import ConfigError


def run(args):
    return cli.main(args)


@pytest.fixture()
def trained(tiny_dataset_dir, tiny_config_file, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    assert run(["train", "--data", str(tiny_dataset_dir), "--config",
                str(tiny_config_file), "--out", str(ckpt)]) == 0
    return ckpt


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

    def test_bad_training_bound_exit_2(self, tiny_dataset_dir, tmp_path, capsys):
        from tests.conftest import TINY_CONFIG

        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(TINY_CONFIG.to_lines()).replace("batch_size = 8",
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

    def test_absurd_learning_rate_diverges_exit_4(self, tiny_dataset_dir, tmp_path, capsys):
        # float32 overflows to inf under a 1e30 learning rate; the loop must
        # abort with the diverged exit code, not loop on NaN
        from dataclasses import replace
        from tests.conftest import TINY_CONFIG

        cfg = replace(TINY_CONFIG, learning_rate=1e30, max_epochs=3)
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

    def test_width_mismatch_exit_5(self, trained, tiny_dataset_dir, tmp_path, capsys):
        from tests.conftest import TINY_CONFIG
        from dataclasses import replace
        # the checkpoint holds (45, 16, 3): 12 * 60 frames wrapped at width 16
        for override, shape in [({"image_width": 20}, (36, 20, 3)),
                                ({"target_frames": 80}, (60, 16, 3))]:
            path = tmp_path / "override.txt"
            path.write_text("\n".join(replace(TINY_CONFIG, **override).to_lines()) + "\n")
            rc = run(["eval", "--model", str(trained), "--data", str(tiny_dataset_dir),
                      "--config", str(path)])
            assert rc == cli.EXIT_MISMATCH
            err = capsys.readouterr().err
            assert str((45, 16, 3)) in err and str(shape) in err

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

    def test_missing_checkpoint_is_error(self, tiny_dataset_dir, tmp_path):
        with pytest.raises(FileNotFoundError):
            run(["eval", "--model", str(tmp_path / "none.ckpt"),
                 "--data", str(tiny_dataset_dir)])


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


class TestReadsTestSplitOnly:
    """eval and saliency read the manifest and the test split's trial files only."""

    @staticmethod
    def copy_without(dataset, tmp_path, split):
        """A copy of the dataset with every trial file of `split` deleted;
        returns the copy and the deleted files."""
        from tests.conftest import TINY_CONFIG

        copy = tmp_path / f"no_{split}"
        shutil.copytree(dataset, copy)
        manifest = pipeline.assign_split(synthdata.load_manifest(copy), TINY_CONFIG)
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

    def test_train_split_files_unread(self, trained, tiny_dataset_dir, tmp_path):
        pruned, gone = self.copy_without(tiny_dataset_dir, tmp_path, "train")
        assert gone
        full = self.outputs(trained, tiny_dataset_dir, tmp_path / "full")
        assert any(p.suffix == ".pgm" and "img" in p.name for p in full)
        assert self.outputs(trained, pruned, tmp_path / "pruned") == full

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    def test_missing_test_split_file_exit_3(self, trained, tiny_dataset_dir, tmp_path,
                                            capsys, command):
        pruned, gone = self.copy_without(tiny_dataset_dir, tmp_path, "test")
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
        pipeline.write_manifest_csv(data / "manifest.csv", manifest)
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

    def test_unknown_grid_key_exit_2(self, tiny_dataset_dir, tiny_config_file,
                                     tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("gamma = 1\n")
        rc = run(["tune", "--data", str(tiny_dataset_dir), "--grid", str(grid),
                  "--config", str(tiny_config_file), "--out", str(tmp_path / "t.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err


class TestConfigParsing:
    def test_roundtrip(self):
        from tests.conftest import TINY_CONFIG
        parsed = parse_config_lines(TINY_CONFIG.to_lines())
        assert parsed == TINY_CONFIG

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
                                            ("l2_lambda", "-1e-3"), ("dropout_rate", "1.0")])
    def test_training_bound_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_lines([f"{key} = {value}"])
