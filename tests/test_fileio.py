"""The one writer: whole files or none, open()'s permission bits, no temp
files left behind, and manifests whose quoted fields read back."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from liftrisk import cli, fileio, synthdata, trainer, workers
from liftrisk.errors import OutputPathError
from liftrisk.synthdata import Manifest, ManifestEntry, load_manifest


def _raising_rows():
    yield "1,0.5,0.5"
    raise RuntimeError("rows failed")


def _rows_raise(path, monkeypatch):
    history = trainer.TrainHistory(losses=_raising_rows(), accuracies=[0.5, 0.5])
    trainer.write_history_csv(path, history)


def _write_raises(path, monkeypatch):
    fileio.write_file(path, 12345)  # neither str nor bytes: the write itself fails


def _replace_raises(path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(os, "replace", refuse)
    fileio.write_file(path, "new contents\n")


class TestWholeOrNone:
    @pytest.mark.parametrize("fail, error", [(_rows_raise, RuntimeError),
                                             (_write_raises, TypeError),
                                             (_replace_raises, OutputPathError)],
                             ids=["rows", "write", "replace"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, fail, error):
        path = tmp_path / "out.csv"
        fileio.write_file(path, "old contents\n")
        before = path.read_bytes()
        with pytest.raises(error):
            fail(path, monkeypatch)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.bin"
        fileio.write_file(path, b"a much longer first version\n")
        fileio.write_file(path, b"short\n")
        assert path.read_bytes() == b"short\n"

    def test_lines_text(self):
        assert fileio.lines_text(["a,b", "1,2"], ["seed = 1"]) == "# seed = 1\na,b\n1,2\n"
        assert fileio.lines_text(["a"], end="\r\n") == "a\r\n"


@pytest.fixture()
def umask_027():
    old = os.umask(0o027)
    yield 0o666 & ~0o027
    os.umask(old)


class TestCommandOutputs:
    def test_modes_follow_umask_and_no_temp_file_is_left(self, tiny_dataset_dir,
                                                         tiny_config_file, tmp_path,
                                                         monkeypatch, umask_027):
        tiny = synthdata.DatasetProfile(n_subjects=1, trials_per_zone_per_subject=1,
                                        duration_low_s=2.0, duration_high_s=3.0)
        monkeypatch.setattr(synthdata, "desk_profile", lambda seed: tiny)
        data, run = tmp_path / "data", tmp_path / "run"
        grid = tmp_path / "grid.txt"
        grid.write_text("lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.25\n")
        ckpt = run / "model.ckpt"
        for argv in (["synth", "--profile", "desk", "--out", data],
                     ["train", "--data", tiny_dataset_dir, "--config", tiny_config_file,
                      "--out", ckpt],
                     ["eval", "--model", ckpt, "--data", tiny_dataset_dir,
                      "--out", run / "eval.csv"],
                     ["saliency", "--model", ckpt, "--data", tiny_dataset_dir,
                      "--class", "high", "--out", run / "sal"],
                     ["tune", "--data", tiny_dataset_dir, "--grid", grid,
                      "--config", tiny_config_file, "--out", run / "tune.csv"]):
            assert cli.main([str(a) for a in argv]) == 0
        written = [p for p in (*data.rglob("*"), *run.rglob("*")) if p.is_file()]
        assert len(written) > 12 + 2 + 4 + 1 + 3
        assert not [p for p in written if p.name.startswith(".") or p.suffix == ".tmp"]
        assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {umask_027}


# runs cli.main(argv[2:]) under a file-size limit of argv[1] bytes, set in
# that process alone; with SIGXFSZ ignored, a write past it fails with EFBIG
FSIZE_LIMITED = """
import resource, signal, sys
from liftrisk import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[2:]))
"""


class TestFailedWrites:
    """An OSError while writing an output is an OutputPathError (exit 2)
    naming the path and the system's reason, with no temporary file left."""

    def test_comes_back_from_a_worker_with_its_type_and_message(self, tmp_path):
        # each worker's mkdir fails below a regular file
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        paths = [tmp_path / "blocker" / "sub" / f"{i}.csv" for i in range(3)]
        with pytest.raises(OutputPathError) as exc:
            workers.map_in_workers(lambda i: fileio.write_file(paths[i], "x\n"), 3, 1)
        assert type(exc.value) is OutputPathError
        assert str(exc.value) == f"cannot write output {paths[0]}: Not a directory"
        assert isinstance(exc.value.__cause__, NotADirectoryError)

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_file_size_limit_exit_2(self, tiny_dataset_dir, tiny_config_file, tmp_path, command):
        # a desk trial file passes 100 kB, and the tiny checkpoint 1 kB
        out = tmp_path / "out"
        limit, argv = {"synth": (100 << 10, ["synth", "--profile", "desk", "--out", out / "data"]),
                       "train": (1 << 10, ["train", "--data", tiny_dataset_dir, "--config",
                                           tiny_config_file, "--out", out / "model.ckpt"])}[command]
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-c", FSIZE_LIMITED, str(limit), *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        assert "Traceback" not in done.stderr
        assert "cannot write output" in done.stderr and "File too large" in done.stderr
        assert str(out) in done.stderr
        if command == "synth":
            assert (f"the dataset under {out / 'data'} is incomplete "
                    f"(rerun with --force to overwrite it)") in done.stderr
        assert not [p for p in out.rglob("*") if p.suffix == ".tmp"]


class TestManifestQuoting:
    ENTRIES = [ManifestEntry("trials/a,b.csv", 0, 1, 0, 5, "train"),
               ManifestEntry('trials/say "hi".csv', 1, 5, 0, 6, "test")]

    @pytest.mark.parametrize("end, comments", [("\r\n", ()), ("\n", ["seed = 1"])])
    def test_quoted_trial_file_round_trips(self, tmp_path, end, comments):
        synthdata.write_manifest(tmp_path / "manifest.csv", Manifest(self.ENTRIES), comments,
                                 end=end)
        assert load_manifest(tmp_path).entries == self.ENTRIES

    def test_dataset_and_model_manifests_round_trip(self, tiny_dataset_dir, tiny_config_file,
                                                    tmp_path):
        data = tmp_path / "data"
        trials, manifest = synthdata.load_dataset(tiny_dataset_dir)
        manifest.entries[0].trial_file = "trials/first,trial.csv"
        synthdata.save_dataset(data, trials, manifest)
        assert load_manifest(data).entries == manifest.entries

        ckpt = tmp_path / "run" / "model.ckpt"
        assert cli.main(["train", "--data", str(data), "--config", str(tiny_config_file),
                         "--out", str(ckpt)]) == 0
        (tmp_path / "run" / "model_manifest.csv").rename(tmp_path / "run" / "manifest.csv")
        reread = load_manifest(tmp_path / "run").entries
        assert [e.trial_file for e in reread] == [e.trial_file for e in manifest.entries]
        assert {e.split for e in reread} == {"train", "test"}

