"""Generator determinism, class structure, split behavior, and the CSV
dataset round trip with its error reporting."""

import csv
import hashlib
import io
import multiprocessing
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liftrisk import signals, synthdata, workers
from liftrisk.errors import (ChannelCountMismatchError, DataError, MalformedRowError,
                             MissingTrialFileError)
from liftrisk.synthdata import (DatasetProfile, Manifest, ManifestEntry,
                                generate_dataset, load_dataset, save_dataset,
                                split_dataset, zone_to_risk)

SMALL = DatasetProfile(n_subjects=2, trials_per_zone_per_subject=1,
                       duration_low_s=2.0, duration_high_s=3.0, seed=5)
# 48 trials: three tasks of worker processes
MULTI_TASK = DatasetProfile(n_subjects=4, trials_per_zone_per_subject=1,
                            duration_low_s=2.0, duration_high_s=3.0, seed=5)


class TestZoneToRisk:
    @pytest.mark.parametrize("zone,expected", [
        (4, "low"), (5, "low"),
        (6, "medium"), (7, "medium"), (8, "medium"), (9, "medium"),
        (1, "high"), (2, "high"), (3, "high"), (10, "high"), (11, "high"), (12, "high"),
    ])
    def test_mapping(self, zone, expected):
        assert zone_to_risk(zone) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            zone_to_risk(0)
        with pytest.raises(ValueError):
            zone_to_risk(13)

    def test_class_indices(self):
        assert synthdata.RISK_CLASSES.index(zone_to_risk(5)) == 0
        assert synthdata.RISK_CLASSES.index(zone_to_risk(7)) == 1
        assert synthdata.RISK_CLASSES.index(zone_to_risk(11)) == 2


class TestGenerate:
    def test_default_profile_counts(self):
        profile = DatasetProfile(seed=42)
        trials, manifest = generate_dataset(profile)
        assert len(trials) == 720
        counts = {"low": 0, "medium": 0, "high": 0}
        for e in manifest.entries:
            counts[zone_to_risk(e.zone)] += 1
        assert counts == {"low": 120, "medium": 240, "high": 360}
        assert profile.class_counts() == counts

    def test_deterministic(self):
        t1, m1 = generate_dataset(DatasetProfile(seed=42, n_subjects=2,
                                                 trials_per_zone_per_subject=1))
        t2, m2 = generate_dataset(DatasetProfile(seed=42, n_subjects=2,
                                                 trials_per_zone_per_subject=1))
        assert m1 == m2
        for a, b in zip(t1, t2):
            assert np.array_equal(a.channels, b.channels)

    def test_seed_changes_data(self):
        t1, _ = generate_dataset(SMALL)
        t2, _ = generate_dataset(DatasetProfile(**{**SMALL.__dict__, "seed": 6}))
        assert not np.array_equal(t1[0].channels, t2[0].channels)

    def test_all_finite_and_durations_in_range(self):
        trials, _ = generate_dataset(SMALL)
        for t in trials:
            assert np.all(np.isfinite(t.channels))
            assert 2.0 * 25 - 1 <= t.n_frames <= 3.0 * 25 + 1

    def test_band_energy_strictly_ordered_by_class(self):
        trials, manifest = generate_dataset(DatasetProfile(n_subjects=4, seed=42))
        f = signals.design_bandpass(2, 2, 12, 25)
        back = [3 * s + k for s in synthdata.BACK_SENSORS for k in range(3)]
        energy = {"low": [], "medium": [], "high": []}
        filtered = signals.filter_trial(trials, f, max(t.n_frames for t in trials))
        for i, (t, e) in enumerate(zip(trials, manifest.entries)):
            y = signals.TrialRecording(filtered[:t.n_frames, i].T)
            energy[zone_to_risk(e.zone)].append(float(np.mean(y.channels[back] ** 2)))
        lo, mid, hi = (np.mean(energy[c]) for c in ("low", "medium", "high"))
        # strict ordering with margin, not just strict
        assert lo * 1.5 < mid
        assert mid * 1.5 < hi

    def test_filtering_preserves_burst_energy(self):
        trials, _ = generate_dataset(SMALL)
        f = signals.design_bandpass(2, 2, 12, 25)
        for t in trials[:6]:
            before = float(np.mean(t.channels ** 2))
            y = signals.TrialRecording(signals.filter_trial([t], f, t.n_frames)[:, 0].T)
            after = float(np.mean(y.channels ** 2))
            assert after >= 0.5 * before

    def test_desk_profile_fits_pad_target(self):
        trials, _ = generate_dataset(synthdata.desk_profile(seed=1))
        assert all(t.n_frames <= 250 for t in trials)


class TestSplit:
    def test_540_180(self):
        _, manifest = generate_dataset(DatasetProfile(seed=42))
        out = split_dataset(manifest, 0.75, seed=42)
        splits = [e.split for e in out.entries]
        assert splits.count("train") == 540
        assert splits.count("test") == 180

    def test_deterministic(self):
        _, manifest = generate_dataset(SMALL)
        a = split_dataset(manifest, 0.75, seed=9)
        b = split_dataset(manifest, 0.75, seed=9)
        assert a == b

    def test_partition(self):
        _, manifest = generate_dataset(SMALL)
        out = split_dataset(manifest, 0.6, seed=1)
        train = {e.trial_file for e in out.entries if e.split == "train"}
        test = {e.trial_file for e in out.entries if e.split == "test"}
        assert train | test == {e.trial_file for e in manifest.entries}
        assert not train & test
        assert len(train) == round(len(manifest.entries) * 0.6)

    def test_rejects_bad_fraction(self):
        _, manifest = generate_dataset(SMALL)
        with pytest.raises(ValueError):
            split_dataset(manifest, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(manifest, 0.0, seed=0)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        loaded, loaded_manifest = load_dataset(tmp_path)
        assert loaded_manifest == manifest
        for a, b, ea, eb in zip(trials, loaded, manifest.entries, loaded_manifest.entries):
            assert np.max(np.abs(a.channels - b.channels)) < 1e-12
            assert (ea.subject_id, ea.zone, ea.trial_index) == (eb.subject_id, eb.zone, eb.trial_index)

    def test_roundtrip_is_exact(self, tmp_path):
        # repr round-trips doubles exactly, so the files lose nothing
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        loaded, _ = load_dataset(tmp_path)
        for a, b in zip(trials, loaded):
            assert np.array_equal(a.channels, b.channels)

    def test_missing_trial_file(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        victim = tmp_path / manifest.entries[3].trial_file
        victim.unlink()
        with pytest.raises(MissingTrialFileError, match=str(victim.name)):
            load_dataset(tmp_path)

    def test_malformed_row_names_line(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        victim = tmp_path / manifest.entries[0].trial_file
        lines = victim.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:-1])  # drop one column in row 5
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path)
        assert err.value.line == 6
        assert str(victim) in str(err.value)

    def test_rows_must_match_manifest_frame_count(self, tmp_path):
        # a file cut at a line boundary parses, but is shorter than its entry
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        victim = tmp_path / manifest.entries[2].trial_file
        victim.write_text("".join(victim.read_text().splitlines(keepends=True)[:10]))
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path)
        message = str(err.value)
        assert str(victim) in message and "9 data rows" in message
        assert f"frame_count is {manifest.entries[2].frame_count}" in message

    def test_missing_channel_column_in_header(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        victim = tmp_path / manifest.entries[0].trial_file
        lines = victim.read_text().splitlines()
        lines[0] = ",".join(lines[0].split(",")[:-1])
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChannelCountMismatchError):
            load_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(tmp_path)

    def test_unparseable_value_names_location(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        victim = tmp_path / manifest.entries[1].trial_file
        lines = victim.read_text().splitlines()
        parts = lines[2].split(",")
        parts[4] = "not-a-number"
        lines[2] = ",".join(parts)
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path)
        assert err.value.line == 3

    def test_comments_tolerated(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        mpath = tmp_path / "manifest.csv"
        mpath.write_text("# a comment\n" + mpath.read_text())
        loaded, loaded_manifest = load_dataset(tmp_path)
        assert loaded_manifest == manifest


class TestTrialFiles:
    def test_writer_bytes_match_csv_writer(self, tmp_path):
        trials, manifest = generate_dataset(MULTI_TASK)
        assert len(trials) > 2 * synthdata.TRIALS_PER_TASK
        save_dataset(tmp_path, trials, manifest)
        for trial, entry in zip(trials, manifest.entries):
            oracle = io.StringIO(newline="")
            w = csv.writer(oracle)
            w.writerow(synthdata.TRIAL_HEADER)
            for frame in range(trial.n_frames):
                w.writerow([frame] + [repr(float(v)) for v in trial.channels[:, frame]])
            assert (tmp_path / entry.trial_file).read_bytes() == oracle.getvalue().encode()


class TestTwins:
    """save_dataset writes each trial file's binary twin; a loader takes the
    values from it only while it matches the trial file, and reads the file
    row by row otherwise."""

    def test_saved_trials_load_through_their_twins(self, tmp_path, monkeypatch):
        trials, manifest = generate_dataset(MULTI_TASK)
        save_dataset(tmp_path, trials, manifest)
        parsed = []
        for trial, entry in zip(trials, manifest.entries):
            path = tmp_path / entry.trial_file
            data = path.read_bytes()
            values = trial.channels.T.astype("<f8").tobytes(order="C")
            twin = path.with_name(path.name + ".f64").read_bytes()
            assert twin == hashlib.sha256(data + values).digest() + values
            parsed.append(signals.TrialRecording(
                synthdata._parse_validated_trial(path, data.decode()).T))

        def unparsed(*args):
            raise AssertionError("a trial file was parsed")

        monkeypatch.setattr(synthdata, "_parse_validated_trial", unparsed)
        loaded, _ = load_dataset(tmp_path)
        assert len(loaded) == len(parsed)
        for got, want in zip(loaded, parsed):
            assert _same_bits(got.channels, want.channels)
            assert got.channels.strides == want.channels.strides
            assert got.channels.flags.writeable

    @pytest.mark.parametrize("fault", ["edited value", "truncated twin", "flipped digest byte",
                                       "flipped value bit", "deleted twin"])
    def test_a_twin_that_does_not_match_falls_back_to_the_parse(self, tmp_path, monkeypatch,
                                                                 fault):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        entry = manifest.entries[4]
        path = tmp_path / entry.trial_file
        twin = path.with_name(path.name + ".f64")
        if fault == "edited value":
            lines = path.read_bytes().split(b"\r\n")
            fields = lines[3].split(b",")
            fields[5] = b"1.5"
            lines[3] = b",".join(fields)
            path.write_bytes(b"\r\n".join(lines))
        elif fault == "truncated twin":
            twin.write_bytes(twin.read_bytes()[:-8])
        elif fault == "flipped digest byte":
            data = bytearray(twin.read_bytes())
            data[7] ^= 0x01
            twin.write_bytes(bytes(data))
        elif fault == "flipped value bit":
            data = bytearray(twin.read_bytes())
            data[synthdata.DIGEST_BYTES + 8] ^= 0x01   # the second value's lowest bit
            twin.write_bytes(bytes(data))
        else:
            twin.unlink()
        parse = synthdata._parse_validated_trial
        parses = []

        def counted(path, text):
            parses.append(text)
            return parse(path, text)

        monkeypatch.setattr(synthdata, "_parse_validated_trial", counted)
        got = synthdata._load_trial(path, entry).channels
        text = path.read_bytes().decode()
        assert parses == [text]
        assert _same_bits(got.T, parse(path, text))
        if fault == "edited value":
            assert got[4, 2] == 1.5 != trials[4].channels[4, 2]
        else:
            assert _same_bits(got, trials[4].channels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_twin_does_not_hide_a_non_finite_value(self, tmp_path, value):
        trials, manifest = generate_dataset(SMALL)
        trials[0].channels[7, 5] = value
        save_dataset(tmp_path, trials[:1], Manifest(entries=manifest.entries[:1]))
        victim = tmp_path / manifest.entries[0].trial_file
        with pytest.raises(MalformedRowError, match="non-finite") as err:
            load_dataset(tmp_path)
        assert err.value.line == 7   # frame 5: the header is line 1
        assert err.value.path == str(victim) and str(victim) in str(err.value)


def _spoil(path, fault):
    """Give the trial file at `path` one fault the reader reports."""
    lines = path.read_bytes().split(b"\r\n")
    if fault == "cut":
        path.write_bytes(b"\r\n".join(lines[:10]) + b"\r\n")
    elif fault == "bad value":
        lines[3] = lines[3].replace(b",", b",x", 1)
        path.write_bytes(b"\r\n".join(lines))
    elif fault == "0xff":
        lines[4] = lines[4].replace(b",", b",\xff", 1)
        path.write_bytes(b"\r\n".join(lines))
    else:
        assert fault == "directory"
        path.unlink()
        path.mkdir()


def _temporaries(directory):
    return [p for p in directory.rglob("*") if p.name.endswith(".tmp")]


def _error(exc: DataError):
    return type(exc), exc.path, exc.line, str(exc)


class TestWorkers:
    """save_dataset hands its trials to worker processes, TRIALS_PER_TASK at
    a time; load_dataset reads them in the calling process.  Errors and
    results keep manifest order."""

    @pytest.mark.parametrize("faults", [
        [(17, "bad value"), (40, "cut")],
        [(15, "cut"), (16, "bad value")],   # the later task fails first
        [(30, "0xff"), (33, "directory")],
        [(2, "directory"), (47, "0xff")],
    ], ids=["value-then-cut", "late-then-early", "0xff-then-directory", "directory-then-0xff"])
    def test_first_fault_in_manifest_order(self, tmp_path, faults):
        trials, manifest = generate_dataset(MULTI_TASK)
        save_dataset(tmp_path, trials, manifest)
        tasks = {i // synthdata.TRIALS_PER_TASK for i, _ in faults}
        assert len(tasks) == 2
        for i, fault in faults:
            _spoil(tmp_path / manifest.entries[i].trial_file, fault)
        first = manifest.entries[faults[0][0]]
        with pytest.raises(DataError) as serial:
            synthdata._load_trial(tmp_path / first.trial_file, first)
        with pytest.raises(DataError) as parallel:
            load_dataset(tmp_path)
        assert _error(parallel.value) == _error(serial.value)
        assert first.trial_file in str(parallel.value)

    def test_no_worker_or_thread_outlives_a_call(self, tmp_path):
        trials, manifest = generate_dataset(MULTI_TASK)
        threads = threading.active_count()
        save_dataset(tmp_path, trials, manifest)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        loaded, _ = load_dataset(tmp_path)
        assert len(loaded) == len(trials)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        _spoil(tmp_path / manifest.entries[20].trial_file, "cut")
        with pytest.raises(MalformedRowError):
            load_dataset(tmp_path)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_no_worker_outlives_an_interrupt(self, tmp_path, monkeypatch):
        trials, manifest = generate_dataset(MULTI_TASK)

        def interrupted(connections):
            raise KeyboardInterrupt

        monkeypatch.setattr(workers, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(tmp_path, trials, manifest)
        assert multiprocessing.active_children() == []

    def test_save_interrupted_mid_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        trials, manifest = generate_dataset(MULTI_TASK)
        replace = os.replace

        def stuck_on_trials(src, dst):
            if Path(dst).name != "manifest.csv":
                time.sleep(60)   # a worker, inside write_file, its .tmp written
            replace(src, dst)

        def interrupted_once_writing(connections):
            deadline = time.monotonic() + 30
            while not _temporaries(tmp_path) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _temporaries(tmp_path)
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", stuck_on_trials)
        monkeypatch.setattr(workers, "wait", interrupted_once_writing)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(tmp_path, trials, manifest)
        assert multiprocessing.active_children() == []
        assert _temporaries(tmp_path) == []

    def test_lost_worker_is_a_data_error_naming_its_trial_files(self, tmp_path, monkeypatch):
        trials, manifest = generate_dataset(MULTI_TASK)
        lost = tmp_path / manifest.entries[20].trial_file
        write_file = synthdata.write_file

        def killed_on_one(path, data):
            if path == lost:
                os._exit(1)
            write_file(path, data)

        monkeypatch.setattr(synthdata, "write_file", killed_on_one)
        with pytest.raises(DataError, match="worker process ended while writing") as caught:
            save_dataset(tmp_path, trials, manifest)
        task = manifest.entries[16:32]
        assert caught.value.path == str(tmp_path / task[0].trial_file)
        assert task[-1].trial_file in str(caught.value)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_worker_lost(self):
        def dies_at_6(i):
            if i == 6:
                os._exit(1)
            return i

        with pytest.raises(workers.WorkerLostError) as caught:
            workers.map_in_workers(dies_at_6, 12, 4)
        assert caught.value.items == range(4, 8)
        assert multiprocessing.active_children() == []

    def test_fork_in_a_threaded_process_is_no_warning(self, tmp_path, monkeypatch):
        # Python 3.12+ warns, as below, on fork() in a process with other
        # threads, which numpy's BLAS pool may be; warnings are errors here
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        loaded, _ = load_dataset(tmp_path)
        assert len(loaded) == len(trials)

    def test_start_that_raises_after_fork_leaves_no_worker(self, monkeypatch):
        # the forked child must not wait for tasks from a call that has failed
        fork = os.fork
        children = []

        def fork_then_raise():
            pid = fork()
            if pid:
                children.append(pid)
                raise OSError("start failed after fork")
            return pid

        monkeypatch.setattr(os, "fork", fork_then_raise)
        with pytest.raises(OSError, match="after fork"):
            workers.map_in_workers(lambda i: i, 4, 1)
        (pid,) = children
        deadline = time.monotonic() + 10
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                assert time.monotonic() < deadline, "the forked worker still runs"
                time.sleep(0.01)
        except AssertionError:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise

    def test_results_in_item_order_and_first_error_wins(self):
        def slow_squares(i):
            time.sleep(0.02 * (i % 3))
            return i * i

        assert workers.map_in_workers(slow_squares, 23, 4) == [i * i for i in range(23)]
        assert workers.map_in_workers(slow_squares, 0, 4) == []

        def fails_at_5_late_and_at_9(i):
            if i == 5:
                time.sleep(0.3)
                raise ValueError(5)
            if i == 9:
                raise ValueError(9)
            return i

        with pytest.raises(ValueError, match="5"):
            workers.map_in_workers(fails_at_5_late_and_at_9, 40, 4)
        assert multiprocessing.active_children() == []

    def test_worker_exception_keeps_its_cause(self):
        def chained_at_3(i):
            if i == 3:
                try:
                    float("x")
                except ValueError as exc:
                    raise KeyError("item 3") from exc
            return i

        with pytest.raises(KeyError, match="item 3") as caught:
            workers.map_in_workers(chained_at_3, 8, 2)
        cause = caught.value.__cause__
        assert type(cause) is ValueError and str(cause) == "could not convert string to float: 'x'"

    def test_non_numeric_value_chains_the_serial_readers_cause(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials, manifest)
        entry = manifest.entries[1]
        victim = tmp_path / entry.trial_file
        lines = victim.read_text().splitlines()
        parts = lines[2].split(",")
        parts[4] = "not-a-number"
        lines[2] = ",".join(parts)
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRowError) as serial:
            synthdata._load_trial(victim, entry)
        with pytest.raises(MalformedRowError) as caught:
            load_dataset(tmp_path)
        assert str(caught.value) == str(serial.value)
        assert type(caught.value.__cause__) is ValueError
        assert str(caught.value.__cause__) == str(serial.value.__cause__)


def _same_bits(a, b) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestManifest:
    def test_duplicate_paths_rejected(self):
        e = ManifestEntry("a.csv", 0, 1, 0, 10)
        with pytest.raises(ValueError):
            Manifest(entries=[e, ManifestEntry("a.csv", 0, 2, 0, 10)])

    def test_bad_zone_rejected(self):
        with pytest.raises(ValueError):
            Manifest(entries=[ManifestEntry("a.csv", 0, 0, 0, 10)])

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            Manifest(entries=[ManifestEntry("a.csv", 0, 1, 0, 10, split="dev")])

    @pytest.mark.parametrize("trial_file", ["#a.csv", "  #a.csv", "a\rb.csv", "a\nb.csv"])
    def test_unreadable_trial_file_rejected(self, trial_file):
        # a '#' first field reads as a comment, and a CR or LF can end the row
        with pytest.raises(ValueError, match="cannot be read back"):
            Manifest(entries=[ManifestEntry(trial_file, 0, 1, 0, 10)])

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(names=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                          min_size=1, max_size=3, unique=True),
           end=st.sampled_from(["\n", "\r\n"]))
    def test_accepted_entries_read_back(self, tmp_path, names, end):
        try:
            manifest = Manifest([ManifestEntry(n, 0, 1, i, 10) for i, n in enumerate(names)])
        except ValueError:
            return
        synthdata.write_manifest(tmp_path / "manifest.csv", manifest, ["a comment"], end)
        assert synthdata.load_manifest(tmp_path).entries == manifest.entries
