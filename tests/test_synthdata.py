"""Generator determinism, class structure, split behavior, and the CSV
dataset round trip with its error reporting."""

import csv
import io
import multiprocessing
import os
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

    def test_saved_file_takes_the_whole_file_parse(self, tmp_path):
        trials, manifest = generate_dataset(SMALL)
        save_dataset(tmp_path, trials[:1], Manifest(entries=manifest.entries[:1]))
        path = tmp_path / manifest.entries[0].trial_file
        text = path.read_bytes().decode()
        fast = synthdata._parse_plain_trial(text)
        assert fast is not None
        assert _same_bits(fast, synthdata._parse_validated_trial(path, text))
        assert _same_bits(fast, trials[0].channels.T)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_reader_agrees_with_validator(self, tmp_path, data):
        n_rows = data.draw(st.integers(1, 3))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=36 * n_rows, max_size=36 * n_rows))
        lines = [",".join(synthdata.TRIAL_HEADER)]
        lines += [",".join([str(r)] + [repr(v) for v in values[36 * r: 36 * (r + 1)]])
                  for r in range(n_rows)]
        for mutation in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3)):
            MUTATIONS[mutation](lines, data)
        ending = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
        text = ending.join(lines) + data.draw(st.sampled_from([ending, ""]))
        path = tmp_path / "trial.csv"
        path.write_bytes(text.encode())
        entry = ManifestEntry("trial.csv", 0, 1, 0, n_rows)

        def outcome(read):
            try:
                return read()
            except DataError as exc:
                return type(exc), exc.line, str(exc)

        got = outcome(lambda: synthdata._load_trial(path, entry).channels.T)
        want = outcome(lambda: synthdata._parse_validated_trial(path, text))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert _same_bits(got, want)


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
    """load_dataset and save_dataset hand their trials to worker processes,
    TRIALS_PER_TASK at a time; errors and results keep manifest order."""

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
        save_dataset(tmp_path, trials, manifest)

        def interrupted(connections):
            raise KeyboardInterrupt

        monkeypatch.setattr(workers, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_dataset(tmp_path)
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
        save_dataset(tmp_path, trials, manifest)
        lost = manifest.entries[20].trial_file
        load_trial = synthdata._load_trial

        def killed_on_one(path, entry):
            if entry.trial_file == lost:
                os._exit(1)
            return load_trial(path, entry)

        monkeypatch.setattr(synthdata, "_load_trial", killed_on_one)
        with pytest.raises(DataError, match="worker process ended while reading") as caught:
            load_dataset(tmp_path)
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


def _same_bits(a, b) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _set_field(lines, data, column, value):
    k = data.draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
    fields = lines[k].split(",")
    fields[min(column, len(fields) - 1)] = value
    lines[k] = ",".join(fields)


def _mid_line_hash(lines, data):
    k = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(1, max(1, len(lines[k]) - 1)))
    lines[k] = lines[k][:j] + "#" + lines[k][j:]


def _quoted_field(lines, data):
    k = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split(",")
    c = data.draw(st.integers(0, len(fields) - 1))
    fields[c] = f'"{fields[c]}"'
    lines[k] = ",".join(fields)


def _trailing_comma(lines, data):
    k = data.draw(st.integers(0, len(lines) - 1))
    lines[k] += ","


# Edits of a well-formed trial file, each of which the whole-file parse must
# hand to the row validator (or read exactly as the validator does).
MUTATIONS = {
    "blank line": lambda lines, data: lines.insert(data.draw(st.integers(0, len(lines))), ""),
    "mid-line #": _mid_line_hash,
    "quoted field": _quoted_field,
    "trailing comma": _trailing_comma,
    "non-finite": lambda lines, data: _set_field(
        lines, data, data.draw(st.integers(1, 36)),
        data.draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e400"]))),
    "underscore": lambda lines, data: _set_field(lines, data, data.draw(st.integers(1, 36)),
                                                 "1_000"),
    "non-numeric frame": lambda lines, data: _set_field(lines, data, 0, "frame7"),
}


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
