"""Synthetic lifting-trial generator and the on-disk dataset format.

The original laboratory recordings are not public, so a controllable stand-in
with the same shape and class imbalance is generated instead: 10 subjects x
12 zones x 6 trials at 25 Hz.  Each trial is baseline Gaussian noise plus two windowed
sinusoid bursts (one near lift start, one near the return to upright) whose
amplitude, spacing, and back/wrist sensor emphasis all grow with risk class.
Burst frequencies stay inside the 2-12 Hz analysis band so bandpass filtering
keeps the discriminative signal.

On disk a dataset is manifest.csv and one CSV file per trial, the source of
truth.  Beside each trial file `save_dataset` writes its binary twin,
`<trial file>.f64`: the sha256 of the CSV bytes followed by the values, then
the trial's values as float64.  `load_dataset` takes a trial's values from
its twin only while the twin holds that digest of the CSV as it is now and of
its own values, the manifest's frame count and only finite values; any other
trial file, recorded or edited, is read row by row, and its faults are
reported with its file and line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ChannelCountMismatchError, DataError, MalformedRowError, MissingTrialFileError
from .fileio import lines_text, write_file
from .signals import N_AXES, N_CHANNELS, N_SENSORS, SAMPLE_RATE_HZ, TrialRecording
from .workers import WorkerLostError, map_in_workers

RISK_CLASSES = ("low", "medium", "high")

# ACGIH lifting zones grouped into relative risk levels.
ZONE_RISK = {
    4: "low", 5: "low",
    6: "medium", 7: "medium", 8: "medium", 9: "medium",
    1: "high", 2: "high", 3: "high", 10: "high", 11: "high", 12: "high",
}
N_ZONES = len(ZONE_RISK)

SPLIT_VALUES = ("train", "test", "unassigned")


def zone_to_risk(zone: int) -> str:
    """The risk class name of a lifting zone."""
    if zone not in ZONE_RISK:
        raise ValueError(f"zone must be in [1, 12], got {zone}")
    return ZONE_RISK[zone]


@dataclass
class DatasetProfile:
    """Shape of the generated dataset; defaults mirror the original collection
    (every subject lifts in all 12 zones, recorded at SAMPLE_RATE_HZ)."""

    n_subjects: int = 10
    trials_per_zone_per_subject: int = 6
    duration_low_s: float = 10.0
    duration_high_s: float = 15.0
    seed: int = 42

    def class_counts(self) -> dict[str, int]:
        per_zone = self.n_subjects * self.trials_per_zone_per_subject
        counts = dict.fromkeys(RISK_CLASSES, 0)
        for risk in ZONE_RISK.values():
            counts[risk] += per_zone
        return counts


def desk_profile(seed: int = 42) -> DatasetProfile:
    """Short-trial profile for fast runs: every lift fits in 250 frames."""
    return DatasetProfile(duration_low_s=8.0, duration_high_s=10.0, seed=seed)


# The signal shape of every generated trial; class separation must stay
# strict with margin.  Every sensor moves (BASE_ACTIVITY), but the
# class-dependent amplitude ramp enters through the per-sensor emphasis, so
# back and wrist channels carry almost all of the class signal while
# side/arm/thigh channels stay active yet nearly uninformative.
# Per-channel standardization preserves within-channel class contrast, so
# this structure survives preprocessing.
NOISE_SD = 0.25
BASE_AMPLITUDE = 1.0
BASE_ACTIVITY = 0.6
CLASS_RAMP = (0.4, 1.7, 3.6)  # low, medium, high
BURST_FREQ_LOW_HZ = 3.0
BURST_FREQ_HIGH_HZ = 9.0
BURST_SECONDS = 1.6
BACK_EMPHASIS = 1.2
WRIST_EMPHASIS = 0.75
OTHER_EMPHASIS = 0.05
SUBJECT_GAIN_JITTER = 0.18
SUBJECT_OFFSET_JITTER_S = 0.4

# Sensor index groups (pairs of accel/gyro per placement).
BACK_SENSORS = (6, 7)
WRIST_SENSORS = (2, 3, 4, 5)


def _sensor_gains(class_idx: int) -> np.ndarray:
    emphasis = np.full(N_SENSORS, OTHER_EMPHASIS)
    emphasis[list(WRIST_SENSORS)] = WRIST_EMPHASIS
    emphasis[list(BACK_SENSORS)] = BACK_EMPHASIS
    return BASE_ACTIVITY + emphasis * CLASS_RAMP[class_idx]


@dataclass
class ManifestEntry:
    trial_file: str
    subject_id: int
    zone: int
    trial_index: int
    frame_count: int
    split: str = "unassigned"


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        seen: set[str] = set()
        for e in self.entries:
            problem = _entry_problem(e, seen)
            if problem:
                raise ValueError(f"manifest {problem}")
            seen.add(e.trial_file)


def _entry_problem(entry: ManifestEntry, seen: set[str]) -> str | None:
    """Why `entry` cannot join a manifest whose trial files are `seen`, or None."""
    if entry.trial_file in seen:
        return f"trial_file {entry.trial_file!r} is repeated"
    # a reader skips a row whose first field starts with '#', and a bare CR or LF ends a row
    if entry.trial_file.lstrip().startswith("#") or any(c in entry.trial_file for c in "\r\n"):
        return f"trial_file {entry.trial_file!r} cannot be read back from a manifest"
    if not 1 <= entry.zone <= 12:
        return f"zone {entry.zone} is outside 1-12"
    if entry.split not in SPLIT_VALUES:
        return f"split {entry.split!r} is not one of {', '.join(SPLIT_VALUES)}"
    return None


def generate_dataset(p: DatasetProfile) -> tuple[list[TrialRecording], Manifest]:
    """Deterministic synthetic dataset; one RNG stream seeded from the profile."""
    rng = np.random.default_rng(p.seed)
    fs = SAMPLE_RATE_HZ

    subject_gain = 1.0 + rng.uniform(-SUBJECT_GAIN_JITTER, SUBJECT_GAIN_JITTER, size=p.n_subjects)
    subject_offset = rng.uniform(-SUBJECT_OFFSET_JITTER_S, SUBJECT_OFFSET_JITTER_S, size=p.n_subjects)

    trials: list[TrialRecording] = []
    entries: list[ManifestEntry] = []
    for subject in range(p.n_subjects):
        for zone in range(1, N_ZONES + 1):
            class_idx = RISK_CLASSES.index(zone_to_risk(zone))
            for idx in range(p.trials_per_zone_per_subject):
                duration = rng.uniform(p.duration_low_s, p.duration_high_s)
                n_frames = int(round(duration * fs))
                channels = rng.normal(0.0, NOISE_SD, size=(N_CHANNELS, n_frames))
                _add_lift_events(channels, rng, class_idx, fs, duration,
                                 subject_gain[subject], subject_offset[subject])
                trials.append(TrialRecording(channels))
                entries.append(ManifestEntry(
                    trial_file=f"trials/trial_{subject}_{zone}_{idx}.csv",
                    subject_id=subject, zone=zone, trial_index=idx, frame_count=n_frames))
    return trials, Manifest(entries=entries)


def _add_lift_events(channels: np.ndarray, rng: np.random.Generator,
                     class_idx: int, fs: float, duration: float,
                     subj_gain: float, subj_offset: float) -> None:
    """Two Hann-windowed sinusoid packets per trial.

    The first burst sits near lift start, the second near the return to
    upright; the gap between them widens (weakly) with risk class, and the
    burst positions jitter widely per trial.
    """
    amp = BASE_AMPLITUDE * subj_gain
    gains = _sensor_gains(class_idx)
    t_first = duration * rng.uniform(0.12, 0.30) + subj_offset * 0.3
    gap = duration * (0.33 + 0.03 * class_idx + rng.uniform(-0.03, 0.03))
    centers = (t_first, t_first + gap)
    half = BURST_SECONDS / 2.0
    t = np.arange(channels.shape[1]) / fs
    for center in centers:
        center = float(np.clip(center, half, duration - half))
        window = np.clip((t - (center - half)) / BURST_SECONDS, 0.0, 1.0)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * window)
        hann[(t < center - half) | (t > center + half)] = 0.0
        for sensor in range(N_SENSORS):
            for axis in range(N_AXES):
                freq = rng.uniform(BURST_FREQ_LOW_HZ, BURST_FREQ_HIGH_HZ)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                axis_gain = rng.uniform(0.6, 1.0)
                channels[3 * sensor + axis] += (
                    amp * gains[sensor] * axis_gain * hann * np.sin(2.0 * np.pi * freq * t + phase)
                )


def split_dataset(m: Manifest, train_fraction: float = 0.75, seed: int = 42) -> Manifest:
    """Random partition without replacement: round(n*fraction) train, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(m.entries)
    n_train = int(round(n * train_fraction))
    perm = np.random.default_rng(seed).permutation(n)
    train_ids = set(perm[:n_train].tolist())
    entries = [replace(e, split="train" if i in train_ids else "test")
               for i, e in enumerate(m.entries)]
    return Manifest(entries=entries)


TRIAL_HEADER = ["frame"] + [f"s{s}{a}" for s in range(N_SENSORS) for a in "xyz"]
MANIFEST_HEADER = ["trial_file", "subject_id", "zone", "trial_index", "frame_count", "split"]


# Trials a worker process writes per task: few enough that the workers end
# close together, enough that a task's round trip costs little against its
# text conversion.
TRIALS_PER_TASK = 16

# A trial file's binary twin, `<trial file>.f64`: the sha256 of the trial
# file's bytes followed by the values' bytes, then the values: the trial's
# [frames, 36] values as little-endian float64 in C order.
TWIN_SUFFIX = ".f64"
TWIN_DTYPE = np.dtype("<f8")
DIGEST_BYTES = hashlib.sha256().digest_size


def _twin_path(path: Path) -> Path:
    return path.with_name(path.name + TWIN_SUFFIX)


def save_dataset(directory, trials: list[TrialRecording], manifest: Manifest) -> None:
    """The manifest, then every trial file, each written by worker processes
    (`workers.map_in_workers`) with the bytes csv.writer would write, and
    straight after it the trial file's binary twin.  A worker that ends
    without replying is a DataError naming the trial files of its task."""
    directory = Path(directory)
    if len(trials) != len(manifest.entries):
        raise ValueError("trial list and manifest lengths differ")
    write_manifest(directory / "manifest.csv", manifest)

    def write_trial(i: int) -> None:
        frames = np.asarray(trials[i].channels, dtype=np.float64).T
        # the bytes csv.writer writes: repr of each value, "\r\n" line ends
        rows = (f"{frame}," + ",".join(map(repr, values))
                for frame, values in enumerate(frames.tolist()))
        data = lines_text([",".join(TRIAL_HEADER), *rows], end="\r\n").encode()
        value_bytes = frames.astype(TWIN_DTYPE).tobytes()
        path = directory / manifest.entries[i].trial_file
        write_file(path, data)
        write_file(_twin_path(path), hashlib.sha256(data + value_bytes).digest() + value_bytes)

    try:
        map_in_workers(write_trial, len(trials), TRIALS_PER_TASK)
    except WorkerLostError as exc:
        first, last = (directory / manifest.entries[i].trial_file
                       for i in (exc.items[0], exc.items[-1]))
        raise DataError(f"a worker process ended while writing {first} to {last}",
                        path=str(first)) from exc


def write_manifest(path, manifest: Manifest, comments=(), end: str = "\r\n") -> None:
    """A '#' line per comment, MANIFEST_HEADER, a csv-quoted row per entry; each ends in `end`."""
    rows = io.StringIO()
    csv.writer(rows, lineterminator=end).writerows([MANIFEST_HEADER, *map(astuple, manifest.entries)])
    write_file(path, lines_text((), comments, end) + rows.getvalue())


def _csv_rows(fh):
    """(lineno, row) pairs, skipping '#' comment lines."""
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if row and row[0].lstrip().startswith("#"):
            continue
        yield lineno, row


def load_manifest(directory) -> Manifest:
    manifest_path = Path(directory) / "manifest.csv"
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}", path=str(manifest_path))
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    text = _text(manifest_path, _read_bytes(manifest_path))
    rows = _csv_rows(io.StringIO(text, newline=""))
    first = next(rows, None)
    if first is None or first[1] != MANIFEST_HEADER:
        raise DataError(f"bad manifest header in {manifest_path}",
                        path=str(manifest_path), line=1)
    for lineno, row in rows:
        if len(row) != len(MANIFEST_HEADER):
            raise MalformedRowError(
                f"{manifest_path}:{lineno}: expected {len(MANIFEST_HEADER)} fields, "
                f"got {len(row)}",
                path=str(manifest_path), line=lineno)
        try:
            entry = ManifestEntry(
                trial_file=row[0], subject_id=int(row[1]), zone=int(row[2]),
                trial_index=int(row[3]), frame_count=int(row[4]), split=row[5])
        except ValueError as exc:
            raise MalformedRowError(f"{manifest_path}:{lineno}: {exc}",
                                    path=str(manifest_path), line=lineno) from exc
        problem = _entry_problem(entry, seen)
        if problem:
            raise MalformedRowError(f"{manifest_path}:{lineno}: {problem}",
                                    path=str(manifest_path), line=lineno)
        seen.add(entry.trial_file)
        entries.append(entry)
    return Manifest(entries=entries)


def _read_bytes(path: Path) -> bytes:
    """The bytes of the data file at `path`; a file that cannot be read is a
    DataError naming it."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}", path=str(path)) from exc


def _text(path: Path, data: bytes) -> str:
    """`data`, the bytes of the data file at `path`, as UTF-8 text with its
    line ends kept; bytes that are not UTF-8 are a DataError naming the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}", path=str(path)) from exc


def load_dataset(directory, manifest: Manifest | None = None,
                 ) -> tuple[list[TrialRecording], Manifest]:
    """The trials of `manifest`, by default of the directory's whole
    manifest.csv, read in manifest order from their files under `directory`
    (or their binary twins, while those match).  A fault raises the error of
    the first bad trial file."""
    directory = Path(directory)
    if manifest is None:
        manifest = load_manifest(directory)
    return [_load_trial(directory / e.trial_file, e) for e in manifest.entries], manifest


def _load_trial(path: Path, entry: ManifestEntry) -> TrialRecording:
    if not path.exists():
        raise MissingTrialFileError(f"trial file missing: {path}", path=str(path))
    values = _twin_values(path, entry.frame_count)
    if values is None:
        values = _parse_validated_trial(path, _text(path, _read_bytes(path)))
        if len(values) != entry.frame_count:
            raise MalformedRowError(f"{path}: manifest frame_count is {entry.frame_count}, "
                                    f"the file has {len(values)} data rows", path=str(path))
    return TrialRecording(values.T)


def _twin_values(path: Path, frame_count: int) -> np.ndarray | None:
    """[frames, 36] sensor values from the binary twin of the trial file at
    `path`; None unless the twin holds the sha256 of the file's bytes and its
    own values, and `frame_count` frames of finite values, as the file's
    parse would give."""
    n_values = frame_count * N_CHANNELS
    twin = _twin_path(path)
    try:
        if twin.stat().st_size != DIGEST_BYTES + n_values * TWIN_DTYPE.itemsize:
            return None
        with open(twin, "rb") as fh:
            digest = fh.read(DIGEST_BYTES)
            values = np.fromfile(fh, TWIN_DTYPE, n_values)
        sha = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                sha.update(block)
    except OSError:  # a trial file that cannot be read is reported by the parse
        return None
    sha.update(values)
    # the parse reports a non-finite value with its file and line
    if sha.digest() != digest or not np.isfinite(values).all():
        return None
    return values.reshape(frame_count, N_CHANNELS)


def _parse_validated_trial(path: Path, text: str) -> np.ndarray:
    """[frames, 36] sensor values read row by row; a fault raises an error
    naming the file and line."""
    rows: list[list[float]] = []
    data_rows = _csv_rows(io.StringIO(text, newline=""))
    first = next(data_rows, None)
    if first is None or len(first[1]) != N_CHANNELS + 1:
        raise ChannelCountMismatchError(
            f"{path}:1: expected {N_CHANNELS + 1} columns in header, got "
            f"{0 if first is None else len(first[1])}",
            path=str(path), line=1)
    for lineno, row in data_rows:
        if len(row) != N_CHANNELS + 1:
            raise MalformedRowError(
                f"{path}:{lineno}: expected {N_CHANNELS + 1} columns, got {len(row)}",
                path=str(path), line=lineno)
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise MalformedRowError(f"{path}:{lineno}: {exc}", path=str(path), line=lineno) from exc
        if not all(map(math.isfinite, values)):
            raise MalformedRowError(f"{path}:{lineno}: non-finite sensor value",
                                    path=str(path), line=lineno)
        rows.append(values)
    if not rows:
        raise MalformedRowError(f"{path}: no data rows", path=str(path), line=2)
    return np.asarray(rows, dtype=np.float64)
