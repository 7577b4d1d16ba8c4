"""The benchmark's three workloads: set-up, timed rounds, and the checks of
the program's outputs against perfbench.oracles.

Each workload is one client in a closed loop: a round runs its operations
one after another, and rounds repeat until the run's seconds have passed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from oracles import (RISK_CLASSES, ZONE_RISK, central_differences, conv3x3_shifted,
                     mcc_covariance, read_comment_values, read_csv_rows, read_pgm)

# Epoch caps, all below the desk patience of 10, so every run trains for
# exactly this many epochs whatever the seed.
DESK_TRAIN_EPOCHS = 2
DESK_ATTRIBUTE_EPOCHS = 2
PAPER_EPOCHS = 2
# Paper-shape training: the first PAPER_SUBSET trials of the training split.
# Batch 16 rather than the paper's 32 keeps the run's peak RSS near 2.1 GB.
PAPER_SUBSET = 32
PAPER_BATCH = 16
PAPER_FD_BATCH = 4

CHILD_TIMEOUT_S = 150


class SetupFailed(RuntimeError):
    pass


class Capture:
    """Calls of one liftrisk function made in the timed rounds: the duration
    of every call, and what `keep(args, result)` takes from each call of the
    current round.  Only that is held, so the benchmark keeps none of the
    program's datasets alive once the call that made them has returned."""

    def __init__(self, keep):
        self.keep = keep
        self.seconds: list[float] = []
        self.kept: list = []

    def __call__(self, args, kwargs, result, seconds):
        self.seconds.append(seconds)
        if self.keep is not None:
            self.kept.append(self.keep(args, result))

    def last(self):
        return self.kept[-1]


class Run:
    """State of one benchmark run: its operations, checks and timings."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 work: Path, probe, run_py: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.probe = probe
        self.run_py = run_py
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.setup_s = math.nan
        self.peak_rss_mb = math.nan
        self.metrics: dict[str, float] = {}
        self.layer_extra: dict[str, float] = {}
        self._captures: list[Capture] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def capture(self, name: str, keep=lambda args, result: result) -> Capture:
        """Record the calls of `name` (e.g. "trainer.train"); keep=None
        records their durations only."""
        capture = Capture(keep)
        self.probe.on(name, capture)
        self._captures.append(capture)
        return capture

    def op(self, name: str, fn, *args):
        """One timed operation; an exception fails it.  Returns its result,
        or None when it failed."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(sys.stderr):
                return fn(*args)
        except Exception as exc:
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"{name} raised {type(exc).__name__}: {exc}")
            return None

    def cli(self, *argv) -> bool:
        """One `liftrisk` command; a non-zero exit code fails it too."""
        from liftrisk import cli
        code = self.op(f"liftrisk {argv[0]}", cli.main, [str(a) for a in argv])
        if code is not None and code != 0:
            self.failed += 1
            self.problems.append(f"liftrisk {argv[0]} exited with {code}")
        return code == 0

    def rounds(self, one_round, min_rounds: int = 1) -> None:
        """Whole rounds until `seconds` have passed and at least
        `min_rounds` have run."""
        self.probe.phase = "timed"
        start = time.perf_counter()
        while True:
            for capture in self._captures:
                capture.kept.clear()
            t0 = time.perf_counter()
            one_round()
            self.walls.append(time.perf_counter() - t0)
            if (len(self.walls) >= min_rounds
                    and time.perf_counter() - start >= self.seconds):
                break
        self.probe.phase = None
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def setup_in_child(self) -> None:
        """Run this workload's set-up in a fresh process, so that its memory
        does not count in the timed part's peak RSS."""
        cmd = [sys.executable, str(self.run_py), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", "0", "--trace", str(int(self.traced)),
               "--setup-only", str(self.work)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        self.setup_s = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupFailed(f"set-up of {self.workload} exited with {proc.returncode}")
        if self.traced:
            self.probe.absorb(json.loads((self.work / "setup_trace.json").read_text()))


# ---------------------------------------------------------------------------
# helpers shared by the checks


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def capped_config(source: Path, epochs: int, out: Path) -> Path:
    """The config `synth` wrote, with the epoch cap lowered to `epochs`."""
    from liftrisk.config import load_config
    config = dataclasses.replace(load_config(source), max_epochs=epochs)
    out.write_text("\n".join(config.to_lines()) + "\n")
    return out


def report_value(path, metric: str) -> float:
    return next(float(r[2]) for r in read_csv_rows(path) if r[0] == metric)


def truth_counts(manifest_csv) -> list[int]:
    """Test-split trials per risk class, through the benchmark's zone table."""
    counts = dict.fromkeys(RISK_CLASSES, 0)
    for row in read_csv_rows(manifest_csv):
        if row[5] == "test":
            counts[ZONE_RISK[int(row[2])]] += 1
    return [counts[c] for c in RISK_CLASSES]


def check_rk(run: Run, counts, written_rk: float, manifest_csv, who: str) -> None:
    counts = np.asarray(counts)
    mcc = mcc_covariance(counts)
    run.check(abs(mcc - written_rk) <= 1e-12,
              f"{who}: R_K {written_rk!r} differs from the covariance-form MCC {mcc!r}")
    truth = truth_counts(manifest_csv)
    run.check(counts.sum(axis=1).tolist() == truth,
              f"{who}: true-class counts {counts.sum(axis=1).tolist()} != zone table {truth}")


def capture_steps(run: Run) -> list:
    """Seconds per training image of every timed training step: its
    train-mode forward, backward and Adam update, over the batch size."""
    per_image: list[float] = []
    step = {"s": 0.0, "n": 1}

    def forward(args, kwargs, result, seconds):
        if kwargs.get("train"):
            step.update(s=seconds, n=len(args[1]))

    def backward(args, kwargs, result, seconds):
        step["s"] += seconds

    def adam(args, kwargs, result, seconds):
        per_image.append((step["s"] + seconds) / step["n"])

    run.probe.on("nncore.Model.forward", forward)
    run.probe.on("nncore.Model.backward", backward)
    run.probe.on("trainer.adam_step", adam)
    return per_image


def record_training(run: Run, steps: list, trains: Capture):
    """images_per_s from the median training step, which a burst of load on
    the machine moves less than a total would.  Returns the last
    trainer.train call's history."""
    run.metrics["images_per_s"] = 1.0 / statistics.median(steps)
    history = trains.last()
    run.layer_extra.update({"trainer.epochs": len(history.losses),
                            "trainer.best_epoch": history.best_epoch})
    return history


def desk_setup(run: Run) -> None:
    """`liftrisk synth --profile desk`; desk_attribute also trains the
    checkpoint it will explain."""
    data = run.work / "data"
    if not run.cli("synth", "--out", data, "--seed", run.seed, "--profile", "desk"):
        raise SetupFailed("synth failed")
    if run.workload == "desk_attribute":
        config = capped_config(data / "pipeline_config.txt", DESK_ATTRIBUTE_EPOCHS,
                               run.work / "attribute_config.txt")
        if not run.cli("train", "--data", data, "--config", config,
                       "--out", run.work / "ckpt" / "model.ckpt"):
            raise SetupFailed("checkpoint training failed")


# ---------------------------------------------------------------------------
# desk_train


def desk_train(run: Run) -> None:
    from liftrisk import pipeline, trainer
    from liftrisk.config import load_config

    data_dir = run.work / "data"
    run.setup_in_child()
    config_path = capped_config(data_dir / "pipeline_config.txt", DESK_TRAIN_EPOCHS,
                                run.work / "train_config.txt")
    ckpt = run.work / "train" / "model.ckpt"
    trains = run.capture("trainer.train")
    steps = capture_steps(run)
    # the test images and the predictions made for them
    predictions = run.capture("trainer.predict", lambda args, result: (args[1], result[0]))
    confusions = run.capture("metrics.confusion", lambda args, result: result.counts)
    run.probe.install()

    shas = []

    def one_round():
        if run.cli("train", "--data", data_dir, "--config", config_path, "--out", ckpt):
            shas.append(sha256(ckpt))

    # two rounds at least: the same code on the same inputs must write the
    # same checkpoint bytes
    run.rounds(one_round, min_rounds=2)
    if run.failed:
        return
    record_training(run, steps, trains)
    run.check(len(set(shas)) == 1, f"rounds wrote checkpoints with sha256 {shas}")
    config = load_config(config_path)
    stem = ckpt.parent / ckpt.stem
    run.layer_extra["metrics.test_rk"] = report_value(f"{stem}_metrics.csv", "r_k")
    check_rk(run, confusions.last(), run.layer_extra["metrics.test_rk"],
             f"{stem}_manifest.csv", "train")

    model, _, _ = pipeline.load_trained(ckpt)
    test_images, test_preds = predictions.last()
    preds, _ = trainer.predict(model, test_images)
    run.check(np.array_equal(preds, test_preds),
              "reloaded checkpoint does not reproduce the test predictions")

    losses = [float(r[1]) for r in read_csv_rows(f"{stem}_history.csv")]
    trailer = {k: int(v) for k, v in read_comment_values(f"{stem}_history.csv").items()
               if k in ("best_epoch", "stopped_epoch", "restored_from_epoch")}
    best = int(np.argmin(losses)) + 1
    run.check(all(map(math.isfinite, losses)), f"non-finite loss in history {losses}")
    run.check(trailer["restored_from_epoch"] == trailer["best_epoch"] == best,
              f"restored epoch {trailer} is not the loss minimum {best}")
    run.check(trailer["stopped_epoch"] == len(losses)
              and trailer["stopped_epoch"] in (best + config.patience, config.max_epochs),
              f"stopped at {trailer['stopped_epoch']}: neither {config.patience} epochs after "
              f"the minimum {best} nor the cap {config.max_epochs}")


# ---------------------------------------------------------------------------
# paper_train


def paper_train(run: Run) -> None:
    from liftrisk import pipeline, synthdata, trainer
    from liftrisk.config import PipelineConfig

    trains = run.capture("trainer.train")
    steps = capture_steps(run)
    run.probe.install()

    run.probe.phase = "setup"
    t0 = time.perf_counter()
    trials, manifest = synthdata.generate_dataset(synthdata.DatasetProfile(seed=run.seed))
    config = PipelineConfig(seed=run.seed, batch_size=PAPER_BATCH, max_epochs=PAPER_EPOCHS)
    data = pipeline.prepare(trials, manifest, config)
    subset = data.train_idx[:PAPER_SUBSET]
    images = np.ascontiguousarray(data.images[subset])
    labels = data.labels[subset]
    del trials, manifest, data
    model = pipeline.build_model(config, images.shape[1:])
    initial = model.snapshot()
    train_config = pipeline.train_config_of(config)
    run.setup_s = time.perf_counter() - t0
    run.probe.phase = None

    def one_round():
        model.restore(initial)
        run.op("trainer.train", trainer.train, model, images, labels, train_config)

    run.rounds(one_round)
    if run.failed:
        return
    history = record_training(run, steps, trains)
    run.check(len(history.losses) == PAPER_EPOCHS
              and all(map(math.isfinite, history.losses)),
              f"history {history.losses} is not {PAPER_EPOCHS} finite epochs")

    # conv forward on the real batch against nine shifted sums: layer 0
    # (3->32) and layer 4 (64->64)
    x = images[:2]
    for i, layer in enumerate(model.layers[:5]):
        if i in (0, 4):
            got, _ = layer.forward(x, False, None)
            want = np.maximum(conv3x3_shifted(x, layer.w, layer.b), 0.0)
            err = float(np.max(np.abs(got - want)))
            run.check(err <= 1e-9 * max(1.0, float(np.max(np.abs(want)))),
                      f"conv layer {i} differs from shifted sums by {err:.3e}")
        x, _ = layer.forward(x, False, None)

    # sampled parameter gradients against finite differences, train mode
    # with the dropout masks of one fixed stream
    xb = images[:PAPER_FD_BATCH]
    onehot = np.eye(3)[labels[:PAPER_FD_BATCH]]
    l2 = model.layers[-1].l2_lambda

    def loss_at():
        probs = model.forward(xb, train=True, rng=np.random.default_rng(run.seed))
        return trainer.loss(probs, onehot, model, l2)

    loss_at()
    grads = model.backward(onehot)
    params = model.params()
    rng = np.random.default_rng(run.seed)
    # weights of conv layers 0, 4 and 8, the hidden dense layer, BN gamma and
    # the output layer: the entry with the largest gradient (never a dead
    # unit) and one at random.  At seed 3, 1419 pre-activations of conv
    # layer 3 lie within 1e-6 of their ReLU kink, and 5 of 41 sampled
    # differences of conv layer 0 at h = 1e-6 missed the gradient by up to
    # 5.7e-3 of it; at h = 1e-7 all 5 agreed within 1e-6.
    for k in (0, 4, 8, 10, 12, 14):
        for idx in (_largest(grads[k]), tuple(int(rng.integers(d)) for d in params[k].shape)):
            an = float(grads[k][idx])
            fds = differences_missed(
                loss_at, params[k], idx,
                lambda fd: abs(an - fd) <= 1e-3 * max(abs(an), abs(fd)) + 1e-9)
            run.check(not fds, f"gradient of parameter {k}{idx}: analytic {an!r}, "
                               f"central differences {fds!r}")


# ---------------------------------------------------------------------------
# desk_attribute


def saliency_summary(args, out) -> dict:
    """What the checks read from one pipeline.saliency_for_class call: the
    first test image's pixels and saliency map, the mean over its maps of
    max |d logit / d pixel| across channels, and the number of maps."""
    data = args[1]
    return {"pixels": data.encoded[out.image_indices[0]].pixels.copy(),
            "grad": out.per_image[0].w.copy(),
            "mean_map": np.mean([np.abs(m.w).max(axis=2) for m in out.per_image], axis=0),
            "n_maps": len(out.per_image)}


def desk_attribute(run: Run) -> None:
    from liftrisk import pipeline
    from liftrisk.config import load_config

    data_dir = run.work / "data"
    ckpt = run.work / "ckpt" / "model.ckpt"
    stem = ckpt.parent / ckpt.stem
    eval_csv = run.work / "eval.csv"
    sal_dir = run.work / "saliency"
    run.setup_in_child()
    confusions = run.capture("metrics.confusion", lambda args, result: result.counts)
    maps = run.capture("pipeline.saliency_for_class", saliency_summary)
    map_times = run.capture("saliency.class_score_gradient", keep=None)
    run.probe.install()

    def one_round():
        run.cli("eval", "--model", ckpt, "--data", data_dir, "--out", eval_csv)
        for cls in RISK_CLASSES:
            run.cli("saliency", "--model", ckpt, "--data", data_dir, "--class", cls,
                    "--out", sal_dir)

    run.rounds(one_round)
    if run.failed:
        return
    run.metrics["images_per_s"] = 1.0 / statistics.median(map_times.seconds)

    eval_rk = report_value(eval_csv, "r_k")
    train_rk = report_value(f"{stem}_metrics.csv", "r_k")
    run.check(eval_rk == train_rk, f"eval R_K {eval_rk!r} != training's R_K {train_rk!r}")
    check_rk(run, confusions.last(), eval_rk, f"{stem}_manifest.csv", "eval")
    run.layer_extra["metrics.test_rk"] = eval_rk

    config = load_config(run.work / "attribute_config.txt")
    cells = 12 * config.target_frames
    height = -(-cells // config.image_width)
    truth = truth_counts(f"{stem}_manifest.csv")
    # the checkpoint that every saliency command loaded
    model, _, _ = pipeline.load_trained(ckpt)
    rng = np.random.default_rng(run.seed)
    for summary, cls, n_true in zip(maps.kept, RISK_CLASSES, truth):
        check_saliency_gradient(run, model, summary["pixels"], summary["grad"],
                                RISK_CLASSES.index(cls), rng, cls)

        rows = read_csv_rows(sal_dir / f"attribution_{cls}.csv")
        totals = {int(r[2]): float(r[1]) for r in rows}
        ordered = [totals[r] for r in sorted(totals)]
        in_trial = float(summary["mean_map"].reshape(-1)[:cells].sum())
        run.check(min(ordered) >= 0.0, f"{cls}: negative sensor total in {ordered}")
        run.check(sorted(totals) == list(range(1, 13))
                  and all(a >= b for a, b in zip(ordered, ordered[1:])),
                  f"{cls}: ranking is not descending: {totals}")
        run.check(abs(sum(ordered) - in_trial) <= 1e-9 * in_trial,
                  f"{cls}: sensor totals sum {sum(ordered)!r} != mean map over trial cells "
                  f"{in_trial!r}")

        pgms = sorted(sal_dir.glob(f"saliency_{cls}_img*.pgm"))
        run.check(len(pgms) == n_true and summary["n_maps"] == n_true,
                  f"{cls}: {len(pgms)} image maps for {n_true} test images")
        for path in pgms + [sal_dir / f"saliency_{cls}_mean.pgm"]:
            try:
                size = read_pgm(path)[:2]
            except (OSError, ValueError) as exc:
                run.check(False, str(exc))
                continue
            run.check(size == (config.image_width, height),
                      f"{path.name}: width x height {size}, expected "
                      f"{(config.image_width, height)}")


def check_saliency_gradient(run: Run, model, pixels, grad, class_index: int, rng, cls: str):
    """Sampled pixels of a saliency map against finite differences of the
    class logit, in float64 (the network is piecewise linear in the input)."""
    x = pixels.astype(model.dtype).astype(np.float64)[None]
    out_layer = model.layers[-1]

    def logit():
        h = x
        for layer in model.layers[:-1]:
            h, _ = layer.forward(h, False, None)
        return float((h @ out_layer.w + out_layer.b)[0, class_index])

    g = np.asarray(grad, dtype=np.float64)
    scale = float(np.max(np.abs(g)))
    picks = [_largest(g)]
    picks += [tuple(int(rng.integers(d)) for d in g.shape) for _ in range(4)]
    for pick in picks:
        an = float(g[pick])
        fds = differences_missed(logit, x, (0, *pick),
                                 lambda fd: abs(an - fd) <= 1e-3 * (scale + abs(fd)))
        run.check(not fds, f"{cls}: saliency at {pick} is {an!r}, central differences "
                           f"{fds!r}")


def differences_missed(f, x: np.ndarray, index, agrees) -> list[float]:
    """[] when a central difference of f in x[index] satisfies `agrees`;
    otherwise the differences at every step, none of which did.  Steps below
    1e-8 would drown the difference in float64 rounding."""
    tried = []
    for fd in central_differences(f, x, index, (1e-6, 1e-7, 1e-8)):
        if agrees(fd):
            return []
        tried.append(fd)
    return tried


def _largest(a: np.ndarray) -> tuple:
    """Index of the entry of largest magnitude."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(a))), a.shape))


WORKLOADS = {"desk_train": desk_train, "paper_train": paper_train,
             "desk_attribute": desk_attribute}
# Per-layer metrics of calls a workload never makes, reported as 0.  Any
# other metric that a run did not measure fails the run.
_SALIENCY = ("saliency.gradient_s", "saliency.maps", "saliency.attribution_s",
             "saliency.export_s", "saliency.self_s")
IDLE_METRICS = {
    "desk_train": {"nncore.checkpoint_load_s", *_SALIENCY},
    "paper_train": {"synthdata.save_s", "synthdata.bytes_written", "synthdata.load_s",
                    "synthdata.rows_per_s", "nncore.checkpoint_save_s",
                    "nncore.checkpoint_load_s", "nncore.checkpoint_bytes", "cli.self_s",
                    "metrics.test_rk", *_SALIENCY},
    "desk_attribute": {"trainer.epochs", "trainer.best_epoch"},
}
SETUPS = {"desk_train": desk_setup, "desk_attribute": desk_setup}
