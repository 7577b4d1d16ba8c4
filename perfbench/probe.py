"""Spans and captures around calls into liftrisk, installed from outside the
program by replacing module functions and class methods with wrappers.

A span is (name, start, end, parent index, phase).  Spans stay in memory and
are written once, when the run ends.  Untraced runs install only the few
wrappers whose hooks the workloads need for their metrics and checks; traced
runs wrap every layer boundary listed in LAYER_CALLS.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# Public functions of each layer that the traced run times.  Functions a
# module imported by name from another (pipeline's save_checkpoint, say) are
# replaced under every name that refers to them.
LAYER_CALLS = {
    "cli": ["main"],
    "synthdata": ["generate_dataset", "save_dataset", "load_dataset"],
    "signals": ["design_bandpass", "filter_trial", "pad_or_truncate", "fit_scaler",
                "apply_scaler"],
    "imaging": ["to_channel_matrix", "wrap_image"],
    "pipeline": ["prepare", "build_model", "run_training", "save_trained", "load_trained",
                 "evaluate_checkpoint", "saliency_for_class"],
    "nncore": ["save_checkpoint", "load_checkpoint"],
    "trainer": ["train", "evaluate", "predict", "adam_step", "write_history_csv"],
    "metrics": ["confusion", "write_report_csv"],
    "saliency": ["class_score_gradient", "mean_magnitude", "sensor_attribution",
                 "export_saliency", "write_attribution_csv"],
}
MODEL_METHODS = ["forward", "backward", "logit_input_gradient", "build"]
LAYER_CLASSES = ["Conv2D", "AvgPool", "MaxPool", "Dropout", "Flatten", "Dense", "BatchNorm",
                 "SoftmaxOutput"]
N_LAYER_SLOTS = 16
SELF_TIME_LAYERS = ["cli", "synthdata", "signals", "imaging", "pipeline", "nncore", "trainer",
                    "saliency"]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class Probe:
    """Owns the spans, the hooks and the wrappers of one benchmark process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.phase: str | None = None     # None: wrappers pass straight through
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.cache_bytes: dict[int, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.hooks: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._layer_index: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._installed = False

    # -- hooks --------------------------------------------------------------

    def on(self, name: str, fn) -> None:
        """Call fn(args, kwargs, result, seconds) after each call of `name`
        (e.g. "trainer.train") made while a phase is active."""
        self.hooks[name].append(fn)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import liftrisk.cli  # noqa: F401  (loads every layer module)
        from liftrisk import nncore
        if self._installed:
            return
        self._installed = True
        modules = {n: m for n, m in sys.modules.items() if n.startswith("liftrisk.")}
        for layer, names in LAYER_CALLS.items():
            mod = modules[f"liftrisk.{layer}"]
            for fname in names:
                span = f"{layer}.{fname}"
                if not (self.traced or span in self.hooks):
                    continue
                original = getattr(mod, fname)
                wrapper = self._wrap(original, span)
                for m in modules.values():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        for meth in MODEL_METHODS:
            span = f"nncore.Model.{meth}"
            if self.traced or span in self.hooks:
                setattr(nncore.Model, meth, self._wrap(getattr(nncore.Model, meth), span))
        if self.traced:
            for cls_name in LAYER_CLASSES:
                cls = getattr(nncore, cls_name)
                cls.forward = self._wrap_layer(cls.forward, "forward")
                cls.backward = self._wrap_layer(cls.backward, "backward")
            self.on("nncore.Model.build", self._register_layers)
            self.on("nncore.save_checkpoint", self._count_checkpoint_bytes)
            self.on("synthdata.save_dataset", self._count_dataset_bytes)
            self.on("synthdata.load_dataset", self._count_rows)
            self.on("pipeline.prepare", self._count_trials)
            self.on("saliency.class_score_gradient", self._count_map)

    def _record(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append((name, start, end, parent, self.phase))
        return len(self.spans) - 1

    def _wrap(self, fn, name: str):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.phase is None:
                return fn(*args, **kwargs)
            if probe.traced:
                slot = probe._record(name, time.perf_counter(), 0.0,
                                     probe._stack[-1] if probe._stack else -1)
                probe._stack.append(slot)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if probe.traced:
                    probe._stack.pop()
                    n, s, _, p, ph = probe.spans[slot]
                    probe.spans[slot] = (n, s, t1, p, ph)
            for hook in probe.hooks.get(name, ()):
                hook(args, kwargs, result, t1 - t0)
            return result
        return wrapper

    def _wrap_layer(self, fn, kind: str):
        probe = self

        @functools.wraps(fn)
        def wrapper(layer, *args):
            if probe.phase is None:
                return fn(layer, *args)
            idx = probe._layer_index.get(layer, N_LAYER_SLOTS)
            slot = probe._record(f"nncore.layer{idx:02d}.{kind}", time.perf_counter(), 0.0,
                                 probe._stack[-1] if probe._stack else -1)
            probe._stack.append(slot)
            try:
                result = fn(layer, *args)
            finally:
                probe._stack.pop()
                n, s, _, p, ph = probe.spans[slot]
                probe.spans[slot] = (n, s, time.perf_counter(), p, ph)
            if kind == "forward" and probe.phase == "timed":
                probe.cache_bytes[idx] = max(probe.cache_bytes[idx], _nbytes(result[1]))
            return result
        return wrapper

    # -- counters recorded by the traced run --------------------------------

    def _register_layers(self, args, kwargs, result, seconds):
        for i, layer in enumerate(args[0].layers):
            self._layer_index[layer] = i

    def _count(self, key: str, amount: float) -> None:
        self.counts[f"{self.phase}:{key}"] += amount

    def _count_checkpoint_bytes(self, args, kwargs, result, seconds):
        from pathlib import Path
        self._count("nncore.checkpoint_bytes", Path(args[0]).stat().st_size)

    def _count_dataset_bytes(self, args, kwargs, result, seconds):
        from pathlib import Path
        self._count("synthdata.bytes_written",
                    sum(p.stat().st_size for p in Path(args[0]).rglob("*") if p.is_file()))

    def _count_rows(self, args, kwargs, result, seconds):
        self._count("synthdata.rows", sum(t.n_frames for t in result[0]))

    def _count_trials(self, args, kwargs, result, seconds):
        self._count("pipeline.trials_prepared", len(args[0]))

    def _count_map(self, args, kwargs, result, seconds):
        self._count("saliency.maps", 1)

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def absorb(self, exported: dict) -> None:
        """Merge the spans and counters a set-up child process exported."""
        base = len(self.spans)
        for name, start, end, parent, phase in exported["spans"]:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, phase))
        for key, value in exported["counts"].items():
            self.counts[key] += value


def span_overhead_s(samples: int = 20000) -> float:
    """Measured cost of one traced span around a trivial call."""
    probe = Probe(traced=True)
    probe.phase = "calibrate"

    def noop():
        return None

    wrapped = probe._wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / samples)


def _phase_metrics(spans: list, counts: dict, phase: str, rounds: int) -> dict:
    """Per-layer metrics from the spans of one phase; a metric appears only
    when the calls it is made of happened in that phase."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, ph in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    steps = []
    train_forward_start = None
    for i, (name, start, end, parent, ph) in enumerate(spans):
        if ph != phase:
            continue
        total[name] += end - start
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += end - start - child_time[i]
        if name == "nncore.Model.forward":
            train_forward_start = start
        elif name == "trainer.adam_step" and train_forward_start is not None:
            steps.append(end - train_forward_start)
    per = max(rounds, 1)

    def seconds(*names):
        if any(calls[n] for n in names):
            return sum(total[n] for n in names) / per
        return None

    out = {
        "synthdata.generate_s": seconds("synthdata.generate_dataset"),
        "synthdata.save_s": seconds("synthdata.save_dataset"),
        "synthdata.load_s": seconds("synthdata.load_dataset"),
        "signals.bandpass_s": seconds("signals.filter_trial"),
        "signals.scale_s": seconds("signals.fit_scaler", "signals.apply_scaler"),
        "imaging.encode_s": seconds("imaging.to_channel_matrix", "imaging.wrap_image"),
        "pipeline.prepare_s": seconds("pipeline.prepare"),
        "nncore.checkpoint_save_s": seconds("nncore.save_checkpoint"),
        "nncore.checkpoint_load_s": seconds("nncore.load_checkpoint"),
        "trainer.adam_s": seconds("trainer.adam_step"),
        "trainer.eval_s": seconds("trainer.evaluate"),
        "saliency.gradient_s": seconds("saliency.class_score_gradient"),
        "saliency.attribution_s": seconds("saliency.mean_magnitude",
                                          "saliency.sensor_attribution"),
        "saliency.export_s": seconds("saliency.export_saliency",
                                     "saliency.write_attribution_csv"),
    }
    for i in range(N_LAYER_SLOTS):
        for kind in ("forward", "backward"):
            out[f"nncore.layer{i:02d}.{kind}_s"] = seconds(f"nncore.layer{i:02d}.{kind}")
    if calls["trainer.adam_step"]:
        out["trainer.steps"] = calls["trainer.adam_step"] / per
        out["trainer.step_s"] = statistics.median(steps)
    for layer in SELF_TIME_LAYERS:
        if any(n.startswith(layer + ".") and calls[n] for n in calls):
            out[f"{layer}.self_s"] = self_time[layer] / per
    for key, value in counts.items():
        ph, _, name = key.partition(":")
        if ph == phase:
            out[name] = value / per
    if out.get("synthdata.rows") is not None and out.get("synthdata.load_s"):
        out["synthdata.rows_per_s"] = out.pop("synthdata.rows") / out["synthdata.load_s"]
    out.pop("synthdata.rows", None)
    return {k: v for k, v in out.items() if v is not None}


def layer_metrics(probe: Probe, rounds: int) -> dict:
    """Every per-layer metric: from the timed phase where the layer ran
    there, otherwise from the set-up (e.g. bandpass on paper_train)."""
    merged = _phase_metrics(probe.spans, probe.counts, "setup", 1)
    merged.update(_phase_metrics(probe.spans, probe.counts, "timed", rounds))
    for i, nbytes in probe.cache_bytes.items():
        if i < N_LAYER_SLOTS:
            merged[f"nncore.layer{i:02d}.cache_bytes"] = nbytes
    return merged
