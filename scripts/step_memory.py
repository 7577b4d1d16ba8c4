"""Traced memory of one training step, layer call by layer call.

    python3 scripts/step_memory.py [--src SRC]

For vgg_b_avg at the desk shape (55x55x3 float32, filters 8/16/32, dense
128, batch 32) and at the paper shape (95x95x3 float64, filters 32/64/128,
dense 1024) at batches 16 and 32, runs one training step on random images:
a train-mode `Model.forward`, `Model.backward` and `trainer.adam_step`.  It
prints, for every layer's forward and backward call in the order they run,
the traced memory held when the call began and the traced peak during the
call, then the step's peak and the call it fell in.  A layer whose backward
runs twice (its parameter gradients formed after the reverse loop) has two
lines.

Memory is what Python's tracemalloc sees (numpy reports its array buffers to
it), counted from the start of the step: the model's parameters, the Adam
moments and the batch are allocated before tracing starts.  `--src` names
the `src` directory whose liftrisk runs (default: the one beside this
script), so one copy of the script measures any checkout.  The paper shape
at batch 32 traces up to about 0.7 GB; the whole run takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

MB = 1 << 20
SHAPES = [("desk", dict(target_frames=250, image_width=55, conv_filters=(8, 16, 32),
                        dense_units=128, dtype="float32"), 32),
          ("paper", {}, 16),
          ("paper", {}, 32)]


def step_memory(config, shape: tuple, batch: int) -> tuple[list, float, str]:
    """(call, held MB at its start, peak MB during it) of every layer call of
    one training step, in order; the step's peak MB; the call it fell in."""
    from liftrisk import pipeline, trainer

    model = pipeline.build_model(config, shape)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, *model.input_shape)).astype(model.dtype)
    onehot = np.eye(model.layers[-1].classes)[np.arange(batch) % model.layers[-1].classes]
    params = model.params()
    state = trainer.AdamState.for_params(params)
    calls: list[tuple[str, float, float]] = []
    peaks: list[tuple[float, str]] = []  # (peak MB, where) since each reset

    def traced(fn, name):
        def call(*args):
            held, peak = tracemalloc.get_traced_memory()
            peaks.append((peak / MB, "outside layer calls"))
            tracemalloc.reset_peak()
            try:
                return fn(*args)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                calls.append((name, held / MB, peak / MB))
                peaks.append((peak / MB, name))
                tracemalloc.reset_peak()
        return call

    for i, layer in enumerate(model.layers):
        for kind in ("forward", "backward"):
            setattr(layer, kind, traced(getattr(layer, kind),
                                        f"{i:2d} {type(layer).__name__} {kind}"))
    tracemalloc.start()
    try:
        model.forward(x, train=True, rng=rng)
        trainer.adam_step(params, model.backward(onehot), state, config.learning_rate)
        peaks.append((tracemalloc.get_traced_memory()[1] / MB, "outside layer calls"))
    finally:
        tracemalloc.stop()
    peak, where = max(peaks)
    return calls, peak, where.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the liftrisk package to run")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from liftrisk.config import PipelineConfig
    from liftrisk.imaging import image_shape

    for label, overrides, batch in SHAPES:
        config = PipelineConfig(batch_size=batch, **overrides)
        shape = image_shape(config.target_frames, config.image_width)
        print(f"{label}: {config.model_preset} {'x'.join(map(str, shape))} {config.dtype}, "
              f"filters {'/'.join(map(str, config.conv_filters))}, "
              f"dense {config.dense_units}, batch {batch}")
        print(f"  {'call':<28} {'held MB':>9} {'peak MB':>9}")
        calls, peak, where = step_memory(config, shape, batch)
        for name, held, call_peak in calls:
            print(f"  {name:<28} {held:9.1f} {call_peak:9.1f}")
        print(f"  step peak {peak:.1f} MB, in {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
