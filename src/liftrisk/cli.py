"""Command-line entry point.

Commands: synth (generate a dataset), train (full pipeline to a checkpoint),
eval (metrics for a checkpoint on a dataset), saliency (attribution maps),
tune (hyperparameter grid search).  Exit codes: 0 success, 2 usage or config
error or an output path that cannot be written, 3 unreadable or malformed
data, 4 training divergence, 5 checkpoint mismatch.  Every command is
deterministic given its inputs and seed, and no command mutates its input
dataset directory.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import hypertune, metrics, pipeline, saliency, signals, synthdata, trainer
from .config import PipelineConfig, desk_config, load_config, parse_kv_lines
from .errors import (CheckpointMismatchError, ConfigError, DataError, OutputPathError,
                     TrainingDivergedError)
from .fileio import check_writable, lines_text, write_file
from .imaging import image_shape
from .nncore import Model, model_lines

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_MISMATCH = 5
_EXIT_CODES = {ConfigError: EXIT_CONFIG, DataError: EXIT_DATA,
               TrainingDivergedError: EXIT_DIVERGED, CheckpointMismatchError: EXIT_MISMATCH}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liftrisk",
                                     description="Lifting-risk classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profile", choices=("default", "desk"), default="default")
    p.add_argument("--force", action="store_true",
                   help="write into an existing non-empty directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + reports")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", help="pipeline config file (defaults if omitted)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", help="override the checkpoint's pipeline config")
    p.add_argument("--out", help="metrics CSV path (default: stdout summary only)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("saliency", help="gradient attribution maps for one class")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--class", dest="class_name", required=True,
                   choices=synthdata.RISK_CLASSES)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("tune", help="grid search over lambda, alpha, dropout")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--grid", required=True, help="grid file (lambdas/alphas/dropouts/repeats)")
    p.add_argument("--config", help="pipeline config file (defaults if omitted)")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def cmd_synth(args) -> int:
    out = Path(args.out)
    check_writable(out, directory=True)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"output directory {out} is not empty (use --force to overwrite)")
    if args.profile == "desk":
        profile = synthdata.desk_profile(seed=args.seed)
        config = desk_config(seed=args.seed)
    else:
        profile = synthdata.DatasetProfile(seed=args.seed)
        config = PipelineConfig(seed=args.seed)
    trials, manifest = synthdata.generate_dataset(profile)
    generated = f"generated by liftrisk synth --profile {args.profile} --seed {args.seed}"
    try:
        synthdata.save_dataset(out, trials, manifest)
        write_file(out / "pipeline_config.txt", lines_text(config.to_lines(), [generated]))
    except OutputPathError as exc:
        raise OutputPathError(f"{exc}; the dataset under {out} is incomplete "
                              f"(rerun with --force to overwrite it)") from exc
    counts = Counter(synthdata.zone_to_risk(e.zone) for e in manifest.entries)
    print(f"wrote {len(trials)} trials to {out} "
          f"(low={counts['low']}, medium={counts['medium']}, high={counts['high']})")
    return 0


def _comment_header(config: PipelineConfig) -> list[str]:
    return ["liftrisk pipeline config:"] + config.to_lines()


def cmd_train(args) -> int:
    config = PipelineConfig() if args.config is None else load_config(args.config)
    check_writable(args.out)
    result = pipeline.run_training(args.data, config)

    ckpt = Path(args.out)
    pipeline.save_trained(ckpt, result, config)
    stem = ckpt.parent / ckpt.stem
    comments = _comment_header(config)
    trainer.write_history_csv(f"{stem}_history.csv", result.history, comments)
    metrics.write_report_csv(f"{stem}_metrics.csv", result.cm, comments)
    synthdata.write_manifest(f"{stem}_manifest.csv", result.data.manifest, comments, end="\n")

    print(f"trained {config.model_preset}: stopped epoch {result.history.stopped_epoch}, "
          f"restored epoch {result.history.best_epoch}, "
          f"test accuracy {metrics.accuracy(result.cm):.4f}, R_K {metrics.rk(result.cm):.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def _eval_config(model: Model, path) -> PipelineConfig:
    """The override config at `path`, which must build the checkpoint's
    model from images of its shape: eval runs that model on the config's
    images, and the report's header names the config.  Checked before any
    trial file is read."""
    config = load_config(path)
    built = model_lines(config.preset(), image_shape(config.target_frames, config.image_width),
                        config.np_dtype)
    # the first line, `layers N`, differs when the layer counts differ
    for got, want in zip(built, model_lines(model, model.input_shape, model.dtype)):
        if got != want:
            raise CheckpointMismatchError(f"{path}: builds {got!r} where the checkpoint's "
                                          f"model has {want!r}")
    return config


def cmd_eval(args) -> int:
    if args.out:
        check_writable(args.out)
    model, config, scaler = pipeline.load_trained(args.model)
    if args.config is not None:
        config = _eval_config(model, args.config)
    cm = pipeline.evaluate_checkpoint(model, config, scaler, args.data)
    if args.out:
        metrics.write_report_csv(args.out, cm, _comment_header(config))
    print(f"test accuracy {metrics.accuracy(cm):.4f}, R_K {metrics.rk(cm):.4f}")
    for name, cls, value in metrics.report_rows(cm):
        if cls:
            print(f"{name}[{cls}] = {value:.4f}")
    return 0


def cmd_saliency(args) -> int:
    check_writable(args.out, directory=True)
    model, config, scaler = pipeline.load_trained(args.model)
    # the test trials of the class alone: the checkpoint's scaler is fixed,
    # so each trial's image is the one a whole test split would give it
    data, positions = pipeline.prepare_test_split(args.data, config, scaler, args.class_name)
    outputs = pipeline.saliency_for_class(model, data, args.class_name)

    out = Path(args.out)
    saliency.export_saliency(outputs.mean_magnitude,
                             out / f"saliency_{args.class_name}_mean.pgm")
    for i, smap in zip(outputs.image_indices, outputs.per_image):  # named by manifest row
        saliency.export_saliency(smap.magnitude,
                                 out / f"saliency_{args.class_name}_img{positions[i]:04d}.pgm")
    saliency.write_attribution_csv(out / f"attribution_{args.class_name}.csv",
                                   outputs.attribution, _comment_header(config))
    top = [signals.SENSOR_NAMES[s] for s in outputs.attribution.ranking[:4]]
    print(f"wrote {len(outputs.per_image)} per-image maps + mean map to {out}")
    print(f"top sensors for {args.class_name}: {', '.join(top)}")
    return 0


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(x) for x in value.split(","))


_GRID_PARSERS = {"lambdas": _floats, "alphas": _floats, "dropouts": _floats, "repeats": int}


def load_grid(path, config: PipelineConfig) -> hypertune.GridSpec:
    """The grid of the file at `path` over `config`, with every cell's
    config checked."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from exc
    values = parse_kv_lines(text.splitlines(), _GRID_PARSERS, source=str(path))
    try:
        grid = hypertune.GridSpec(base=config, **values)
        grid.cells()  # builds, so checks, every cell's config
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return grid


def cmd_tune(args) -> int:
    config = PipelineConfig() if args.config is None else load_config(args.config)
    grid = load_grid(args.grid, config)  # every grid value is checked before the data loads
    check_writable(args.out)
    # no local holds the raw trials: they are freed once prepare returns
    data = pipeline.prepare(*pipeline.load_split(args.data, config), config)
    results = hypertune.grid_search(grid, data.images, data.labels, data.train_idx, data.test_idx)

    out = Path(args.out)
    hypertune.write_results_csv(out, results, _comment_header(config))
    for i, cell in enumerate(results):
        if cell.history is not None:
            trainer.write_history_csv(out.parent / f"{out.stem}_cell{i:03d}_history.csv",
                                      cell.history,
                                      [f"cell {i}: l2_lambda={cell.config.l2_lambda!r} "
                                       f"learning_rate={cell.config.learning_rate!r} "
                                       f"dropout_rate={cell.config.dropout_rate!r} "
                                       f"seed={cell.config.seed}"])
    best = hypertune.ranked(results)
    if best:
        b = best[0].config
        print(f"best cell: l2_lambda={b.l2_lambda!r} learning_rate={b.learning_rate!r} "
              f"dropout_rate={b.dropout_rate!r} R_K={best[0].rk:.4f}")
    print(f"results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
