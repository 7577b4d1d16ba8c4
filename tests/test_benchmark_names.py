"""Every liftrisk name the benchmark in perfbench/ wraps, hooks or calls
still resolves, read from the benchmark's own files, and `pipeline.prepare`
still calls each stage the benchmark times: a rename or a refactor fails
here instead of first failing in a traced benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import liftrisk.cli  # noqa: F401  (loads every module the benchmark wraps)
from liftrisk import imaging, pipeline, signals, synthdata
from liftrisk.config import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PERFBENCH / "probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def resolve(dotted: str):
    """`liftrisk.<module>.<attr>...`, one attribute at a time."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"liftrisk.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def hook_names(tree: ast.AST) -> set[str]:
    """First arguments of every `.capture("…")` and `.on("…")` call."""
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("capture", "on") and node.args
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)}


def called_names(tree: ast.AST) -> set[str]:
    """`module.attr` for every name imported from liftrisk and every
    attribute read from a liftrisk module imported by name."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "liftrisk":
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("liftrisk."):
            names |= {f"{node.module[len('liftrisk.'):]}.{alias.name}" for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{node.value.id}.{node.attr}")
    return names


def source_tree(name: str) -> ast.AST:
    return ast.parse((PERFBENCH / name).read_text())


PROBE = load_probe()
PINNED = sorted(
    {f"{layer}.{fn}" for layer, fns in PROBE.LAYER_CALLS.items() for fn in fns}
    | {f"nncore.Model.{meth}" for meth in PROBE.MODEL_METHODS}
    | {f"nncore.{cls}.{meth}" for cls in PROBE.LAYER_CLASSES for meth in ("forward", "backward")}
    | hook_names(source_tree("probe.py")) | hook_names(source_tree("workloads.py"))
    | called_names(source_tree("workloads.py")))


def test_names_were_found():
    # the parsers above must keep finding what they look for
    assert {"trainer.train", "trainer.predict", "pipeline.load_trained",
            "config.load_config", "nncore.Model.build"} <= set(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_benchmark_name_resolves(name):
    assert callable(resolve(name)), f"liftrisk.{name} is not callable"


def test_train_config_of_hands_back_its_config():
    # paper_train passes what this returns to trainer.train
    c = PipelineConfig(seed=7)
    assert pipeline.train_config_of(c) is c


# the functions whose wrapped calls make prepare's stage metrics
# (signals.bandpass_s, signals.scale_s, imaging.encode_s)
PREPARE_STAGES = [(signals, "filter_trial"), (signals, "fit_scaler"), (signals, "apply_scaler"),
                  (imaging, "to_channel_matrix"), (imaging, "wrap_image")]


def test_prepare_calls_each_timed_stage(tiny_dataset_dir, tiny_config, monkeypatch):
    calls = {name: [] for _, name in PREPARE_STAGES}
    for module, name in PREPARE_STAGES:
        assert name in PROBE.LAYER_CALLS[module.__name__.rsplit(".", 1)[1]]

        def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    trials, manifest = synthdata.load_dataset(tiny_dataset_dir)
    pipeline.prepare(trials, manifest, tiny_config)
    # the bandpass is one call over every trial
    assert len(calls["filter_trial"]) == 1
    filtered = calls["filter_trial"][0][0]
    assert len(filtered) == len(trials) and all(a is b for a, b in zip(filtered, trials))
    for name in ("fit_scaler", "apply_scaler", "to_channel_matrix", "wrap_image"):
        assert len(calls[name]) == 1, name


def test_traced_counters_read_real_results(tiny_dataset_dir, tiny_config):
    # a traced run calls these hooks on what liftrisk returns; each reads
    # attributes (a trial's n_frames, a model's layers) that no name check sees
    probe = PROBE.Probe(traced=True)
    probe.phase = "timed"
    loaded = synthdata.load_dataset(tiny_dataset_dir)
    trials, manifest = loaded
    probe._count_rows((tiny_dataset_dir,), {}, loaded, 0.0)
    assert probe.counts["timed:synthdata.rows"] == sum(e.frame_count for e in manifest.entries)

    prepared = pipeline.prepare(trials, manifest, tiny_config)
    probe._count_trials((trials, manifest, tiny_config), {}, prepared, 0.0)
    assert probe.counts["timed:pipeline.trials_prepared"] == len(manifest.entries) == 36

    model = pipeline.build_model(tiny_config, prepared.images.shape[1:])
    probe._register_layers((model, prepared.images.shape[1:]), {}, model, 0.0)
    assert len(model.layers) <= PROBE.N_LAYER_SLOTS
    assert [probe._layer_index[layer] for layer in model.layers] == list(range(len(model.layers)))
