"""Every liftrisk name the benchmark in perfbench/ wraps, hooks or calls
still resolves, read from the benchmark's own files: a rename fails here
instead of first failing in a traced benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import liftrisk.cli  # noqa: F401  (loads every module the benchmark wraps)

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
