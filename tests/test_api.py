"""The package's import surface: each module exports only what it defines,
imports no other module's private names, and ``softdag`` keeps its
top-level names."""

import ast
import importlib
import inspect
import pkgutil
import types

import pytest

import softdag

MODULES = sorted(m.name for m in pkgutil.iter_modules(softdag.__path__, "softdag."))

TOP_LEVEL = [
    "AdamState", "Apply", "ArityError", "BasisFunction", "Choices", "ConfigError", "Const",
    "CsvTrainLogger", "DIV_GUARD", "Dataset", "DatasetSource", "EpochStats", "Expr",
    "IdxFormatError", "Input", "Interval", "Network", "NetworkConfig", "ParseError",
    "ResamplingSource", "SampledDAG", "SampledPopulation", "TargetSpec", "TrainConfig",
    "TrainRun", "WeightsFormatError", "adam_step", "build_network", "builtin_registry",
    "classification_accuracy", "dag_to_expression", "eval_basis", "evaluate",
    "evaluate_recurrent", "evaluate_tree", "evaluate_tree_batch", "fitness", "generate",
    "input_indices", "load_idx", "load_network", "log_probability", "loss_gradient",
    "most_likely_dag", "numeric_equivalent", "parameter_count", "parse", "resolve_bases",
    "sample", "sample_domain", "sample_many", "save_network", "select_top", "simplify",
    "softmax_rows", "split", "to_string", "train", "train_epoch",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_its_own_names(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        value = getattr(module, export)  # a name left behind by a move fails here
        # a function or class exported by another module is a re-export
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == name, export


def test_top_level_names_are_unchanged():
    public = [
        n for n in dir(softdag)
        if not n.startswith("_") and not isinstance(getattr(softdag, n), types.ModuleType)
    ]
    assert sorted(public) == TOP_LEVEL


@pytest.mark.parametrize("name", ["softdag", *MODULES])
def test_modules_import_no_private_names(name):
    # a name with a leading underscore is its module's own business
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "softdag")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private
