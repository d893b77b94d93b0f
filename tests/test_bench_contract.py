"""The benchmark's traced run looks up every function that BENCHMARK.json
names as ``<layer>.<function>.calls`` or ``.self_s``; a renamed, private
or moved function would make that lookup fail."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from topostat.dataset import Dataset

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def traced_functions():
    names = set()
    for metric in BENCH["per_layer"]:
        prefix, _, suffix = metric["name"].rpartition(".")
        parts = prefix.split(".")
        if suffix in ("calls", "self_s") and len(parts) == 2:
            names.add(tuple(parts))
    return sorted(names)


def test_metric_names_parse_to_functions():
    assert ("infer", "conditional_peak_p") in traced_functions()
    assert len(traced_functions()) >= 15


@pytest.mark.parametrize("layer,name", traced_functions())
def test_traced_function_is_public_and_defined_in_its_layer(layer, name):
    module = importlib.import_module(f"topostat.{layer}")
    func = getattr(module, name, None)
    assert inspect.isfunction(func), f"topostat.{layer}.{name} is not a function"
    assert func.__module__ == module.__name__
    assert not name.startswith("_")


def test_dataset_load_exists():
    assert any(m["name"].startswith("dataset.Dataset.load.") for m in BENCH["per_layer"])
    assert inspect.isfunction(Dataset.load)
