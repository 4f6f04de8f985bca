"""The functions the benchmark's traced run looks up by name stay public functions.

The traced run of `benchmarks/run.py` reads every per-layer metric named
``module.function.measure`` in BENCHMARK.json from the wrapper of
``bbm92kit.<module>.<function>``, and fails when that function is gone.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_functions() -> list[str]:
    names = (m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"])
    return sorted({name.rsplit(".", 1)[0] for name in names if name.count(".") == 2})


@pytest.mark.parametrize("qualified", _traced_functions())
def test_traced_function_is_public(qualified):
    module_name, function = qualified.split(".")
    module = importlib.import_module(f"bbm92kit.{module_name}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert obj is not None, f"bbm92kit.{qualified} is missing"
    assert inspect.isfunction(inspect.unwrap(obj)), f"bbm92kit.{qualified} is not a function"
    assert obj.__module__ == module.__name__, f"bbm92kit.{qualified} is defined elsewhere"
