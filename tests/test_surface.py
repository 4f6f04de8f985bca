"""The library's public surface: the functions the benchmark traces, and its size.

The traced run of `benchmarks/run.py` reads every per-layer metric named
``module.function.measure`` in BENCHMARK.json from the wrapper of
``bbm92kit.<module>.<function>``, and fails when that function is gone.
"""

import dataclasses
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


# Public settable values of fock, povm, rates, attack and sim; a change that
# adds a knob has to raise this bound on purpose.
SETTABLE_VALUES_MAX = 111


def count_settable_values() -> int:
    """Public functions' and methods' parameters (but self, cls) plus public records' fields."""
    total = 0
    for name in ("fock", "povm", "rates", "attack", "sim"):
        module = importlib.import_module(f"bbm92kit.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):
                total += len(inspect.signature(obj).parameters)
            elif isinstance(obj, type):
                fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
                total += len(fields) + len(getattr(obj, "_fields", ()))
                for method, member in vars(obj).items():
                    if isinstance(member, classmethod) and not method.startswith("_"):
                        total += len(inspect.signature(getattr(obj, method)).parameters)
                    elif inspect.isfunction(member) and not method.startswith("_"):
                        total += len(inspect.signature(member).parameters) - 1
    return total


def test_settable_values_do_not_grow():
    assert count_settable_values() <= SETTABLE_VALUES_MAX
