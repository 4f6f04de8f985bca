"""The library's public surface: the functions the benchmark traces, its size, its examples.

The traced run of `benchmarks/run.py` reads every per-layer metric named
``module.function.measure`` in BENCHMARK.json from the wrapper of
``bbm92kit.<module>.<function>``, and fails when that function is gone.
"""

import dataclasses
import importlib
import inspect
import json
import re
import tokenize
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bbm92kit").glob("*.py"))


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
SETTABLE_VALUES_MAX = 105


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


# Lines of code in src/bbm92kit/*.py; a change that adds code has to raise this bound on
# purpose.
CODE_LINES_MAX = 1779

# tokens that hold no code: a line holding only these is blank or comment-only
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_code_lines() -> int:
    """Lines of the package's modules that hold a code token, docstrings left out.

    A docstring is a string token that makes a statement on its own.
    """
    total = 0
    for path in SOURCES:
        with path.open("rb") as source:
            tokens = list(tokenize.tokenize(source.readline))
        lines = set()
        for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
            docstring = (
                token.type == tokenize.STRING and after.type == tokenize.NEWLINE
                and before.type in _LAYOUT
            )
            if token.type not in _LAYOUT and not docstring:
                lines.update(range(token.start[0], token.end[0] + 1))
        total += len(lines)
    return total


def test_code_lines_do_not_grow():
    assert count_code_lines() <= CODE_LINES_MAX


def test_readme_python_blocks_run():
    # every library example in the README runs against the current API
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
