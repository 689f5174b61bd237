"""The README's config tables name exactly the fields of the config dataclasses, and its
exception paragraph exactly the exception classes of the package."""

import builtins
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import advlab
from advlab.attacks import AttackSpec
from advlab.bounds import BoundInputs
from advlab.decorr import DecorrConfig
from advlab.train import (
    SIMULATE_CONFIGS,
    STATS_CONFIGS,
    BoundConfig,
    EvaluateConfig,
    IdxSpec,
    RunConfig,
    SyntheticSpec,
)
from advlab.weight_stats import SamplingConfig

README = Path(__file__).resolve().parents[1] / "README.md"

COMMANDS = {"train": [RunConfig], "evaluate": [EvaluateConfig], "stats": list(STATS_CONFIGS.values()),
            "bound": [BoundConfig], "simulate": list(SIMULATE_CONFIGS.values())}
OBJECTS = {"attack spec": AttackSpec, "penalty": DecorrConfig, "sampling": SamplingConfig,
           "bound inputs": BoundInputs, "synthetic dataset": SyntheticSpec, "idx dataset": IdxSpec}
UNDOCUMENTED = {"sampling": {"seed"}}  # the CLI rejects it: the run's seed seeds the sampler


def table(header: str) -> list[list[str]]:
    """The body rows, split into cells, of the README table whose header row starts with `header`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:  # past the header and its |---| row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def names(cell: str) -> list[str]:
    """The field names a cell quotes: `method: laplace` is a condition, not a name."""
    return re.findall(r"`(\w+)`", cell)


def field_names(*classes) -> set[str]:
    return {f.name for cls in classes for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_table_names_every_field_once(command):
    documented = [name for row in table(f"| `{command}` field |") for name in names(row[0])]
    assert sorted(documented) == sorted(field_names(*COMMANDS[command]))


def test_stats_table_marks_the_fields_of_one_method():
    for row in table("| `stats` field |"):
        (name,) = names(row[0])
        only = re.search(r"\(`method: (\w+)` only\)", row[0])
        owners = [method for method, cls in STATS_CONFIGS.items() if name in field_names(cls)]
        assert owners == ([only.group(1)] if only else list(STATS_CONFIGS)), row[0]


def test_simulate_table_names_each_fields_families():
    for row in table("| `simulate` field |"):
        (name,) = names(row[0])
        owners = [family for family, cls in SIMULATE_CONFIGS.items() if name in field_names(cls)]
        assert row[1] == ("all" if owners == list(SIMULATE_CONFIGS)
                          else ", ".join(f"`{family}`" for family in owners)), row[0]


def test_object_table_names_every_field_once():
    documented = {}
    for row in table("| object: field |"):
        owner, _, cell = row[0].partition(": ")
        documented.setdefault(owner, []).extend(names(cell))
    assert {owner: sorted(fields) for owner, fields in documented.items()} == {
        owner: sorted(field_names(cls) - UNDOCUMENTED.get(owner, set())) for owner, cls in OBJECTS.items()}


def exception_classes() -> set[str]:
    """`advlab.<module>.<Class>` for each exception class defined in a module of the package."""
    found = set()
    for info in pkgutil.walk_packages(advlab.__path__, "advlab."):
        module = importlib.import_module(info.name)
        found |= {f"{module.__name__}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    return found


def test_exception_paragraph_names_every_exception_class():
    paragraph = next(p for p in README.read_text(encoding="utf-8").split("\n\n")
                     if p.startswith("The Python API raises"))
    quoted = re.findall(r"`([\w.]+)`", paragraph)
    builtin = [name for name in quoted if "." not in name]
    assert all(issubclass(getattr(builtins, name, object), BaseException) for name in builtin), builtin
    assert {name if name.startswith("advlab.") else f"advlab.{name}" for name in quoted if "." in name} == (
        exception_classes())
