"""Every config field of every command, set to values of the wrong type or range.

Each command runs through `advlab.cli.main` with one field of a tiny base
config replaced. The run must exit 0, 2, 3 or 4, a failure must print
exactly one stderr line, and no exception may escape `main`. Each base
config names every field of its command's config dataclass, nested ones
included, so a field added later is probed without editing this file.
"""

import copy
import dataclasses
import json
import os
import typing

import numpy as np
import pytest

from advlab.cli import EXIT_CONFIG, EXIT_OK, main
from advlab.data import write_idx_images, write_idx_labels
from advlab.train import (
    BoundConfig,
    EvaluateConfig,
    IdxSpec,
    RunConfig,
    SimulateConfig,
    StatsConfig,
    SyntheticSpec,
)

PROBES = ("x", True, 2.5, -1, None, [1], {})
EXIT_CODES = {0, 2, 3, 4}

DATASET = {
    "kind": "synthetic", "num_classes": 3, "per_class": 10, "dim": 5,
    "spread": 0.08, "seed": 2, "test_per_class": 5,
}
ATTACK = {
    "epsilon": 0.08, "step_size": 0.02, "steps": 2, "norm": "linf",
    "random_start": False, "seed": 0, "loss": "cross_entropy",
}
TRAIN = {
    "dataset": DATASET, "hidden": [8], "method": "at_decorr", "epochs": 1, "batch_size": 10,
    "lr": 0.05, "momentum": 0.9, "weight_decay": 0.0005, "seed": 4,
    "attack_train": ATTACK, "attack_eval": ATTACK,
    "penalty": {"alpha": 0.3, "damping": 0.001, "damping_mode": "scaled", "layer_policy": "last"},
    "trades_lambda": 0.5, "eval_subset": 30,
}
SAMPLING = {
    "num_samples": 3, "loss_tolerance": 10.0, "refine_epochs": 0, "refine_lr": 0.0001,
    "refine_batch_size": 64, "noise_sigma": 0.05, "layers": [2], "seed": 0,
}
INPUTS = {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0, "epsilon": 0.08,
          "constant": 1.0}
SIMULATE = {"h": 4, "sigma": 1.0, "trials": 30, "dim": 4, "n_samples": 20,
            "r_range": [0.0, 0.9], "seed": 0}
CONFIG_CLASSES = {
    "train": RunConfig, "evaluate": EvaluateConfig, "stats": StatsConfig,
    "bound": BoundConfig, "simulate": SimulateConfig,
}
DATASET_SPECS = {"synthetic": SyntheticSpec, "idx": IdxSpec}


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(command, config) per base name, sharing one trained checkpoint."""
    root = tmp_path_factory.mktemp("probe")
    assert run(root, "train", TRAIN, root / "run") == EXIT_OK
    checkpoint = str(root / "run" / "checkpoint.json")
    idx = {"kind": "idx"}
    for split, labels in (("train", [0, 1, 2]), ("test", [1, 0, 2, 0])):
        idx[f"{split}_images"] = str(root / f"{split}-images.idx")
        idx[f"{split}_labels"] = str(root / f"{split}-labels.idx")
        write_idx_images(idx[f"{split}_images"], np.full((len(labels), 1, 5), 128))
        write_idx_labels(idx[f"{split}_labels"], labels)
    stats = {"checkpoint": checkpoint, "dataset": DATASET, "split": "train", "layer": 2,
             "damping": 0.001, "attack": ATTACK, "sampling": SAMPLING, "seed": 3}
    stats_out = root / "stats"
    assert run(root, "stats", stats | {"method": "laplace"}, stats_out) == EXIT_OK
    evaluate = {"checkpoint": checkpoint, "dataset": DATASET, "split": "test",
                "attacks": [ATTACK], "seed": 1}
    return {
        "train": ("train", TRAIN),
        "evaluate": ("evaluate", evaluate),
        "evaluate-idx": ("evaluate", evaluate | {"dataset": idx}),
        "stats-laplace": ("stats", stats | {"method": "laplace"}),
        "stats-sampling": ("stats", stats | {"method": "sampling"}),
        "bound": ("bound", {"checkpoint": checkpoint, "kind": "xiao", "inputs": INPUTS,
                            "stats": [str(stats_out / "stats_2_laplace_clean.csv")]}),
        "simulate-random": ("simulate", SIMULATE | {"family": "random"}),
        "simulate-equicorrelation": ("simulate", SIMULATE | {"family": "equicorrelation"}),
        "simulate-perturbation": ("simulate", SIMULATE | {"family": "perturbation"}),
    }


def run(root, command, doc, out) -> int:
    path = root / f"{command}.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path), "--out", str(out)])


def field_paths(doc, prefix=()):
    """The path of every value inside `doc`, containers before what they hold."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def assert_names_every_field(cls, doc):
    assert set(doc) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
    hints = typing.get_type_hints(cls)
    for name, value in doc.items():
        nested = [t for t in (hints[name], *typing.get_args(hints[name]))
                  if dataclasses.is_dataclass(t)]
        if name == "dataset":
            assert_names_every_field(DATASET_SPECS[value["kind"]], value)
        elif nested:
            for item in value if isinstance(value, list) else [value]:
                assert_names_every_field(nested[0], item)


BASE_NAMES = ("train", "evaluate", "evaluate-idx", "stats-laplace", "stats-sampling", "bound",
              "simulate-random", "simulate-equicorrelation", "simulate-perturbation")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", BASE_NAMES)
def test_no_probe_value_escapes_main(tmp_path, capsys, bases, name):
    command, base = bases[name]
    assert_names_every_field(CONFIG_CLASSES[command], base)
    failures = []
    for path in field_paths(base):
        for value in PROBES:
            capsys.readouterr()
            try:
                code = run(tmp_path, command, replaced(base, path, value), tmp_path / "out")
            except Exception as exc:  # an exception escaping main is the finding
                failures.append(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if code not in EXIT_CODES or (code != EXIT_OK and err.count("\n") != 1):
                failures.append(f"{path} = {value!r}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)


PATH_FIELDS = [
    ("evaluate", ("checkpoint",)),
    ("stats-laplace", ("checkpoint",)),
    ("bound", ("checkpoint",)),
    ("bound", ("stats", 0)),
    *(("evaluate-idx", ("dataset", f"{split}_{part}"))
      for split in ("train", "test") for part in ("images", "labels")),
]


@pytest.mark.parametrize("value", [True, 0, 2])
@pytest.mark.parametrize("name, path", PATH_FIELDS, ids=[
    f"{name}-{'.'.join(map(str, path))}" for name, path in PATH_FIELDS])
def test_non_string_path_exits_2_without_touching_std_streams(tmp_path, capsys, bases, name,
                                                              path, value):
    # open(True) or open(2) would read a standard stream and close it
    command, base = bases[name]
    open_before = [fd for fd in (0, 1, 2) if _is_open(fd)]
    assert run(tmp_path, command, replaced(base, path, value), tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is not a string" in err
    for fd in open_before:
        os.fstat(fd)


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("train", ("attack_train", "random_start"), "false",
         "train attack_train.random_start 'false' is not a boolean"),
        ("train", ("hidden",), [96.9, "8"], "train hidden[0] 96.9 is not an integer"),
        ("train", ("epochs",), True, "train epochs True is not an integer"),
        ("train", ("lr",), True, "train lr True is not a number"),
        ("train", ("trades_lambda",), "x", "train trades_lambda 'x' is not a number"),
        ("train", ("seed",), "x", "train seed 'x' is not a non-negative integer"),
        ("evaluate", ("seed",), -1, "evaluate seed -1 is not a non-negative integer"),
        ("stats-sampling", ("sampling", "seed"), 2.5,
         "stats sampling.seed 2.5 is not a non-negative integer"),
        ("evaluate", ("attacks", 0, "seed"), True,
         "evaluate attacks[0].seed True is not a non-negative integer"),
        ("simulate-equicorrelation", ("r_range",), ["a", "b"],
         "simulate r_range[0] 'a' is not a number"),
        ("simulate-equicorrelation", ("r_range",), [0.1], "simulate r_range [0.1] is not a list of 2"),
        ("stats-sampling", ("sampling", "layers"), [5], "stats sampling.layers [5] outside 1..2"),
        ("evaluate", ("split",), "validation", "dataset split 'validation' is not"),
        ("evaluate", ("dataset", "per_class"), "x", "dataset per_class 'x' is not an integer"),
        ("evaluate", ("attacks", 0, "epsilon"), None, "evaluate attacks[0].epsilon None is not a number"),
        ("bound", ("inputs", "m"), 2.5, "bound inputs.m 2.5 is not an integer"),
        ("bound", ("kind",), "pac", "unknown bound kind 'pac'"),
        ("train", ("penalty", "colour"), 1, "train config has unknown field 'penalty.colour'"),
    ],
    ids=["random-start-string", "hidden-fraction", "epochs-bool", "lr-bool", "trades-lambda-string",
         "train-seed-string", "evaluate-seed-negative", "sampling-seed-fraction",
         "attack-seed-bool", "r-range-strings", "r-range-short", "sampling-layers-above-depth",
         "unknown-split", "dataset-size-string", "attack-epsilon-null", "bound-m-fraction",
         "unknown-bound-kind", "unknown-nested-field"],
)
def test_misfit_value_exits_2_naming_the_field(tmp_path, capsys, bases, name, path, value, message):
    command, base = bases[name]
    capsys.readouterr()
    assert run(tmp_path, command, replaced(base, path, value), tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


def test_missing_field_exits_2_naming_its_path(tmp_path, capsys, bases):
    command, base = bases["train"]
    doc = copy.deepcopy(base)
    del doc["attack_train"]["epsilon"]
    capsys.readouterr()
    assert run(tmp_path, command, doc, tmp_path / "out") == EXIT_CONFIG
    assert "train config lacks 'attack_train.epsilon'" in capsys.readouterr().err


def test_seed_flag_obeys_the_seed_rule(tmp_path, capsys, bases):
    command, base = bases["simulate-random"]
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(base))
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "simulate seed -1 is not a non-negative integer" in capsys.readouterr().err
