"""Every config field of every command, set to values of the wrong type or range, and to a
second valid value.

Each command runs through `advlab.cli.main` with one field of a tiny base
config replaced. For a misfit value the run must exit 0, 2, 3 or 4, a failure
must print exactly one stderr line, and no exception may escape `main`. A
second valid value must change what the run computes, unless the field is on
INERT_BY_DESIGN. Each base config names every field of its config dataclass
(for stats and simulate, the class its `method` or `family` chooses), nested
ones included, so a field added later is probed without editing this file,
and the bases are sized so that every field can act: the sampler refines some
draws, eval_subset is below both split sizes, and the checkpoint is trained
far enough for an attack to move its accuracy.
"""

import copy
import csv
import dataclasses
import json
import os
import typing

import numpy as np
import pytest

from advlab.attacks import AttackSpec
from advlab.bounds import BoundInputs
from advlab.cli import EXIT_CONFIG, EXIT_OK, main
from advlab.data import Dataset, split_blobs, write_idx_images, write_idx_labels
from advlab.decorr import DecorrConfig
from advlab.train import (
    SIMULATE_CONFIGS,
    STATS_CONFIGS,
    BoundConfig,
    EvaluateConfig,
    IdxSpec,
    LaplaceStatsConfig,
    RunConfig,
    SyntheticSpec,
)
from advlab.weight_stats import SamplingConfig

PROBES = ("x", True, 2.5, -1, None, [1], {})
EXIT_CODES = {0, 2, 3, 4}

DATASET = {
    "kind": "synthetic", "num_classes": 4, "per_class": 30, "dim": 5,
    "spread": 0.2, "seed": 2, "test_per_class": 100,
}
ATTACK = {
    "epsilon": 0.15, "step_size": 0.04, "steps": 4, "norm": "linf",
    "random_start": True, "loss": "cross_entropy",
}
TRAIN = {
    "dataset": DATASET, "hidden": [8, 8], "method": "at_decorr", "epochs": 1, "batch_size": 20,
    "lr": 0.2, "momentum": 0.9, "weight_decay": 0.0005, "seed": 4,
    "attack_train": ATTACK, "attack_eval": ATTACK,
    "penalty": {"alpha": 0.3, "damping": 0.001},
    "trades_lambda": 0.5, "eval_subset": 100,
}
SAMPLING = {
    "num_samples": 5, "loss_tolerance": 0.005, "refine_epochs": 1, "refine_lr": 0.05,
    "refine_batch_size": 64, "noise_sigma": 0.05, "layers": [2, 3],
}
INPUTS = {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0, "epsilon": 0.08}
SIMULATE = {
    "random": {"dim": 4, "n_samples": 20, "seed": 0},
    "equicorrelation": {"dim": 4, "n_samples": 20, "r_range": [0.0, 0.9]},
    "perturbation": {"h": 4, "trials": 30, "seed": 0},
}
CONFIG_CLASSES = {
    "train": RunConfig, "evaluate": EvaluateConfig, "evaluate-idx": EvaluateConfig,
    **{f"stats-{method}": cls for method, cls in STATS_CONFIGS.items()},
    "bound": BoundConfig, **{f"simulate-{family}": cls for family, cls in SIMULATE_CONFIGS.items()},
}
DATASET_SPECS = {"synthetic": SyntheticSpec, "idx": IdxSpec}
NOT_IN_CONFIGS = {SamplingConfig: {"seed"}}  # in process only: the stats command seeds the sampler


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(command, config) per base name, sharing one trained checkpoint."""
    root = tmp_path_factory.mktemp("probe")
    checkpoint = trained_checkpoint(root, seed=4)
    idx = {"kind": "idx"}
    write_idx_blobs(root, idx, DATASET["seed"])
    stats = {"checkpoint": checkpoint, "dataset": DATASET, "split": "train", "layer": 3,
             "attack": ATTACK, "seed": 3}
    laplace = stats | {"method": "laplace", "damping": 0.001}
    stats_out = root / "stats"
    assert run(root, "stats", laplace, stats_out) == EXIT_OK
    evaluate = {"checkpoint": checkpoint, "dataset": DATASET, "split": "test",
                "attacks": [ATTACK], "seed": 1}
    return {
        "train": ("train", TRAIN),
        "evaluate": ("evaluate", evaluate),
        "evaluate-idx": ("evaluate", evaluate | {"dataset": idx}),
        "stats-laplace": ("stats", laplace),
        "stats-sampling": ("stats", stats | {"method": "sampling", "sampling": SAMPLING}),
        "bound": ("bound", {"checkpoint": checkpoint, "kind": "xiao", "inputs": INPUTS,
                            "stats": [str(stats_out / "stats_3_laplace_clean.csv")]}),
        **{f"simulate-{family}": ("simulate", {"family": family} | doc)
           for family, doc in SIMULATE.items()},
    }


@pytest.fixture(scope="module")
def second_files(tmp_path_factory, bases):
    """A second valid file for each path field of the bases, keyed by its dotted path."""
    root = tmp_path_factory.mktemp("second")
    files = {"checkpoint": trained_checkpoint(root, seed=5)}
    write_idx_blobs(root, files, DATASET["seed"] + 1, "dataset.")
    write_idx_labels(files["dataset.train_labels"], [0, 1, 4])  # a fifth class
    test_labels = np.repeat(np.arange(DATASET["num_classes"]), DATASET["test_per_class"])
    write_idx_labels(files["dataset.test_labels"], np.roll(test_labels, 1))
    _, stats = bases["stats-laplace"]
    assert run(root, "stats", stats | {"seed": 4}, root / "stats") == EXIT_OK
    files["stats.0"] = str(root / "stats" / "stats_3_laplace_adversarial.csv")
    return files


def trained_checkpoint(root, seed: int) -> str:
    """A checkpoint that classifies DATASET well enough for attacks to move its accuracy."""
    doc = TRAIN | {"method": "standard", "epochs": 6, "lr": 0.2, "seed": seed}
    assert run(root, "train", doc, root / "run") == EXIT_OK
    return str(root / "run" / "checkpoint.json")


def write_idx_blobs(root, spec: dict, seed: int, prefix: str = ""):
    """IDX files of DATASET's blobs drawn with `seed`, their paths entered in `spec`."""
    sizes = (DATASET[k] for k in ("num_classes", "per_class", "test_per_class", "dim", "spread"))
    for split, ds in zip(("train", "test"), split_blobs(*sizes, seed)):
        spec[f"{prefix}{split}_images"] = str(root / f"{split}-images.idx")
        spec[f"{prefix}{split}_labels"] = str(root / f"{split}-labels.idx")
        write_idx_images(spec[f"{prefix}{split}_images"], np.rint(255 * ds.inputs)[:, None, :])
        write_idx_labels(spec[f"{prefix}{split}_labels"], ds.labels)


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
    doc = json.loads(json.dumps(doc))  # unlike a deep copy, unshares attack_train and attack_eval
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def assert_names_every_field(cls, doc):
    names = {f.name for f in dataclasses.fields(cls)} - NOT_IN_CONFIGS.get(cls, set())
    assert set(doc) == names, cls.__name__
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
    assert_names_every_field(CONFIG_CLASSES[name], base)
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
        ("stats-sampling", ("sampling", "seed"), 1,
         "stats sampling.seed is not accepted: the sampler draws from the run 'seed'"),
        ("evaluate", ("attacks", 0, "seed"), True, "evaluate config has unknown field 'attacks[0].seed'"),
        ("train", ("attack_train", "seed"), 1, "train config has unknown field 'attack_train.seed'"),
        ("train", ("attack_eval", "seed"), 1, "train config has unknown field 'attack_eval.seed'"),
        ("stats-laplace", ("attack", "seed"), 1, "stats config has unknown field 'attack.seed'"),
        ("simulate-equicorrelation", ("r_range",), ["a", "b"],
         "simulate r_range[0] 'a' is not a number"),
        ("simulate-equicorrelation", ("r_range",), [0.1], "simulate r_range [0.1] is not a list of 2"),
        ("simulate-perturbation", ("sigma",), 1.0, "simulate config has unknown field 'sigma'"),
        ("simulate-random", ("r_range",), [0.0, 0.9], "simulate config has unknown field 'r_range'"),
        ("simulate-random", ("h",), 4, "simulate config has unknown field 'h'"),
        ("simulate-equicorrelation", ("seed",), 0, "simulate config has unknown field 'seed'"),
        ("stats-sampling", ("damping",), 0.001, "stats config has unknown field 'damping'"),
        ("stats-laplace", ("sampling",), SAMPLING, "stats config has unknown field 'sampling'"),
        ("simulate-random", ("family",), [1], "unknown simulate family [1]"),
        ("stats-laplace", ("method",), {}, "unknown stats method {}"),
        ("stats-sampling", ("sampling", "layers"), [5], "stats sampling.layers [5] outside 1..3"),
        ("evaluate", ("split",), "validation", "dataset split 'validation' is not"),
        ("evaluate", ("dataset", "per_class"), "x", "dataset per_class 'x' is not an integer"),
        ("evaluate", ("attacks", 0, "epsilon"), None, "evaluate attacks[0].epsilon None is not a number"),
        ("bound", ("inputs", "m"), 2.5, "bound inputs.m 2.5 is not an integer"),
        ("bound", ("kind",), "pac", "unknown bound kind 'pac'"),
        ("train", ("penalty", "colour"), 1, "train config has unknown field 'penalty.colour'"),
        ("train", ("penalty", "damping_mode"), "absolute",
         "train config has unknown field 'penalty.damping_mode'"),
        ("train", ("penalty", "layer_policy"), "all",
         "train config has unknown field 'penalty.layer_policy'"),
    ],
    ids=["random-start-string", "hidden-fraction", "epochs-bool", "lr-bool", "trades-lambda-string",
         "train-seed-string", "evaluate-seed-negative", "sampling-seed", "attack-seed-bool",
         "attack-train-seed", "attack-eval-seed", "stats-attack-seed", "r-range-strings",
         "r-range-short", "perturbation-sigma", "random-r-range", "random-h", "equicorrelation-seed",
         "sampling-damping", "laplace-sampling", "family-list", "method-object",
         "sampling-layers-above-depth",
         "unknown-split", "dataset-size-string", "attack-epsilon-null", "bound-m-fraction",
         "unknown-bound-kind", "unknown-nested-field", "removed-damping-mode", "removed-layer-policy"],
)
def test_misfit_value_exits_2_naming_the_field(tmp_path, capsys, bases, name, path, value, message):
    command, base = bases[name]
    capsys.readouterr()
    assert run(tmp_path, command, replaced(base, path, value), tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "name, path, message",
    [
        ("train", ("attack_train", "epsilon"), "train config lacks 'attack_train.epsilon'"),
        ("simulate-random", ("family",), "simulate config lacks 'family'"),
        ("stats-sampling", ("method",), "stats config lacks 'method'"),
        ("evaluate", ("dataset", "kind"), "dataset config lacks 'kind'"),
    ],
    ids=["nested-field", "simulate-family", "stats-method", "dataset-kind"],
)
def test_missing_field_exits_2_naming_its_path(tmp_path, capsys, bases, name, path, message):
    command, base = bases[name]
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    capsys.readouterr()
    assert run(tmp_path, command, doc, tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def run_seeded(tmp_path, command, doc, seed: str) -> int:
    """`run` with the --seed flag."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--seed", seed])


@pytest.mark.parametrize("name", ["bound", "simulate-equicorrelation"])
def test_seedless_config_rejects_the_seed_flag(tmp_path, capsys, bases, name):
    command, base = bases[name]
    capsys.readouterr()
    assert run_seeded(tmp_path, command, base, "1") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{command} takes no --seed" in err


def test_seed_flag_obeys_the_seed_rule(tmp_path, capsys, bases):
    command, base = bases["simulate-random"]
    capsys.readouterr()
    assert run_seeded(tmp_path, command, base, "-1") == EXIT_CONFIG
    assert "simulate seed -1 is not a non-negative integer" in capsys.readouterr().err


ATTACK_SECOND = {"epsilon": (0.15, 0.21), "step_size": (0.04, 0.03), "steps": (4, 2),
                 "norm": ("linf", "l2"), "random_start": (True, False),
                 "loss": ("cross_entropy", "cw_margin")}
DATASET_SECOND = {"kind": ("synthetic", "idx"), "num_classes": (4, 3), "per_class": (30, 25),
                  "dim": (5, 6), "spread": (0.2, 0.15), "seed": (2, 6), "test_per_class": (100, 90)}


def _under(prefix, table):
    return {f"{prefix}.{name}": values for name, values in table.items()}


# Two valid values per leaf field, by command and dotted path: a probe sets the one the base
# lacks. Path-valued fields take theirs from the `second_files` fixture instead.
SECOND = {
    "train": {
        **_under("dataset", DATASET_SECOND), "hidden.0": (8, 9), "hidden.1": (8, 9),
        "method": ("at_decorr", "trades_decorr"), "epochs": (1, 2), "batch_size": (20, 16),
        "lr": (0.2, 0.15), "momentum": (0.9, 0.5), "weight_decay": (0.0005, 0.001), "seed": (4, 5),
        **_under("attack_train", ATTACK_SECOND), **_under("attack_eval", ATTACK_SECOND),
        **_under("penalty", {"alpha": (0.3, 0.2), "damping": (0.001, 0.01)}),
        "trades_lambda": (0.5, 0.25), "eval_subset": (100, 90),
    },
    "evaluate": {
        **_under("dataset", DATASET_SECOND), "split": ("test", "train"),
        **_under("attacks.0", ATTACK_SECOND), "seed": (1, 2),
    },
    "stats": {
        "method": ("laplace", "sampling"), **_under("dataset", DATASET_SECOND),
        "split": ("train", "test"), "layer": (3, 2), "damping": (0.001, 0.01),
        **_under("attack", ATTACK_SECOND), "seed": (3, 4),
        **_under("sampling", {"num_samples": (5, 6), "loss_tolerance": (0.005, 0.0075),
                              "refine_epochs": (1, 2), "refine_lr": (0.05, 0.04),
                              "refine_batch_size": (64, 16), "noise_sigma": (0.05, 0.04),
                              "layers.0": (2, 1), "layers.1": (3, 1)}),
    },
    "bound": {
        "kind": ("xiao", "neyshabur"),
        **_under("inputs", {"gamma": (0.5, 0.6), "delta": (0.05, 0.1), "m": (100, 200),
                            "input_bound": (2.0, 3.0), "epsilon": (0.08, 0.1)}),
    },
    "simulate": {
        "family": ("random", "equicorrelation"), "h": (4, 5), "trials": (30, 31),
        "dim": (4, 5), "n_samples": (20, 21), "r_range.0": (0.0, 0.1), "r_range.1": (0.9, 0.8),
        "seed": (0, 1),
    },
}

# A field whose second value the command rejects, given the rest of its base. Keyed by base
# or command name and dotted path; a key also covers the fields nested under it.
REJECTED = {
    **{(command, "dataset.kind"): "a dataset of the other kind needs that kind's fields"
       for command in ("train", "evaluate", "stats")},
    **{(command, f"dataset.{name}"): "must match the checkpoint's input width and class count"
       for command in ("evaluate", "stats") for name in ("dim", "num_classes")},
    ("evaluate-idx", "dataset.train_labels"): "its top label sets the class count, which the "
                                              "checkpoint fixes",
    ("stats-laplace", "layer"): "the Laplace estimator covers the output layer only",
    ("stats-sampling", "sampling.layers.1"): "the stats layer must be a perturbed one",
    ("stats", "method"): "each method's config takes its own fields, which the other rejects",
    ("simulate", "family"): "each family's config takes its own fields, which the others reject",
}

# A field that leaves every computed artifact as it is, by design, keyed as REJECTED is.
INERT_BY_DESIGN = {
    ("train", "trades_lambda"): "weighs the KL term of the trades methods alone",
    ("evaluate-idx", "dataset.train_images"): "the test split never reads the train images",
    ("bound", "stats"): "the spectral kinds read no correlation statistics",
}

# what a run echoes from its config rather than computes from it
ECHOED = {"run.json", "timing.csv", "simulate_summary.json", "attack", "norm", "epsilon", "steps",
          "step_size", "loss", "layer", "source", "data", "kind", "inputs", "gamma", "delta", "m",
          "input_bound"}


def leaf_paths(doc, prefix=()):
    """(path, value) of every value inside `doc` that holds no other."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,), value


def listed(table, name, command, dotted):
    """The reason `table` gives for the field, or None."""
    for (owner, key), reason in table.items():
        if owner in (name, command) and (dotted == key or dotted.startswith(key + ".")):
            return reason
    return None


def computed(out):
    """What a run computed: its artifacts, less the files, columns and keys that echo the config.

    Sorted, so that a name that echoes a field (stats_<layer>_<method>_<tag>.csv) does not count.
    """
    found = []
    for path in sorted(out.iterdir()):
        if path.name in ECHOED:
            continue
        if path.suffix == ".csv":
            with open(path, newline="") as f:
                rows = [{k: v for k, v in row.items() if k not in ECHOED} for row in csv.DictReader(f)]
            found.append(json.dumps(rows))
        else:
            doc = json.loads(path.read_text())
            found.append(json.dumps({k: v for k, v in doc.items() if k not in ECHOED}, sort_keys=True))
    return sorted(found)


@pytest.mark.parametrize("name", BASE_NAMES)
def test_every_field_acts_or_is_inert_by_design(tmp_path, capsys, bases, second_files, name):
    """Each leaf field, set to a second valid value, changes what the run computes, unless it is
    inert by design; a field is never both. A field with no second valid value exits 2."""
    command, base = bases[name]
    assert run(tmp_path, command, base, tmp_path / "base") == EXIT_OK
    reference = computed(tmp_path / "base")
    wrong = []
    for i, (path, value) in enumerate(leaf_paths(base)):
        dotted = ".".join(map(str, path))
        if dotted in second_files:
            second = second_files[dotted]
        else:
            first, second = SECOND[command][dotted]
            second = first if value != first else second
        assert second != value, dotted
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        code = run(tmp_path, command, replaced(base, path, second), out)
        err = capsys.readouterr().err
        rejected, inert = (listed(t, name, command, dotted) for t in (REJECTED, INERT_BY_DESIGN))
        if rejected:
            if code != EXIT_CONFIG:
                wrong.append(f"{dotted} = {second!r}: exit {code}, expected 2 ({rejected})")
        elif code != EXIT_OK:
            wrong.append(f"{dotted} = {second!r}: exit {code}: {err.strip()}")
        elif (computed(out) == reference) != bool(inert):
            wrong.append(f"{dotted} = {second!r}: " + (f"acts, yet is inert by design ({inert})"
                                                        if inert else "has no effect"))
    assert not wrong, "\n".join(wrong)


# The Python API's own range checks: the CLI refuses non-finite numbers before they reach them.
RANGE_CHECKED = {
    "AttackSpec.epsilon": lambda v: AttackSpec(v, 0.1),
    "AttackSpec.step_size": lambda v: AttackSpec(0.0, v, norm="l2"),  # no 2*epsilon cap at epsilon 0
    "RunConfig.lr": lambda v: RunConfig({}, method="standard", lr=v),
    "RunConfig.weight_decay": lambda v: RunConfig({}, method="standard", weight_decay=v),
    "RunConfig.trades_lambda": lambda v: RunConfig({}, method="trades",
                                                   attack_train=AttackSpec(0.1, 0.1, random_start=True),
                                                   trades_lambda=v),
    "LaplaceStatsConfig.damping": lambda v: LaplaceStatsConfig("net.json", "laplace", {}, damping=v),
    "DecorrConfig.alpha": lambda v: DecorrConfig(alpha=v),
    "DecorrConfig.damping": lambda v: DecorrConfig(damping=v),
    "BoundInputs.gamma": lambda v: BoundInputs(v, 0.05, 10, 1.0),
    "BoundInputs.input_bound": lambda v: BoundInputs(1.0, 0.05, 10, v),
    "BoundInputs.epsilon": lambda v: BoundInputs(1.0, 0.05, 10, 1.0, epsilon=v),
    "SamplingConfig.loss_tolerance": lambda v: SamplingConfig(loss_tolerance=v),
    "SamplingConfig.refine_lr": lambda v: SamplingConfig(refine_lr=v),
    "SamplingConfig.noise_sigma": lambda v: SamplingConfig(noise_sigma=v),
    "Dataset.inputs": lambda v: Dataset([[0.5, v]], [0], 2, "one row"),
}


FINITE = ("AttackSpec.epsilon", "AttackSpec.step_size", "RunConfig.lr", "RunConfig.weight_decay",
          "RunConfig.trades_lambda",  # run.json could not hold an infinite rate: JSON has no Infinity
          "LaplaceStatsConfig.damping", "DecorrConfig.damping",  # an infinite ridge leaves no finite inverse
          "DecorrConfig.alpha",
          # an infinite margin, norm bound or radius gives no finite bound
          "BoundInputs.gamma", "BoundInputs.input_bound", "BoundInputs.epsilon")


@pytest.mark.parametrize("field, value", [(field, float("nan")) for field in RANGE_CHECKED]
                         + [(field, float("inf")) for field in FINITE])
def test_range_checks_refuse_nan(field, value):
    """NaN fails every range check, and an attack's radius and step, a run's learning rate,
    weight decay and TRADES lambda, both dampings, the penalty weight and the bound inputs are
    finite; the valid value 0.1 of each field builds."""
    RANGE_CHECKED[field](0.1)
    with pytest.raises(ValueError):
        RANGE_CHECKED[field](value)
