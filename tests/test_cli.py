import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CHECKPOINT_CORRUPTION_MESSAGES, CHECKPOINT_CORRUPTIONS, strict_json

import advlab
from advlab import cli
from advlab.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from advlab.data import epoch_seed_from, write_idx_images, write_idx_labels
from advlab.io import FormatError
from advlab.network import Network, checkpoint_text, load_checkpoint, save_checkpoint
from advlab.train import DivergedTraining
from advlab.weight_stats import LayerCorrStats

DATASET = {
    "kind": "synthetic", "num_classes": 3, "per_class": 10, "dim": 5,
    "spread": 0.08, "seed": 2, "test_per_class": 5,
}

TRAIN_CONFIG = {
    "dataset": DATASET,
    "hidden": [8],
    "method": "at_decorr",
    "epochs": 2,
    "batch_size": 10,
    "lr": 0.05,
    "seed": 4,
    "attack_train": {"epsilon": 0.08, "step_size": 0.02, "steps": 3},
    "attack_eval": {"epsilon": 0.08, "step_size": 0.02, "steps": 4},
    "penalty": {"alpha": 0.3},
    "eval_subset": 30,
}


# a kl attack without a random start starts at its reference, where its gradient is 0
KL_ATTACK = {"epsilon": 0.08, "step_size": 0.02, "steps": 3, "loss": "kl"}
KL_WITHOUT_START = "a kl attack needs random_start: its gradient at the reference logits is 0"

# an IDX dataset whose splits hold no rows, read from the working directory (see write_empty_idx)
EMPTY_IDX = {"kind": "idx", "train_images": "empty-images.idx", "train_labels": "empty-labels.idx",
             "test_images": "empty-images.idx", "test_labels": "empty-labels.idx"}


def write_empty_idx(directory):
    write_idx_images(directory / EMPTY_IDX["train_images"], np.zeros((0, 1, 5)))
    write_idx_labels(directory / EMPTY_IDX["train_labels"], [])


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main([str(a) for a in args])


SRC = Path(advlab.__file__).resolve().parents[1]
REPO = SRC.parent


def fresh_python(*args, **env):
    """Run a new interpreter that imports advlab from this source tree, with `env` added."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=os.environ | env | {"PYTHONPATH": path},
                          capture_output=True, text=True, check=True)


@pytest.fixture()
def trained(tmp_path):
    config = write_config(tmp_path, TRAIN_CONFIG)
    out = tmp_path / "run"
    assert run(["train", "--config", config, "--out", out]) == EXIT_OK
    return out


class TestTrainCommand:
    def test_writes_artifacts(self, trained):
        for name in ("metrics.csv", "checkpoint.json", "run.json", "timing.csv"):
            assert (trained / name).exists()

    def test_rerun_is_byte_identical(self, tmp_path, trained):
        config = write_config(tmp_path, TRAIN_CONFIG, "again.json")
        out2 = tmp_path / "run2"
        assert run(["train", "--config", config, "--out", out2]) == EXIT_OK
        for name in ("metrics.csv", "checkpoint.json", "run.json"):
            assert (trained / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path, trained):
        config = write_config(tmp_path, TRAIN_CONFIG, "seeded.json")
        out2 = tmp_path / "run-seeded"
        assert run(["train", "--config", config, "--out", out2, "--seed", 99]) == EXIT_OK
        assert (trained / "checkpoint.json").read_bytes() != (out2 / "checkpoint.json").read_bytes()

    @pytest.mark.parametrize("content, message", [
        (b"{nope", "is not valid JSON: Expecting property name"),
        (b"\xff\xfe{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "not-utf-8"])
    def test_bad_json_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert run(["train", "--config", path, "--out", tmp_path / "x"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config_exits_4(self, tmp_path, capsys, where):
        path = tmp_path / "nope.json" if where == "missing" else tmp_path
        assert run(["train", "--config", path, "--out", tmp_path / "x"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("method", ["at_decorr", "trades_decorr"])
    def test_decorr_without_a_hidden_layer_exits_2(self, tmp_path, capsys, method):
        # with no hidden layer the penalty is the input data's, which no weight moves
        config = write_config(tmp_path, dict(TRAIN_CONFIG, hidden=[], method=method))
        assert run(["train", "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: train: decorr methods need a hidden layer\n"

    def test_inconsistent_config_exits_2(self, tmp_path):
        doc = dict(TRAIN_CONFIG, method="trades", trades_lambda=0.0,
                   attack_train=TRAIN_CONFIG["attack_train"] | {"random_start": True})
        config = write_config(tmp_path, doc)
        assert run(["train", "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_exits_3(self, tmp_path):
        doc = dict(TRAIN_CONFIG, method="standard", lr=1e18, epochs=5)
        doc.pop("attack_train")
        config = write_config(tmp_path, doc)
        assert run(["train", "--config", config, "--out", tmp_path / "x"]) == EXIT_DIVERGED

    def test_an_update_that_overflows_the_weights_exits_3_and_keeps_the_init(self, tmp_path, capsys):
        # a weight decay this large takes the first step's weights past float64
        config = write_config(tmp_path, dict(TRAIN_CONFIG, lr=10.0, weight_decay=1.7e308))
        out = tmp_path / "x"
        assert run(["train", "--config", config, "--out", out]) == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("diverged: non-finite loss, logits or weights")
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.json", "metrics.csv", "run.json", "timing.csv"]
        assert len((out / "metrics.csv").read_text().splitlines()) == 1  # the header alone
        assert json.loads((out / "run.json").read_text())["epochs_completed"] == 0
        init = Network.he_init([DATASET["dim"], *TRAIN_CONFIG["hidden"], DATASET["num_classes"]],
                               seed=epoch_seed_from(TRAIN_CONFIG["seed"], 0))
        assert (out / "checkpoint.json").read_text() == checkpoint_text(init)


class TestEvaluateCommand:
    def config(self, tmp_path, trained, **extra):
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "dataset": DATASET,
            "attacks": [
                {"epsilon": 0.08, "step_size": 0.08, "steps": 1},
                {"epsilon": 0.08, "step_size": 0.02, "steps": 10},
            ],
            "seed": 1,
        }
        doc.update(extra)
        return write_config(tmp_path, doc, "eval.json")

    def test_writes_csv(self, tmp_path, trained):
        config = self.config(tmp_path, trained)
        out = tmp_path / "eval-out"
        assert run(["evaluate", "--config", config, "--out", out]) == EXIT_OK
        lines = (out / "evaluate.csv").read_text().strip().splitlines()
        assert lines[0].startswith("attack,")
        assert len(lines) == 4  # clean + 2 attacks

    def test_rerun_identical(self, tmp_path, trained):
        config = self.config(tmp_path, trained)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert run(["evaluate", "--config", config, "--out", out1]) == EXIT_OK
        assert run(["evaluate", "--config", config, "--out", out2]) == EXIT_OK
        assert (out1 / "evaluate.csv").read_bytes() == (out2 / "evaluate.csv").read_bytes()

    def test_missing_checkpoint_exits_4(self, tmp_path):
        doc = {"checkpoint": str(tmp_path / "nope.json"), "dataset": DATASET, "attacks": []}
        config = write_config(tmp_path, doc, "eval-bad.json")
        assert run(["evaluate", "--config", config, "--out", tmp_path / "x"]) == EXIT_IO

    @pytest.mark.parametrize("case", ["bad base64 character", "short payload", "nan payload",
                                      "schema 1", "extra weights", "hidden identity", "not utf-8"])
    def test_corrupt_checkpoint_exits_4_with_one_line(self, tmp_path, trained, capsys, case):
        path = trained / "checkpoint.json"
        if case == "not utf-8":
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
            message = "cannot read checkpoint .*: 'utf-8' codec can't decode byte 0xff"
        else:
            doc = json.loads(path.read_text())
            CHECKPOINT_CORRUPTIONS[case](doc)
            path.write_text(json.dumps(doc))
            message = CHECKPOINT_CORRUPTION_MESSAGES[case]
        config = self.config(tmp_path, trained)
        capsys.readouterr()
        assert run(["evaluate", "--config", config, "--out", tmp_path / "x"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert re.search(message, err)

    def test_idx_test_split_without_top_class_is_accepted(self, tmp_path, trained):
        # the checkpoint has 3 classes; only the train labels reach class 2
        spec = {"kind": "idx"}
        for split, labels in (("train", [0, 1, 2]), ("test", [1, 0, 1, 0])):
            spec[f"{split}_images"] = tmp_path / f"{split}-images.idx"
            spec[f"{split}_labels"] = tmp_path / f"{split}-labels.idx"
            write_idx_images(spec[f"{split}_images"], np.full((len(labels), 1, 5), 128))
            write_idx_labels(spec[f"{split}_labels"], labels)
        config = self.config(tmp_path, trained, dataset={k: str(v) for k, v in spec.items()})
        assert run(["evaluate", "--config", config, "--out", tmp_path / "idx-out"]) == EXIT_OK


class TestStatsCommand:
    def test_laplace_clean_and_adversarial(self, tmp_path, trained):
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "dataset": DATASET,
            "method": "laplace",
            "damping": 1e-3,
            "attack": {"epsilon": 0.08, "step_size": 0.02, "steps": 5},
            "seed": 3,
        }
        config = write_config(tmp_path, doc, "stats.json")
        out = tmp_path / "stats-out"
        assert run(["stats", "--config", config, "--out", out]) == EXIT_OK
        clean = out / "stats_2_laplace_clean.csv"
        adv = out / "stats_2_laplace_adversarial.csv"
        assert clean.exists() and adv.exists()
        assert clean.read_text().splitlines()[0].startswith("layer,")

    @pytest.mark.parametrize("damping", [1e-3, 1.0, 100.0])
    def test_laplace_of_a_saturated_softmax(self, tmp_path, trained, damping):
        # an output layer that is the constant logits (1000, 0, 0) makes the softmax one-hot on
        # every row, clean or attacked, so H is exactly 0: it takes the absolute ridge `damping`,
        # and its correlation is the identity
        net = load_checkpoint(trained / "checkpoint.json")
        out_layer = np.zeros_like(net.weights[-1])
        out_layer[0, -1] = 1e3  # the bias column
        save_checkpoint(net.with_weights([*net.weights[:-1], out_layer]), tmp_path / "saturated.json")
        doc = {
            "checkpoint": str(tmp_path / "saturated.json"),
            "dataset": DATASET,
            "method": "laplace",
            "damping": damping,
            "attack": {"epsilon": 0.08, "step_size": 0.02, "steps": 5},
            "seed": 3,
        }
        out = tmp_path / "stats-out"
        assert run(["stats", "--config", write_config(tmp_path, doc, "stats.json"), "--out", out]) == EXIT_OK
        for data in ("clean", "adversarial"):
            assert LayerCorrStats.read_csv(out / f"stats_2_laplace_{data}.csv").lamr_max == 1.0

    def test_sampling_method(self, tmp_path, trained):
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "dataset": DATASET,
            "method": "sampling",
            "sampling": {
                "num_samples": 4, "loss_tolerance": 10.0, "refine_epochs": 0,
                "noise_sigma": 0.05,
            },
            "seed": 3,
        }
        config = write_config(tmp_path, doc, "stats-sampling.json")
        out = tmp_path / "stats-sampling-out"
        assert run(["stats", "--config", config, "--out", out]) == EXIT_OK
        assert (out / "stats_2_sampling_clean.csv").exists()

    @staticmethod
    def demo_laplace_config(tmp_path):
        """The demo's Laplace stats config, without its attack, on a He-init 32-96-96-10 net.

        On the demo data two OpenBLAS threads sum the Kronecker factors in
        another order than one, so the CSV bytes show the pool's size.
        """
        save_checkpoint(Network.he_init([32, 96, 96, 10], seed=0), tmp_path / "net.json")
        doc = json.loads((REPO / "configs" / "stats_laplace.json").read_text())
        doc.update(checkpoint=str(tmp_path / "net.json"), attack=None)
        return write_config(tmp_path, doc, "stats-laplace.json")

    def test_laplace_bytes_ignore_an_exported_blas_thread_count(self, tmp_path):
        config = self.demo_laplace_config(tmp_path)
        for threads in ("1", "2"):
            fresh_python("-m", "advlab", "stats", "--config", config, "--out", str(tmp_path / threads),
                         OPENBLAS_NUM_THREADS=threads)
        one, two = ((tmp_path / threads / "stats_3_laplace_clean.csv").read_bytes() for threads in "12")
        assert one == two

    def test_laplace_bytes_in_process_match_a_one_thread_interpreter(self, tmp_path):
        # the suite runs the one-thread pool that advlab pins, because conftest imports advlab first
        config = self.demo_laplace_config(tmp_path)
        assert run(["stats", "--config", config, "--out", tmp_path / "here"]) == EXIT_OK
        fresh_python("-m", "advlab", "stats", "--config", config, "--out", str(tmp_path / "fresh"),
                     OPENBLAS_NUM_THREADS="1")
        here, fresh = ((tmp_path / out / "stats_3_laplace_clean.csv").read_bytes() for out in ("here", "fresh"))
        assert here == fresh

    def test_bad_method_exits_2(self, tmp_path, trained):
        doc = {"checkpoint": str(trained / "checkpoint.json"), "dataset": DATASET, "method": "mcmc"}
        config = write_config(tmp_path, doc, "stats-bad.json")
        assert run(["stats", "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG


class TestBoundCommand:
    def test_spectral_kinds_without_stats(self, tmp_path, trained):
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "kind": "xiao",
            "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0, "epsilon": 0.08},
        }
        config = write_config(tmp_path, doc, "bound.json")
        out = tmp_path / "bound-out"
        assert run(["bound", "--config", config, "--out", out]) == EXIT_OK
        report = strict_json(out / "bound.json")
        assert report["kind"] == "xiao"
        assert report["complexity_term"] > 0
        assert (out / "bound.csv").exists()

    def test_correlation_kind_from_stats_files(self, tmp_path, trained):
        stats_doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "dataset": DATASET,
            "method": "laplace",
            "attack": {"epsilon": 0.08, "step_size": 0.02, "steps": 5},
        }
        stats_config = write_config(tmp_path, stats_doc, "stats-for-bound.json")
        stats_out = tmp_path / "stats-for-bound"
        assert run(["stats", "--config", stats_config, "--out", stats_out]) == EXIT_OK

        # the laplace estimator covers the output layer; synthesize the
        # missing first-layer statistics as identity correlations
        from advlab.network import load_checkpoint
        from advlab.weight_stats import LayerCorrStats

        net = load_checkpoint(trained / "checkpoint.json")
        dim = net.layers[0].weight.size
        first = LayerCorrStats(
            layer=1, dim=dim, lam_max=1.0, lam_min=1.0,
            lamc_max=1.0, lamr_max=1.0, det_lb=1.0, logdet=0.0, frob_sq=float(dim),
            source="laplace", data="clean", sample_count=1,
        )
        first_path = stats_out / "stats_1_laplace_clean.csv"
        first.write_csv(first_path)

        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "kind": "corr_mixed",
            "stats": [
                str(first_path),
                str(stats_out / "stats_2_laplace_clean.csv"),
                str(stats_out / "stats_2_laplace_adversarial.csv"),
            ],
            "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0, "epsilon": 0.08},
        }
        config = write_config(tmp_path, doc, "bound-corr.json")
        out = tmp_path / "bound-corr-out"
        assert run(["bound", "--config", config, "--out", out]) == EXIT_OK
        report = json.loads((out / "bound.json").read_text())
        assert report["logdet_term"] >= 0.0

    @pytest.mark.parametrize("content, message", [
        (b"layer,dim\n1,48\n", "missing fields"),
        (b"\xff\xfelayer,dim\n1,48\n", "'utf-8' codec can't decode byte 0xff"),
        (b"layer\n" + b"1" * 200_000 + b"\n", "field larger than field limit"),
    ], ids=["missing-fields", "not-utf-8", "oversized-field"])
    def test_malformed_stats_file_exits_4(self, tmp_path, trained, capsys, content, message):
        bad = tmp_path / "stats_bad.csv"
        bad.write_bytes(content)
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "kind": "corr",
            "stats": [str(bad)],
            "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0},
        }
        config = write_config(tmp_path, doc, "bound-bad-stats.json")
        capsys.readouterr()
        assert run(["bound", "--config", config, "--out", tmp_path / "x"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("kind", ["xiao", "neyshabur"])
    def test_spectral_kinds_do_not_read_stats(self, tmp_path, trained, kind):
        bad = tmp_path / "stats_bad.csv"
        bad.write_text("layer,dim\n1,48\n")
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "kind": kind,
            "stats": [str(bad)],
            "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0},
        }
        config = write_config(tmp_path, doc, f"bound-{kind}-bad-stats.json")
        out = tmp_path / f"bound-{kind}-out"
        assert run(["bound", "--config", config, "--out", out]) == EXIT_OK
        assert json.loads((out / "bound.json").read_text())["kind"] == kind

    def test_missing_checkpoint_exits_4(self, tmp_path):
        doc = {
            "checkpoint": str(tmp_path / "nope.json"),
            "kind": "xiao",
            "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0},
        }
        config = write_config(tmp_path, doc, "bound-no-checkpoint.json")
        assert run(["bound", "--config", config, "--out", tmp_path / "x"]) == EXIT_IO

    def test_missing_stats_exits_2(self, tmp_path, trained):
        doc = {
            "checkpoint": str(trained / "checkpoint.json"),
            "kind": "corr",
            "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0},
        }
        config = write_config(tmp_path, doc, "bound-bad.json")
        assert run(["bound", "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("stats", {"method": "laplace", "layer": 1}, "output layer only"),
        ("evaluate", {"dataset": DATASET | {"dim": 6}}, "dataset has 6 features, checkpoint expects 5"),
        ("stats", {"method": "laplace", "dataset": DATASET | {"dim": 6}}, "dataset has 6 features"),
        (
            "stats",
            {"method": "sampling", "sampling": {
                "num_samples": 2, "loss_tolerance": 1e-9, "refine_epochs": 0, "noise_sigma": 5.0}},
            "after 200 draws",
        ),
        ("stats", {"method": "sampling", "layer": 5}, "stats layer 5 outside 1..2"),
        ("stats", {"method": "sampling", "layer": 0}, "stats layer 0 outside 1..2"),
        ("evaluate", {"dataset": DATASET | {"num_classes": 2}},
         "dataset has 2 classes, checkpoint expects 3"),
        ("stats", {"method": "sampling", "layer": 2, "sampling": {"num_samples": 2, "layers": [1]}},
         "stats layer 2 is not in sampling.layers [1]"),
        ("stats", {"method": "sampling", "layer": 2, "sampling": {"num_samples": 2, "layers": []}},
         "stats sampling: layers must name at least one layer"),
        ("stats", {"method": "sampling", "sampling": {"num_samples": 2, "noise_sigma": 0}},
         "all-zero weight samples"),
        ("stats", {"method": "sampling", "sampling": {"num_samples": 2, "noise_sigma": -0.5}},
         "stats sampling: noise_sigma -0.5 is not a number >= 0"),
        ("stats", {"method": "laplace", "damping": 0}, "stats: damping 0 is not a finite number > 0"),
        ("stats", {"method": "laplace", "damping": -1}, "stats: damping -1 is not a finite number > 0"),
        ("stats", {"method": "laplace", "damping": 1e400}, "stats damping inf is not"),
        ("stats", {"method": "laplace", "damping": "x"}, "stats damping 'x' is not"),
        ("stats", {"method": "laplace", "damping": 1e-30}, "stats damping 1e-30 is too small"),
        ("train", {"dataset": EMPTY_IDX}, "dataset split 'train' has no rows"),
        ("evaluate", {"dataset": EMPTY_IDX}, "dataset split 'test' has no rows"),
        ("stats", {"method": "laplace", "dataset": EMPTY_IDX}, "dataset split 'train' has no rows"),
        ("stats", {"method": "sampling", "dataset": EMPTY_IDX}, "dataset split 'train' has no rows"),
        ("evaluate", {"attacks": [KL_ATTACK]}, f"evaluate attacks[0]: {KL_WITHOUT_START}"),
        ("train", {"method": "at", "attack_train": KL_ATTACK}, f"train attack_train: {KL_WITHOUT_START}"),
        ("train", {"method": "at", "attack_eval": KL_ATTACK}, f"train attack_eval: {KL_WITHOUT_START}"),
        ("stats", {"method": "laplace", "attack": KL_ATTACK}, f"stats attack: {KL_WITHOUT_START}"),
        # numpy refuses an array this large at once, so nothing is allocated
        ("train", {"hidden": [10**12]}, "Unable to allocate"),
    ],
    ids=["laplace-hidden-layer", "evaluate-input-dim", "stats-input-dim", "sampling-stalled",
         "sampling-layer-above-depth", "sampling-layer-zero", "evaluate-class-count",
         "sampling-layer-never-perturbed", "sampling-layers-empty", "sampling-zero-noise",
         "sampling-negative-noise",
         "laplace-damping-zero", "laplace-damping-negative", "laplace-damping-overflow",
         "laplace-damping-string", "laplace-damping-tiny",
         "train-empty-split", "evaluate-empty-split", "laplace-empty-split", "sampling-empty-split",
         "evaluate-kl-without-start", "train-kl-without-start", "train-eval-kl-without-start",
         "stats-kl-without-start", "train-beyond-memory"],
)
def test_unmeetable_request_exits_2_with_one_line(tmp_path, trained, capsys, monkeypatch,
                                                  command, extra, message):
    write_empty_idx(tmp_path)
    monkeypatch.chdir(tmp_path)
    base = TRAIN_CONFIG if command == "train" else {"checkpoint": str(trained / "checkpoint.json"),
                                                    "dataset": DATASET}
    doc = base | extra
    config = write_config(tmp_path, doc, "unmeetable.json")
    capsys.readouterr()
    assert run([command, "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


def train_refused_before_any_step(tmp_path, capsys, monkeypatch, extra) -> str:
    """The stderr of a `train` run of TRAIN_CONFIG | extra, which must exit 2 before its
    first training step, leaving `--out` empty."""
    steps, original = [], advlab.train._step_gradients

    def counted(*args):
        steps.append(args)
        return original(*args)

    monkeypatch.setattr(advlab.train, "_step_gradients", counted)
    config = write_config(tmp_path, TRAIN_CONFIG | extra)
    capsys.readouterr()
    assert run(["train", "--config", config, "--out", tmp_path / "run"]) == EXIT_CONFIG
    assert not steps and not any((tmp_path / "run").iterdir())
    return capsys.readouterr().err


def test_a_kl_eval_without_a_start_is_refused_before_any_step(tmp_path, capsys, monkeypatch):
    err = train_refused_before_any_step(tmp_path, capsys, monkeypatch, {"method": "at", "attack_eval": KL_ATTACK})
    assert err == f"config error: train attack_eval: {KL_WITHOUT_START}\n"


# trades attacks with attack_train's loss swapped for kl, which needs a random start
@pytest.mark.parametrize("method", ["trades", "trades_decorr"])
@pytest.mark.parametrize("attack, message", [
    ({"loss": "cross_entropy", "random_start": False},
     "trades methods attack with kl, which needs attack_train.random_start"),
    ({"loss": "cw_margin", "random_start": False},  # the start is checked first
     "trades methods attack with kl, which needs attack_train.random_start"),
    ({"loss": "cw_margin", "random_start": True},
     "trades methods attack with kl: attack_train.loss must be cross_entropy"),
    ({"loss": "kl", "random_start": True},
     "trades methods attack with kl: attack_train.loss must be cross_entropy"),
], ids=["no-start", "cw-margin-no-start", "cw-margin", "kl"])
def test_a_trades_attack_it_would_not_run_is_refused_before_any_step(tmp_path, capsys, monkeypatch,
                                                                     method, attack, message):
    extra = {"method": method, "attack_train": TRAIN_CONFIG["attack_train"] | attack}
    err = train_refused_before_any_step(tmp_path, capsys, monkeypatch, extra)
    assert err == f"config error: train: {message}\n"


@pytest.mark.parametrize("command, doc, message", [
    ("bound", {"kind": "xiao", "inputs": {"gamma": 1.0, "delta": 0.05, "m": 10**400, "input_bound": 3.0}},
     f"bound inputs.m {10**400} is not an integer within int64"),
    ("simulate", {"family": "perturbation", "h": 2**64},
     f"simulate h {2**64} is not an integer within int64"),
    ("simulate", {"family": "equicorrelation", "dim": 10**200},
     f"simulate dim {10**200} is not an integer within int64"),
    ("simulate", {"family": "random", "dim": 4, "n_samples": 20, "seed": 2**63},
     f"simulate seed {2**63} is not a non-negative integer within int64"),
], ids=["bound-m-401-digits", "perturbation-h", "equicorrelation-dim", "seed"])
def test_an_integer_beyond_int64_exits_2_with_one_line(tmp_path, trained, capsys, command, doc, message):
    if command == "bound":
        doc = doc | {"checkpoint": str(trained / "checkpoint.json")}
    config = write_config(tmp_path, doc, "wide.json")
    capsys.readouterr()
    assert run([command, "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_the_int64_maximum_is_a_seed(tmp_path):
    config = write_config(tmp_path, {"family": "random", "dim": 4, "n_samples": 20, "seed": 2**63 - 1})
    assert run(["simulate", "--config", config, "--out", tmp_path / "x"]) == EXIT_OK


def scaled_checkpoint(trained, scale):
    """The trained checkpoint with every weight multiplied by `scale`, saved beside it."""
    net = load_checkpoint(trained / "checkpoint.json")
    path = trained / f"checkpoint-x{scale:g}.json"
    save_checkpoint(net.with_weights([scale * w for w in net.weights]), path)
    return path


OVERFLOW = "non-finite logits: the weights or inputs exceed float64 range"


@pytest.mark.filterwarnings("error")  # a numpy warning would print a second stderr line
@pytest.mark.parametrize(
    "command, extra, scale, message",
    [
        ("evaluate", {"attacks": [{"epsilon": 0.08, "step_size": 0.02, "steps": 3}]}, 1e200, OVERFLOW),
        ("stats", {"method": "laplace"}, 1e200, OVERFLOW),
        ("stats", {"method": "laplace"}, 1e150,
         "smallest diagonal entry 1.1e-299 is not above the floor 1e-12"),
        ("stats", {"method": "sampling", "sampling": {"num_samples": 2, "refine_epochs": 0}}, 1e150,
         "accepted 0/2 after 200 draws: a draw needs its loss within loss_tolerance 0.05 of the "
         "base loss 1.49954e+299"),
    ],
    ids=["evaluate-1e200", "laplace-1e200", "laplace-1e150", "sampling-1e150"],
)
def test_overflowing_checkpoint_exits_2_with_one_line(tmp_path, trained, capsys, command, extra, scale,
                                                      message):
    doc = {"checkpoint": str(scaled_checkpoint(trained, scale)), "dataset": DATASET} | extra
    config = write_config(tmp_path, doc, "overflow.json")
    capsys.readouterr()
    assert run([command, "--config", config, "--out", tmp_path / "x"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scale, inputs, message",
    [
        (1e150, {}, "bound term phi is inf"),
        (1e200, {}, "bound term phi is nan"),
        (1.0, {"gamma": 1e-200}, "bound term complexity_term is inf"),
    ],
    ids=["phi-overflow", "norm-overflow", "vanishing-margin"],
)
def test_non_finite_bound_exits_2_without_output(tmp_path, trained, capsys, scale, inputs, message):
    doc = {"checkpoint": str(scaled_checkpoint(trained, scale)), "kind": "xiao",
           "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0} | inputs}
    config = write_config(tmp_path, doc, "bound-overflow.json")
    out = tmp_path / "bound-out"
    capsys.readouterr()
    assert run(["bound", "--config", config, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (out / "bound.json").exists() and not (out / "bound.csv").exists()


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (ValueError, EXIT_CONFIG, "config error: "),
        (FloatingPointError, EXIT_CONFIG, "config error: "),
        (FormatError, EXIT_IO, "i/o error: "),
        (DivergedTraining, EXIT_DIVERGED, "diverged: "),
    ],
    ids=["ValueError", "FloatingPointError", "FormatError", "DivergedTraining"],
)
@pytest.mark.parametrize(
    "command, call",
    [("train", "train"), ("evaluate", "evaluate"), ("stats", "corr_from_laplace"),
     ("bound", "evaluate_bound"), ("simulate", "simulate_correlation_study")],
    ids=["train", "evaluate", "stats", "bound", "simulate"],
)
def test_exit_code_follows_the_exception_type(tmp_path, trained, capsys, monkeypatch, command, call,
                                              error, code, prefix):
    # one library call per command raises a bare exception; main alone picks the exit code
    checkpoint = str(trained / "checkpoint.json")
    doc = {
        "train": TRAIN_CONFIG,
        "evaluate": {"checkpoint": checkpoint, "dataset": DATASET, "attacks": []},
        "stats": {"checkpoint": checkpoint, "dataset": DATASET, "method": "laplace"},
        "bound": {"checkpoint": checkpoint, "kind": "xiao",
                  "inputs": {"gamma": 0.5, "delta": 0.05, "m": 100, "input_bound": 2.0}},
        "simulate": {"family": "random", "dim": 4, "n_samples": 10, "seed": 1},
    }[command]

    def fail(*args, **kwargs):
        raise error(f"{call} failed")

    monkeypatch.setattr(cli, call, fail)
    config = write_config(tmp_path, doc, "contract.json")
    capsys.readouterr()
    assert run([command, "--config", config, "--out", tmp_path / "x"]) == code
    assert capsys.readouterr().err == f"{prefix}{call} failed\n"


class TestSimulateCommand:
    def test_random_family(self, tmp_path):
        doc = {"family": "random", "dim": 6, "n_samples": 200, "seed": 5}
        config = write_config(tmp_path, doc, "sim.json")
        out = tmp_path / "sim-out"
        assert run(["simulate", "--config", config, "--out", out]) == EXIT_OK
        lines = (out / "simulate.csv").read_text().strip().splitlines()
        assert lines[0] == "frob_sq,lam_proxy,det_lb"
        assert len(lines) == 201
        summary = strict_json(out / "simulate_summary.json")
        assert summary["rho_frob_det"] < 0

    def test_equicorrelation_family(self, tmp_path):
        doc = {"family": "equicorrelation", "dim": 9, "n_samples": 50, "r_range": [0.0, 0.9]}
        config = write_config(tmp_path, doc, "sim-eq.json")
        out = tmp_path / "sim-eq-out"
        assert run(["simulate", "--config", config, "--out", out]) == EXIT_OK
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["rho_frob_lam"] == pytest.approx(1.0)
        assert summary["rho_frob_det"] == pytest.approx(-1.0)

    def test_perturbation_family(self, tmp_path):
        doc = {"family": "perturbation", "h": 8, "trials": 40, "seed": 6}
        config = write_config(tmp_path, doc, "sim-p.json")
        out = tmp_path / "sim-p-out"
        assert run(["simulate", "--config", config, "--out", out]) == EXIT_OK
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert list(summary) == ["h", "trials", "median", "p95"]  # no sigma: the ratios are scale-free
        assert summary["h"] == 8 and summary["trials"] == 40
        assert 0.0 < summary["median"] <= summary["p95"] < 2.0
        assert len((out / "simulate.csv").read_text().splitlines()) == 41

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"family": "perturbation", "sigma": 1.0}, "simulate config has unknown field 'sigma'"),
            ({"family": "perturbation", "h": 0}, "need h >= 1"),
            ({"family": "random", "n_samples": 1}, "n_samples must be >= 2"),
            ({"family": "equicorrelation", "n_samples": 20, "r_range": [0.3, 0.3]}, "needs lo < hi"),
            ({"family": "perturbation", "h": "x"}, "simulate h 'x' is not an integer"),
            ({"family": "perturbation", "h": 2.5}, "simulate h 2.5 is not an integer"),
            ({"family": "perturbation", "trials": True}, "simulate trials True is not an integer"),
            ({"family": "random", "dim": 4.0}, "simulate dim 4.0 is not an integer"),
            ({"family": "random", "n_samples": "x"}, "simulate n_samples 'x' is not an integer"),
        ],
        ids=["sigma", "h-zero", "one-sample", "equal-r-range-ends",
             "h-string", "h-fraction", "trials-bool", "dim-float", "n-samples-string"],
    )
    def test_degenerate_request_exits_2_without_output(self, tmp_path, capsys, doc, message):
        config = write_config(tmp_path, doc, "sim-bad.json")
        out = tmp_path / "sim-bad-out"
        assert run(["simulate", "--config", config, "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert not (out / "simulate.csv").exists()

    def test_undefined_rank_correlation_is_json_null(self, tmp_path, capsys):
        # det_lb underflows to 0 on every row at this size, so rho(frob, det_lb) is undefined
        doc = {"family": "equicorrelation", "dim": 5000, "n_samples": 50, "r_range": [0.5, 0.9]}
        config = write_config(tmp_path, doc, "sim-undef.json")
        out = tmp_path / "sim-undef-out"
        capsys.readouterr()
        assert run(["simulate", "--config", config, "--out", out]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "rho(frob, det_lb)=undefined" in captured.out
        summary = strict_json(out / "simulate_summary.json")
        assert summary["rho_frob_det"] is None
        assert summary["rho_frob_lam"] > 0.99

    def test_rerun_identical(self, tmp_path):
        doc = {"family": "random", "dim": 5, "n_samples": 50, "seed": 7}
        config = write_config(tmp_path, doc, "sim-det.json")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(["simulate", "--config", config, "--out", out1]) == EXIT_OK
        assert run(["simulate", "--config", config, "--out", out2]) == EXIT_OK
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
        assert (out1 / "simulate_summary.json").read_bytes() == (out2 / "simulate_summary.json").read_bytes()


def test_python_dash_m_runs_a_demo_command(tmp_path):
    config = REPO / "configs" / "simulate_random.json"
    via_module, in_process = tmp_path / "module", tmp_path / "in-process"
    result = fresh_python("-m", "advlab", "simulate", "--config", str(config), "--out", str(via_module))
    assert result.stdout.startswith("random: rho(frob, lam_proxy)=")
    assert run(["simulate", "--config", config, "--out", in_process]) == EXIT_OK
    for name in ("simulate.csv", "simulate_summary.json"):
        assert (via_module / name).read_bytes() == (in_process / name).read_bytes()


def test_import_loads_no_submodule():
    # the package only pins the BLAS pools; numpy loads with the first submodule
    probe = "import sys, advlab; print([m for m in sys.modules if m == 'numpy' or m.startswith('advlab.')])"
    assert fresh_python("-c", probe).stdout == "[]\n"


# He-init output-layer Laplace record on the demo shape: a net this wide threads in OpenBLAS
LAPLACE_PROBE = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy, scipy.linalg
import advlab
from advlab.data import split_blobs
from advlab.network import Network
from advlab.weight_stats import corr_from_laplace
train, _ = split_blobs(10, 60, 80, 32, 0.25, seed=100)
corr_from_laplace(Network.he_init([32, 96, 96, 10], seed=7), train, 3).write_csv(sys.argv[2])
import ctypes  # each bundled OpenBLAS's pool size, None where the wheels bundle another BLAS
for module, getter in (("numpy._core._multiarray_umath", "scipy_openblas_get_num_threads64_"),
                       ("scipy.linalg._flapack", "scipy_openblas_get_num_threads")):
    get = getattr(ctypes.CDLL(sys.modules[module].__file__), getter, None)
    print(get and get())
"""


def test_blas_pin_holds_in_any_import_order(tmp_path):
    # numpy's OpenBLAS, loaded before advlab with two threads, moved the record's low-order bits;
    # scipy's pool is too small a share of the record to move it, so its size is read directly
    for order in ("numpy-first", "advlab-first"):
        pools = fresh_python("-c", LAPLACE_PROBE, order, str(tmp_path / order), OPENBLAS_NUM_THREADS="2")
        assert set(pools.stdout.split()) <= {"1", "None"}, order
    assert (tmp_path / "numpy-first").read_bytes() == (tmp_path / "advlab-first").read_bytes()


def test_import_loads_no_scipy_stats():
    # scipy.stats and scipy.linalg cost most of a cold start: the rank correlation is numpy's
    # own, and linalg.inverse_psd imports LAPACK on first use.
    # Importing advlab.__main__ (as a tool that imports every submodule does) must not run the CLI.
    probe = ("import sys, advlab, advlab.cli, advlab.__main__; "
             "print('scipy.stats' in sys.modules, 'scipy.linalg.lapack' in sys.modules)")
    assert fresh_python("-c", probe).stdout.split() == ["False", "False"]
