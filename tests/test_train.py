import dataclasses
import sys

import numpy as np
import pytest

from conftest import away_from_relu_kinks, fd_weight_gradients, max_rel_error, pair_penalty, strict_json

from advlab import attacks, data
from advlab.attacks import AttackSpec, first_flips
from advlab.data import Dataset, epoch_seed_from, synth_blobs, write_idx_images, write_idx_labels
from advlab.decorr import DecorrConfig, penalty_dlast
from advlab.linalg import NotPositiveDefinite
from advlab.network import (
    Network,
    _cross_entropy_and_kl,
    accuracy,
    backward,
    cross_entropy,
    forward,
    kl_softmax,
    kl_softmax_grad_p,
    load_checkpoint,
    loss_logit_grad,
)
from advlab.train import (
    DivergedTraining,
    METRICS_HEADER,
    RunConfig,
    _epoch_metrics,
    _lr_at,
    _step_gradients,
    dataset_from_spec,
    evaluate,
    train,
    trades_gradients,
    write_evaluation_csv,
)


DATASET = {
    "kind": "synthetic", "num_classes": 3, "per_class": 12, "dim": 6,
    "spread": 0.08, "seed": 5, "test_per_class": 6,
}

ATTACK = {"epsilon": 0.08, "step_size": 0.02, "steps": 3, "norm": "linf"}


def tiny_config(**overrides):
    base = dict(
        dataset=DATASET,
        hidden=(8,),
        method="at",
        epochs=2,
        batch_size=12,
        lr=0.05,
        seed=3,
        attack_train=AttackSpec(**ATTACK),
        attack_eval=AttackSpec(epsilon=0.08, step_size=0.02, steps=4),
        eval_subset=36,
    )
    base.update(overrides)
    return RunConfig(**base)


def idx_spec(tmp_path, train_labels, test_labels) -> dict:
    """An "idx" dataset spec over files written to tmp_path, two zero pixels per image."""
    spec = {"kind": "idx"}
    for split, labels in (("train", train_labels), ("test", test_labels)):
        spec[f"{split}_images"] = str(tmp_path / f"{split}-images.idx")
        spec[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
        write_idx_images(spec[f"{split}_images"], np.zeros((len(labels), 1, 2)))
        write_idx_labels(spec[f"{split}_labels"], labels)
    return spec


class TestConfig:
    def test_from_dict_round_trip(self):
        doc = {
            "dataset": DATASET, "hidden": [8], "method": "at_decorr", "epochs": 1,
            "batch_size": 8, "lr": 0.1, "seed": 1,
            "attack_train": dict(ATTACK),
            "penalty": {"alpha": 0.3},
        }
        config = RunConfig.from_dict(doc)
        assert config.method == "at_decorr"
        assert config.penalty.alpha == 0.3
        snap = dataclasses.asdict(config)
        assert snap["attack_train"]["epsilon"] == 0.08

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"dataset": DATASET, "method": "fgsm_only"})

    def test_attack_required_for_adversarial_methods(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"dataset": DATASET, "method": "at"})

    def test_decorr_methods_need_positive_alpha(self):
        doc = {
            "dataset": DATASET, "method": "at_decorr",
            "attack_train": dict(ATTACK), "penalty": {"alpha": 0.0},
        }
        with pytest.raises(ValueError, match="^train: decorr methods need penalty.alpha > 0$"):
            RunConfig.from_dict(doc)
        for method in ("at_decorr", "trades_decorr"):  # in process, the same rule
            with pytest.raises(ValueError, match="^decorr methods need penalty.alpha > 0$"):
                tiny_config(method=method, penalty=DecorrConfig(alpha=0.0))
        assert tiny_config(method="at", penalty=DecorrConfig(alpha=0.0)).penalty.alpha == 0.0

    def test_trades_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({
                "dataset": DATASET, "method": "trades",
                "attack_train": dict(ATTACK, random_start=True), "trades_lambda": 0.0,
            })

    def test_bad_dataset_spec(self):
        with pytest.raises(ValueError):
            dataset_from_spec({"kind": "tarball"}, "train")

    @pytest.mark.parametrize("train_labels, test_labels", [([0, 1, 2, 1], [1, 0]), ([1], [0, 2])])
    def test_idx_class_count_comes_from_both_label_files(self, tmp_path, train_labels, test_labels):
        spec = idx_spec(tmp_path, train_labels, test_labels)
        for splits in (("train",), ("test",), ("train", "test")):
            assert [ds.num_classes for ds in dataset_from_spec(spec, *splits)] == [3] * len(splits)

    @pytest.mark.parametrize("splits", [("train", "test"), ("test",)])
    def test_idx_label_files_are_read_once(self, tmp_path, monkeypatch, splits):
        spec = idx_spec(tmp_path, [0, 1, 2, 1], [1, 0])
        reads = []
        read_labels = data._read_idx_labels
        monkeypatch.setattr(data, "_read_idx_labels", lambda path: reads.append(path) or read_labels(path))
        dataset_from_spec(spec, *splits)
        assert sorted(reads) == sorted([spec["train_labels"], spec["test_labels"]])

    def test_joint_splits_equal_single_splits(self):
        train_ds, test_ds = dataset_from_spec(DATASET, "train", "test")
        for split, ds in (("train", train_ds), ("test", test_ds)):
            (alone,) = dataset_from_spec(DATASET, split)
            assert alone.inputs.tobytes() == ds.inputs.tobytes()
            assert np.array_equal(alone.labels, ds.labels) and alone.name == ds.name

    def test_lr_schedule_drops(self):
        config = tiny_config(epochs=20, lr=0.1)
        assert _lr_at(config, 0) == 0.1
        assert _lr_at(config, 9) == 0.1
        assert _lr_at(config, 10) == pytest.approx(0.01)
        assert _lr_at(config, 15) == pytest.approx(0.001)


def assert_he_init_checkpoint(out, config):
    """The checkpoint in `out` holds the He-init weights of a `tiny_config` run."""
    loaded = load_checkpoint(out / "checkpoint.json")
    (ds,) = dataset_from_spec(DATASET, "train")
    init = Network.he_init([ds.dim, 8, 3], seed=epoch_seed_from(config.seed, 0))
    for a, b in zip(loaded.weights, init.weights):
        assert np.array_equal(a, b)


class TestTraining:
    def test_synthetic_train_generates_blobs_once(self, tmp_path, monkeypatch):
        train_module = sys.modules["advlab.train"]  # the package's `train` is the function
        calls = []
        split_blobs = train_module.split_blobs
        monkeypatch.setattr(train_module, "split_blobs", lambda *a: calls.append(a) or split_blobs(*a))
        train(tiny_config(method="standard", attack_train=None, epochs=1), tmp_path)
        assert len(calls) == 1

    def test_zero_epochs_keeps_initialization(self, tmp_path):
        config = tiny_config(method="standard", attack_train=None, epochs=0)
        record = train(config, tmp_path)
        assert len(record.metrics) == 1
        assert record.metrics[0]["epoch"] == 0
        assert np.isnan(record.metrics[0]["train_loss"]) and record.wall_train_s == [0.0]
        assert strict_json(tmp_path / "run.json")["final_metrics"]["train_loss"] is None
        assert_he_init_checkpoint(tmp_path, config)

    def test_deterministic_artifacts(self, tmp_path):
        config = tiny_config(method="at_decorr", penalty=DecorrConfig(alpha=0.2))
        train(config, tmp_path / "a")
        train(config, tmp_path / "b")
        for name in ("metrics.csv", "checkpoint.json", "run.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_metrics_csv_header_and_rows(self, tmp_path):
        config = tiny_config(epochs=2)
        record = train(config, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert len(lines) == 3
        assert len(record.metrics) == 2
        for row in record.metrics:
            for key in ("clean_train", "clean_test", "pgd_train", "pgd_test"):
                assert 0.0 <= row[key] <= 1.0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_raises_and_keeps_checkpoint(self, tmp_path):
        config = tiny_config(method="standard", attack_train=None, lr=1e18, epochs=5)
        with pytest.raises(DivergedTraining):
            train(config, tmp_path)
        assert (tmp_path / "checkpoint.json").exists()
        load_checkpoint(tmp_path / "checkpoint.json")

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_in_the_eval_drops_the_epoch(self, tmp_path):
        # one finite step, then weights near 1e300 overflow the epoch's eval
        config = tiny_config(method="standard", attack_train=None, lr=1e300, epochs=1, batch_size=36)
        with pytest.raises(DivergedTraining):
            train(config, tmp_path)
        for name in ("metrics.csv", "timing.csv"):
            assert len((tmp_path / name).read_text().splitlines()) == 1  # the header alone
        assert_he_init_checkpoint(tmp_path, config)

    def test_penalty_of_a_singular_covariance_is_nan(self, tmp_path, monkeypatch):
        def singular(*args):
            raise NotPositiveDefinite("inverse input is not positive definite")

        monkeypatch.setattr(sys.modules["advlab.train"], "penalty_and_grad", singular)
        train(tiny_config(method="standard", attack_train=None, epochs=1), tmp_path)
        assert (tmp_path / "metrics.csv").read_text().splitlines()[1].endswith(",nan")
        assert strict_json(tmp_path / "run.json")["final_metrics"]["penalty"] is None

    def test_non_finite_loss_raises_and_keeps_the_init(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys.modules["advlab.train"], "cross_entropy", lambda logits, labels: np.inf)
        config = tiny_config(method="standard", attack_train=None, epochs=1)
        with pytest.raises(DivergedTraining):
            train(config, tmp_path)
        assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1  # the header alone
        assert_he_init_checkpoint(tmp_path, config)

    def test_all_methods_run_one_epoch(self, tmp_path):
        for method in ("standard", "at", "trades", "at_decorr", "trades_decorr"):
            config = tiny_config(
                method=method,
                epochs=1,
                attack_train=None if method == "standard" else AttackSpec(**ATTACK, random_start=True),
                penalty=DecorrConfig(alpha=0.3),
            )
            record = train(config, tmp_path / method)
            assert len(record.metrics) == 1
            assert np.isfinite(record.metrics[0]["train_loss"])
            assert record.metrics[0]["penalty"] > 0.0

    def test_training_learns_the_blobs(self, tmp_path):
        config = tiny_config(method="standard", attack_train=None, epochs=10, lr=0.2)
        record = train(config, tmp_path)
        assert record.final["clean_train"] >= 0.9


def trades_on_inputs(net, xb, yb, x_adv, lam):
    return trades_gradients(net, forward(net, xb), forward(net, x_adv), yb, lam)


class TestTradesGradient:
    def test_matches_finite_differences_with_fixed_adversary(self):
        rng = np.random.default_rng(1)
        net = Network.he_init([5, 8, 3], seed=7)
        xb = rng.uniform(0, 1, (6, 5))
        yb = rng.integers(0, 3, size=6)
        x_adv = np.clip(xb + rng.uniform(-0.05, 0.05, xb.shape), 0, 1)
        assert away_from_relu_kinks(net, xb) and away_from_relu_kinks(net, x_adv)
        lam = 1.0 / 6.0
        _, analytic = trades_on_inputs(net, xb, yb, x_adv, lam)
        oracle = fd_weight_gradients(
            lambda n: trades_on_inputs(n, xb, yb, x_adv, lam)[0], net
        )
        assert max_rel_error(analytic, oracle) < 1e-4

    def test_penalty_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = Network.he_init([5, 8, 6, 3], seed=9)
        xb = rng.uniform(0, 1, (7, 5))
        yb = rng.integers(0, 3, size=7)
        x_adv = np.clip(xb + rng.uniform(-0.05, 0.05, xb.shape), 0, 1)
        assert away_from_relu_kinks(net, xb) and away_from_relu_kinks(net, x_adv)
        lam, cfg = 1.0 / 6.0, DecorrConfig(alpha=0.3, damping=1e-2)

        def objective(n):
            tape_clean, tape_adv = forward(n, xb), forward(n, x_adv)
            value, _ = trades_gradients(n, tape_clean, tape_adv, yb, lam)
            return value + cfg.alpha * pair_penalty(tape_clean, tape_adv, cfg)

        _, analytic = trades_gradients(net, forward(net, xb), forward(net, x_adv), yb, lam, cfg)
        oracle = fd_weight_gradients(objective, net, step=1e-6)
        assert max_rel_error(analytic, oracle) < 1e-4

    @pytest.mark.parametrize("penalty", [None, DecorrConfig(alpha=0.3)], ids=["plain", "decorr"])
    @pytest.mark.parametrize("dims, rows", [((5, 8, 3), 6), ((32, 96, 96, 10), 100), ((4, 2), 1)])
    def test_bit_identical_to_the_public_losses(self, dims, rows, penalty):
        # the value and both logit gradients come from one log-softmax per tape,
        # bit for bit the composition of the public loss functions
        rng = np.random.default_rng(4)
        net = Network.he_init(list(dims), seed=11)
        xb = rng.uniform(0, 1, (rows, dims[0]))
        yb = rng.integers(0, dims[-1], size=rows)
        x_adv = np.clip(xb + rng.uniform(-0.1, 0.1, xb.shape), 0, 1)
        tape_clean, tape_adv = forward(net, xb), forward(net, x_adv)
        zp, zq, lam = tape_clean.logits, tape_adv.logits, 1.0 / 6.0
        loss, grads = trades_gradients(net, tape_clean, tape_adv, yb, lam, penalty)

        expect_loss = cross_entropy(zp, yb) + (1.0 / lam) * kl_softmax(zp, zq)
        d_clean = loss_logit_grad("cross_entropy", zp, yb) + (1.0 / lam) * kl_softmax_grad_p(zp, zq)
        d_adv = (1.0 / lam) * loss_logit_grad("kl", zq, ref_logits=zp)
        dlast = [None if penalty is None else penalty_dlast(t, penalty) for t in (tape_clean, tape_adv)]
        expect = [a + b for a, b in zip(backward(net, tape_clean, d_clean, dlast[0]),
                                        backward(net, tape_adv, d_adv, dlast[1]))]
        assert np.float64(loss).tobytes() == np.float64(expect_loss).tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in expect]

    def test_logit_shapes_must_agree(self):
        rng = np.random.default_rng(5)
        net = Network.he_init([4, 5, 3], seed=2)
        xb = rng.uniform(0, 1, (6, 4))
        yb = rng.integers(0, 3, size=6)
        tape_clean, tape_adv = forward(net, xb), forward(net, xb[:1])
        with pytest.raises(ValueError, match="logit shapes differ"):
            _cross_entropy_and_kl(tape_clean.logits, tape_adv.logits, yb)
        with pytest.raises(ValueError, match="logit shapes differ"):
            trades_gradients(net, tape_clean, tape_adv, yb, 1.0 / 6.0)

    def test_loss_reduces_to_ce_when_adversary_is_clean(self):
        rng = np.random.default_rng(2)
        net = Network.he_init([4, 6, 3], seed=8)
        xb = rng.uniform(0, 1, (5, 4))
        yb = rng.integers(0, 3, size=5)
        loss, _ = trades_on_inputs(net, xb, yb, xb, 1.0 / 6.0)
        assert loss == pytest.approx(cross_entropy(forward(net, xb).logits, yb), abs=1e-12)


class TestStepGradients:
    def test_at_on_an_unmoved_batch_is_the_standard_step(self, monkeypatch):
        rng = np.random.default_rng(6)
        net = Network.he_init([6, 8, 3], seed=4)
        xb = rng.uniform(0, 1, (12, 6))
        yb = rng.integers(0, 3, size=12)
        monkeypatch.setattr(sys.modules["advlab.train"], "pgd", lambda net, batch, *a, **k: batch)
        loss_std, grads_std = _step_gradients(net, xb, yb, tiny_config(method="standard"), attack_seed=1)
        loss_at, grads_at = _step_gradients(net, xb, yb, tiny_config(method="at"), attack_seed=1)
        assert np.float64(loss_at).tobytes() == np.float64(loss_std).tobytes()
        assert [g.tobytes() for g in grads_at] == [g.tobytes() for g in grads_std]

    def test_at_decorr_is_ce_on_the_attack_plus_the_penalty_of_both_tapes(self, monkeypatch):
        rng = np.random.default_rng(7)
        net = Network.he_init([6, 8, 6, 3], seed=6)
        xb = rng.uniform(0, 1, (8, 6))
        yb = rng.integers(0, 3, size=8)
        x_adv = np.clip(xb + rng.uniform(-0.04, 0.04, xb.shape), 0, 1)
        assert away_from_relu_kinks(net, xb) and away_from_relu_kinks(net, x_adv)
        cfg = DecorrConfig(alpha=0.3, damping=1e-2)
        monkeypatch.setattr(sys.modules["advlab.train"], "pgd", lambda *a, **k: x_adv)
        loss, analytic = _step_gradients(net, xb, yb, tiny_config(method="at_decorr", hidden=(8, 6), penalty=cfg), 1)

        def objective(n):
            tape_clean, tape_adv = forward(n, xb), forward(n, x_adv)
            return cross_entropy(tape_adv.logits, yb) + cfg.alpha * pair_penalty(tape_clean, tape_adv, cfg)

        assert loss == cross_entropy(forward(net, x_adv).logits, yb)
        assert max_rel_error(analytic, fd_weight_gradients(objective, net, step=1e-6)) < 1e-4


class TestEvaluate:
    def test_zero_epsilon_attack_equals_clean(self):
        ds = synth_blobs(3, 10, 5, 0.1, seed=9)
        net = Network.he_init([5, 8, 3], seed=10)
        rows = evaluate(net, ds, [AttackSpec(epsilon=0.0, step_size=0.01, steps=5)], seed=0)
        assert rows[1]["accuracy"] == rows[0]["accuracy"]

    def test_attack_ordering_on_trained_net(self, tmp_path):
        config = tiny_config(method="at", epochs=6, lr=0.1)
        train(config, tmp_path)
        net = load_checkpoint(tmp_path / "checkpoint.json")
        (ds,) = dataset_from_spec(DATASET, "test")
        eps = 0.08
        accs = []
        for seed in range(5):
            rows = evaluate(
                net, ds,
                [
                    AttackSpec(epsilon=eps, step_size=eps, steps=1),           # fgsm-like
                    AttackSpec(epsilon=eps, step_size=eps / 4, steps=20),      # pgd-20
                    AttackSpec(epsilon=eps, step_size=eps / 4, steps=20, loss="cw_margin"),
                ],
                seed=seed,
            )
            accs.append([row["accuracy"] for row in rows])
        med = np.median(np.asarray(accs), axis=0)
        assert med[0] >= med[1] >= med[2]  # clean >= single-step >= pgd-20

    def test_random_starts_in_one_list_are_restarts(self, monkeypatch):
        calls = []

        def recorded(net, x, y, spec, seed, clean_logits, compact):
            assert not compact
            calls.append((spec, seed, first_flips(net, x, y, spec, seed, clean_logits, compact)))
            return calls[-1][2]

        monkeypatch.setattr(sys.modules["advlab.train"], "first_flips", recorded)
        ds = synth_blobs(3, 10, 5, 0.1, seed=9)
        net = Network.he_init([5, 8, 3], seed=10)
        start = AttackSpec(epsilon=0.1, step_size=0.02, steps=2, random_start=True)
        plain = AttackSpec(epsilon=0.1, step_size=0.02, steps=2)
        evaluate(net, ds, [start, start, plain, plain], seed=4)
        assert [spec for spec, _, _ in calls] == [start, start, plain, plain]
        for i, (spec, seed, record) in enumerate(calls):  # attack i draws from the eval sub-stream (seed, 3, i)
            assert seed == epoch_seed_from(4, 3, i)
            assert record.tobytes() == first_flips(net, ds.inputs, ds.labels, spec, seed=seed, compact=False).tobytes()
        assert calls[0][1] != calls[1][1]
        assert calls[2][2].tobytes() == calls[3][2].tobytes()

    def test_every_row_takes_every_step_whatever_the_net(self, monkeypatch):
        # evaluate's cost is fixed by rows and steps: broken rows stay in the attack
        ds = synth_blobs(4, 40, 6, 0.3, seed=15)
        net = Network.he_init([6, 10, 4], seed=16)
        specs = [AttackSpec(0.3, 0.15, 5), AttackSpec(1.0, 0.5, 3, norm="l2", random_start=True)]
        passes = []
        original = attacks._forward
        monkeypatch.setattr(attacks, "_forward", lambda tape, *a: passes.append(len(tape.logits)) or original(tape, *a))
        clean, *robust = evaluate(net, ds, specs, seed=2)
        assert all(row["accuracy"] < clean["accuracy"] for row in robust)  # rows did break
        assert passes == [len(ds.inputs)] * sum(spec.steps + 1 for spec in specs)

    def test_epoch_metrics_equal_evaluate_on_the_same_rows(self):
        config = tiny_config(attack_eval=AttackSpec(epsilon=0.15, step_size=0.05, steps=4, random_start=True))
        train_ds, test_ds = dataset_from_spec(DATASET, "train", "test")
        net = Network.he_init([6, 8, 3], seed=12)
        idx_train, idx_test = np.arange(0, 36, 2), np.arange(18)
        eval_rows = {"train": (train_ds.inputs[idx_train], train_ds.labels[idx_train]),
                     "test": (test_ds.inputs[idx_test], test_ds.labels[idx_test])}
        metrics = _epoch_metrics(net, eval_rows, config, master=5)
        for tag, ds, idx in (("train", train_ds, idx_train), ("test", test_ds, idx_test)):
            rows = Dataset(ds.inputs[idx], ds.labels[idx], ds.num_classes, ds.name)
            # the epoch eval attacks from (master, 3, 1): attack 1 of an evaluate list
            clean, _, robust = evaluate(net, rows, [config.attack_eval] * 2, seed=5)
            assert (metrics[f"clean_{tag}"], metrics[f"pgd_{tag}"]) == (clean["accuracy"], robust["accuracy"])

    @pytest.mark.parametrize("loss", ["cross_entropy", "cw_margin", "kl"])
    def test_robust_accuracy_never_exceeds_clean(self, loss):
        # a kl attack ignores the labels, so it can move a clean-wrong row to
        # the right class; that row is still broken at iterate 0
        ds = synth_blobs(4, 40, 6, 0.3, seed=15)
        net = Network.he_init([6, 10, 4], seed=16)
        specs = [AttackSpec(0.3, 0.15, steps, loss=loss, random_start=start)
                 for steps in (1, 5) for start in (False, True) if start or loss != "kl"]
        clean, *robust = evaluate(net, ds, specs, seed=2)
        assert 0.0 < clean["accuracy"] < 1.0
        assert all(row["accuracy"] <= clean["accuracy"] for row in robust)
        wrong = forward(net, ds.inputs).logits.argmax(axis=1) != ds.labels
        for spec in specs:
            assert (first_flips(net, ds.inputs, ds.labels, spec, seed=2)[wrong] == 0).all()

    def test_chance_level_for_untrained_net(self):
        ds = synth_blobs(10, 60, 8, 0.05, seed=11)
        net = Network.he_init([8, 16, 10], seed=12)
        rows = evaluate(net, ds, [], seed=0)
        assert 0.05 <= rows[0]["accuracy"] <= 0.15

    def test_csv_output(self, tmp_path):
        ds = synth_blobs(2, 5, 4, 0.1, seed=13)
        net = Network.he_init([4, 6, 2], seed=14)
        rows = evaluate(net, ds, [AttackSpec(epsilon=0.1, step_size=0.05, steps=2)], seed=1)
        path = tmp_path / "evaluate.csv"
        write_evaluation_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "attack,norm,epsilon,steps,step_size,loss,accuracy"
        assert len(lines) == 3
