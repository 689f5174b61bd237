"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. The training-direction criterion reproduces directional effects
on a seeded synthetic digit-stand-in config (small-sample robust
overfitting at desk scale); quantitative paper-scale tables are out of
reach by design.
"""

import json
import time

import numpy as np
import pytest

from conftest import away_from_relu_kinks, fd_weight_gradients, max_rel_error

from advlab.attacks import AttackSpec
from advlab.bounds import BoundInputs, evaluate_bound
from advlab.cli import EXIT_OK, main
from advlab.decorr import DecorrConfig, hessian_kron_factors, penalty_and_grad, penalty_dlast
from advlab.linalg import (
    det_lower_bound,
    equicorrelation,
    random_correlation,
)
from advlab.network import (
    Network,
    backward,
    cross_entropy,
    forward,
    load_checkpoint,
    loss_logit_grad,
)
from advlab.train import RunConfig, dataset_from_spec, train, trades_gradients
from advlab.weight_stats import (
    LayerCorrStats,
    check_perturbation_bound,
    corr_from_laplace,
    simulate_correlation_study,
)


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Analytic gradients of CE, the TRADES composite, and the penalty-
    augmented adversarial objective all match central finite differences."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = {}

    net = Network.he_init([6, 12, 4], seed=1)
    x = rng.uniform(0, 1, (6, 6))
    y = rng.integers(0, 4, size=6)
    assert away_from_relu_kinks(net, x)
    tape = forward(net, x)
    analytic = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, y))
    oracle = fd_weight_gradients(lambda n: cross_entropy(forward(n, x).logits, y), net)
    worst["cross_entropy"] = max_rel_error(analytic, oracle)

    net = Network.he_init([5, 10, 3], seed=2)
    x = rng.uniform(0, 1, (5, 5))
    y = rng.integers(0, 3, size=5)
    x_adv = np.clip(x + rng.uniform(-0.05, 0.05, x.shape), 0, 1)
    assert away_from_relu_kinks(net, x) and away_from_relu_kinks(net, x_adv)
    lam = 1.0 / 6.0

    def trades(n):
        return trades_gradients(n, forward(n, x), forward(n, x_adv), y, lam)

    _, analytic = trades(net)
    oracle = fd_weight_gradients(lambda n: trades(n)[0], net)
    worst["trades"] = max_rel_error(analytic, oracle)

    net = Network.he_init([4, 8, 3], seed=3)
    x = rng.uniform(0, 1, (8, 4))
    y = rng.integers(0, 3, size=8)
    x_adv = np.clip(x + rng.uniform(-0.04, 0.04, x.shape), 0, 1)
    assert away_from_relu_kinks(net, x) and away_from_relu_kinks(net, x_adv)
    cfg = DecorrConfig(alpha=0.3, damping=1e-2)

    def augmented(n):
        t_clean, t_adv = forward(n, x), forward(n, x_adv)
        penalty = penalty_and_grad(t_adv.activations[-2], cfg)[0] + penalty_and_grad(
            t_clean.activations[-2], cfg
        )[0]
        return cross_entropy(t_adv.logits, y) + cfg.alpha * penalty

    t_clean, t_adv = forward(net, x), forward(net, x_adv)
    d_adv = loss_logit_grad("cross_entropy", t_adv.logits, y)
    adv = backward(net, t_adv, d_adv, penalty_dlast(t_adv, cfg))
    clean = backward(net, t_clean, np.zeros_like(d_adv), penalty_dlast(t_clean, cfg))
    analytic = [a + b for a, b in zip(adv, clean)]
    oracle = fd_weight_gradients(augmented, net, step=1e-6)
    worst["augmented"] = max_rel_error(analytic, oracle)

    elapsed = time.time() - t0
    assert all(err < 1e-4 for err in worst.values()), worst
    assert elapsed < 60.0
    report(1, "gradient suite rel errors "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + f" (< 1e-4) in {elapsed:.1f}s")


def test_criterion_2_matrix_lemma_suite():
    """Eigenvalue lemmas hold with zero violations over >= 1000 seeded
    instances each; the determinant bound also survives 10000 samples at
    dimension 9."""
    t0 = time.time()
    rng = np.random.default_rng(202)

    for _ in range(1000):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        assert (
            np.linalg.eigvalsh(a + b)[-1]
            <= np.linalg.eigvalsh(a)[-1] + np.linalg.eigvalsh(b)[-1] + 1e-10
        )

    for _ in range(1000):
        a = random_correlation(6, rng)
        b = random_correlation(6, rng)
        q = rng.uniform()
        lo = min(np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(b)[0])
        assert np.linalg.eigvalsh(q * a + (1 - q) * b)[0] >= lo - 1e-10

    for _ in range(1000):
        d = int(rng.integers(2, 10))
        r = float(rng.uniform(-1.0 / (d - 1), 1.0))
        eig = np.linalg.eigvalsh(equicorrelation(d, r))
        expect = np.sort(np.r_[1.0 + (d - 1) * r, np.full(d - 1, 1.0 - r)])
        assert np.abs(eig - expect).max() <= 1e-9

    violations = 0
    for _ in range(1000):
        a = random_correlation(6, rng)
        b = random_correlation(6, rng)
        q = rng.uniform()
        eig = np.linalg.eigvalsh(q * a + (1 - q) * b)
        bound = det_lower_bound(min(max(eig[0], 1e-12), 1.0), max(eig[-1], 1.0), 6)
        violations += float(np.prod(eig)) < bound - 1e-12
    for _ in range(10000):
        eig = np.linalg.eigvalsh(random_correlation(9, rng))
        bound = det_lower_bound(min(max(eig[0], 1e-12), 1.0), max(eig[-1], 1.0), 9)
        violations += float(np.prod(eig)) < bound - 1e-12
    assert violations == 0

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(2, f"Weyl/bracketing/equicorrelation/determinant lemmas, "
              f"0 violations over 14000 instances in {elapsed:.1f}s")


def test_criterion_3_correlation_study():
    """10000 sampled 9-dim correlation matrices show the expected norm
    trade-off, and the equicorrelation sweep is exactly monotone."""
    t0 = time.time()
    study = simulate_correlation_study(dim=9, n_samples=10_000, family="random", seed=303)
    assert study.rho_frob_lam > 0.5
    assert study.rho_frob_det < -0.5

    sweep = simulate_correlation_study(
        dim=9, n_samples=200, family="equicorrelation", r_range=(0.0, 0.9)
    )
    diffs = np.diff(sweep.rows, axis=0)
    assert np.all(diffs[:, 0] > 0) and np.all(diffs[:, 1] > 0) and np.all(diffs[:, 2] < 0)

    negative = simulate_correlation_study(
        dim=9, n_samples=200, family="equicorrelation", r_range=(-0.124, -0.001)
    )
    diffs = np.diff(negative.rows[::-1], axis=0)  # increasing |r|
    assert np.all(diffs[:, 0] > 0) and np.all(diffs[:, 1] > 0) and np.all(diffs[:, 2] < 0)

    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, f"rho(frob, lam_proxy)={study.rho_frob_lam:+.3f} > +0.5, "
              f"rho(frob, det_lb)={study.rho_frob_det:+.3f} < -0.5, "
              f"equicorrelation sweep exactly monotone, in {elapsed:.1f}s")


def test_criterion_4_perturbation_bound():
    """95th-percentile of ||U||_2/(2 sqrt(h) sigma) stays below 1.3 for iid
    Gaussian square matrices at h in {16, 64}."""
    t0 = time.time()
    p95 = {}
    for h in (16, 64):
        rep = check_perturbation_bound(h, sigma=1.0, trials=200, seed=404)
        p95[h] = rep.p95
        assert rep.p95 < 1.3
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, f"p95 ratios h=16: {p95[16]:.3f}, h=64: {p95[64]:.3f} (< 1.3) in {elapsed:.1f}s")


def test_criterion_5_kronecker_hessian():
    """For a single sample the factored Hessian of the softmax output layer
    equals the finite-difference Hessian; the multi-sample factorization
    gap is reported without a threshold."""
    rng = np.random.default_rng(505)
    net = Network.he_init([3, 4], seed=55)  # affine layer into 4 classes
    x = rng.uniform(0, 1, (1, 3))
    y = [1]
    tape = forward(net, x)
    a_hat, h_hat = hessian_kron_factors(tape)
    kron = np.kron(a_hat, h_hat)

    w0 = net.weights[0]
    out, cols = w0.shape
    dim = out * cols
    step = 1e-4

    def loss_at(flat):
        w = flat.reshape(cols, out).T  # column-major weight vectorization
        return cross_entropy(forward(net.with_weights([w]), x).logits, y)

    base = w0.T.reshape(-1)
    fd = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            pp, pm, mp, mm = (base.copy() for _ in range(4))
            pp[i] += step; pp[j] += step
            pm[i] += step; pm[j] -= step
            mp[i] -= step; mp[j] += step
            mm[i] -= step; mm[j] -= step
            fd[i, j] = (loss_at(pp) - loss_at(pm) - loss_at(mp) + loss_at(mm)) / (4 * step**2)
    rel = np.abs(kron - fd).max() / np.abs(fd).max()
    assert rel < 1e-6

    # informational: the factorized expectation over a batch is approximate
    xb = rng.uniform(0, 1, (16, 3))
    tape_b = forward(net, xb)
    a_b, h_b = hessian_kron_factors(tape_b)
    from advlab.network import softmax

    exact = np.zeros((dim, dim))
    for row_a, row_p in zip(np.hstack([xb, np.ones((16, 1))]), softmax(tape_b.logits)):
        exact += np.kron(np.outer(row_a, row_a), np.diag(row_p) - np.outer(row_p, row_p))
    exact /= 16
    gap = np.linalg.norm(np.kron(a_b, h_b) - exact) / np.linalg.norm(exact)
    report(5, f"single-sample Hessian match rel err {rel:.2e} (< 1e-6); "
              f"multi-sample factorization gap {gap:.3f} (reported only)")


def test_criterion_6_bound_calculator():
    """Capacity-product invariance, identity-correlation reduction, and
    monotonicity in every input, with zero violations."""
    rng = np.random.default_rng(606)

    net = Network.he_init([5, 8, 8, 4], seed=66)

    def capacity(n):
        return evaluate_bound(n, BoundInputs(0.5, 0.05, 2000, 3.0), "xiao").phi

    base = capacity(net)
    for _ in range(20):
        s0, s1 = rng.uniform(0.3, 3.0, size=2)
        # scale layers against each other, preserving the spectral product
        scaled = net.with_weights(
            [s0 * net.weights[0], (s1 / s0) * net.weights[1], net.weights[2] / s1]
        )
        assert abs(capacity(scaled) - base) <= 1e-10 * base

    def identity_stats(n):
        return [
            LayerCorrStats(
                layer=i, dim=layer.weight.size,
                lam_max=1.0, lam_min=1.0, lamc_max=1.0, lamr_max=1.0,
                det_lb=1.0, logdet=0.0, frob_sq=float(layer.weight.size),
                source="laplace", data="clean", sample_count=1,
            )
            for i, layer in enumerate(n.layers, start=1)
        ]

    inputs = BoundInputs(gamma=0.5, delta=0.05, m=2000, input_bound=3.0, epsilon=0.1)
    xiao = evaluate_bound(net, inputs, "xiao")
    corr = evaluate_bound(net, inputs, "corr", identity_stats(net))
    assert corr.logdet_term == 0.0
    # identity statistics are the iid case of every layer's step: corr is xiao, bit for bit
    assert corr.phi_term == xiao.phi_term and corr.numerator == xiao.numerator
    ratio = corr.phi_term / xiao.phi_term

    stats = identity_stats(net)
    violations = 0
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.01, 0.5))
        m = int(rng.integers(50, 5000))
        b = float(rng.uniform(0.5, 5.0))
        eps = float(rng.uniform(0.0, 1.0))
        ref_inputs = BoundInputs(gamma, delta, m, b, eps)
        for kind, st in (("xiao", None), ("corr", stats)):
            ref = evaluate_bound(net, ref_inputs, kind, st).complexity_term
            if evaluate_bound(net, BoundInputs(gamma, delta, m, b, eps + 0.25), kind, st).complexity_term < ref:
                violations += 1
            if evaluate_bound(net, BoundInputs(2 * gamma, delta, m, b, eps), kind, st).complexity_term > ref:
                violations += 1
            if evaluate_bound(net, BoundInputs(gamma, delta, 2 * m, b, eps), kind, st).complexity_term > ref:
                violations += 1
        bigger = [
            LayerCorrStats(
                layer=s.layer, dim=s.dim, lam_max=1.0, lam_min=1.0,
                lamc_max=1.4 * s.lamc_max, lamr_max=1.4 * s.lamr_max, det_lb=1.0,
                logdet=0.0, frob_sq=s.frob_sq, source=s.source, data=s.data,
                sample_count=1,
            )
            for s in stats
        ]
        if (
            evaluate_bound(net, ref_inputs, "corr", bigger).complexity_term
            < evaluate_bound(net, ref_inputs, "corr", stats).complexity_term
        ):
            violations += 1
    assert violations == 0
    report(6, f"capacity invariance <= 1e-10, identity reduction ratio {ratio:.1f} "
              f"(corr == xiao), 0/700 monotonicity violations")


ACCEPT_DATASET = {
    "kind": "synthetic", "num_classes": 10, "per_class": 60, "dim": 32,
    "spread": 0.25, "seed": 100, "test_per_class": 80,
}


def _accept_config(method, alpha, seed):
    return RunConfig(
        dataset=ACCEPT_DATASET, hidden=(96, 96), method=method, epochs=24,
        batch_size=100, lr=0.1, momentum=0.9, weight_decay=5e-4, seed=seed,
        attack_train=AttackSpec(epsilon=0.15, step_size=0.0375, steps=10, random_start=True),
        attack_eval=AttackSpec(epsilon=0.15, step_size=0.0375, steps=20),
        penalty=DecorrConfig(alpha=alpha, damping=5.0),
        eval_subset=600,
    )


def test_criterion_7_training_directions(tmp_path):
    """Directional training effects on the digit-stand-in config over 5
    seeds: adversarial training lifts robust accuracy over standard
    training by >= 20 points, the penalty lowers the final clean-side
    correlation norm (both the direct penalty value and the estimated
    column-correlation spectral norm), shrinks the robust train-test gap,
    and costs at most 1.6x wall-clock per epoch."""
    t0 = time.time()
    metric_cfg = DecorrConfig(alpha=1.0, damping=1e-3)
    (train_ds,) = dataset_from_spec(ACCEPT_DATASET, "train")

    def shared_penalty(out_dir):
        net = load_checkpoint(out_dir / "checkpoint.json")
        tape = forward(net, train_ds.inputs)
        return penalty_and_grad(tape.activations[-2], metric_cfg)[0]

    def estimated_lamc(out_dir):
        # ridge comparable to the one the penalty trained against; far
        # smaller ridges probe near-null directions the penalty never saw
        net = load_checkpoint(out_dir / "checkpoint.json")
        return corr_from_laplace(net, train_ds, len(net.layers), damping=1.0).lamc_max

    rows = []
    for seed in range(5):
        row = {}
        for method, alpha in (("standard", 0.0), ("at", 0.0), ("at_decorr", 0.3)):
            out = tmp_path / f"{method}-{seed}"
            record = train(_accept_config(method, alpha, 1000 + seed), out)
            final = record.final
            row[method] = {
                "pgd_test": final["pgd_test"],
                "gap": final["pgd_train"] - final["pgd_test"],
                "pen": shared_penalty(out),
                "lamc": estimated_lamc(out) if method != "standard" else float("nan"),
                "wall": float(np.mean(record.wall_train_s)),
            }
        rows.append(row)
        print(
            f"  seed {seed}: std pgd={row['standard']['pgd_test']:.3f} | "
            f"at pgd={row['at']['pgd_test']:.3f} gap={row['at']['gap']:+.3f} "
            f"pen={row['at']['pen']:.0f} lamc={row['at']['lamc']:.3f} | "
            f"at_decorr pgd={row['at_decorr']['pgd_test']:.3f} gap={row['at_decorr']['gap']:+.3f} "
            f"pen={row['at_decorr']['pen']:.0f} lamc={row['at_decorr']['lamc']:.3f} "
            f"wall_ratio={row['at_decorr']['wall']/row['at']['wall']:.2f}"
        )

    med = lambda m, k: float(np.median([r[m][k] for r in rows]))
    robust_lift = med("at", "pgd_test") - med("standard", "pgd_test")
    pen_at, pen_dec = med("at", "pen"), med("at_decorr", "pen")
    lamc_at, lamc_dec = med("at", "lamc"), med("at_decorr", "lamc")
    gap_at, gap_dec = med("at", "gap"), med("at_decorr", "gap")
    wall_ratio = float(np.median([r["at_decorr"]["wall"] / r["at"]["wall"] for r in rows]))
    elapsed = time.time() - t0

    assert robust_lift >= 0.20, f"(a) robust lift {robust_lift:.3f}"
    assert pen_dec < pen_at, f"(b) penalty {pen_dec:.1f} !< {pen_at:.1f}"
    assert lamc_dec < lamc_at, f"(b) estimated lamc {lamc_dec:.3f} !< {lamc_at:.3f}"
    assert gap_dec < gap_at, f"(c) gap {gap_dec:.3f} !< {gap_at:.3f}"
    assert wall_ratio <= 1.6, f"(d) wall ratio {wall_ratio:.2f}"
    assert elapsed < 1800.0
    report(7, f"(a) robust lift {robust_lift:.3f} >= 0.20; "
              f"(b) penalty {pen_at:.1f} -> {pen_dec:.1f}, "
              f"estimated lamc {lamc_at:.3f} -> {lamc_dec:.3f}; "
              f"(c) robust gap {gap_at:.3f} -> {gap_dec:.3f}; "
              f"(d) wall ratio {wall_ratio:.2f} <= 1.6; total {elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    """Every CLI command rerun with the same config and seed emits
    byte-identical CSV/JSON artifacts."""
    train_doc = {
        "dataset": {"kind": "synthetic", "num_classes": 3, "per_class": 12, "dim": 6,
                    "spread": 0.1, "seed": 7, "test_per_class": 6},
        "hidden": [8], "method": "at_decorr", "epochs": 2, "batch_size": 12,
        "lr": 0.05, "seed": 21,
        "attack_train": {"epsilon": 0.1, "step_size": 0.025, "steps": 3},
        "attack_eval": {"epsilon": 0.1, "step_size": 0.025, "steps": 4},
        "penalty": {"alpha": 0.3, "damping": 1.0},
        "eval_subset": 36,
    }
    (tmp_path / "train.json").write_text(json.dumps(train_doc))
    for rep in ("a", "b"):
        assert main(["train", "--config", str(tmp_path / "train.json"),
                     "--out", str(tmp_path / f"t{rep}")]) == EXIT_OK
    checkpoint = str(tmp_path / "ta" / "checkpoint.json")

    eval_doc = {
        "checkpoint": checkpoint, "dataset": train_doc["dataset"],
        "attacks": [{"epsilon": 0.1, "step_size": 0.025, "steps": 5}], "seed": 3,
    }
    stats_doc = {
        "checkpoint": checkpoint, "dataset": train_doc["dataset"], "method": "laplace",
        "attack": {"epsilon": 0.1, "step_size": 0.025, "steps": 3}, "seed": 3,
    }
    bound_doc = {
        "checkpoint": checkpoint, "kind": "xiao",
        "inputs": {"gamma": 0.5, "delta": 0.05, "m": 36, "input_bound": 2.0, "epsilon": 0.1},
    }
    sim_doc = {"family": "random", "dim": 6, "n_samples": 100, "seed": 11}
    jobs = {
        "evaluate": (eval_doc, ("evaluate.csv",)),
        "stats": (stats_doc, ("stats_2_laplace_clean.csv", "stats_2_laplace_adversarial.csv")),
        "bound": (bound_doc, ("bound.json", "bound.csv")),
        "simulate": (sim_doc, ("simulate.csv", "simulate_summary.json")),
    }
    compared = 3
    for name, (doc, artifacts) in jobs.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        for rep in ("a", "b"):
            assert main([name, "--config", str(config),
                         "--out", str(tmp_path / f"{name}-{rep}")]) == EXIT_OK
        for artifact in artifacts:
            a = (tmp_path / f"{name}-a" / artifact).read_bytes()
            b = (tmp_path / f"{name}-b" / artifact).read_bytes()
            assert a == b, f"{name}/{artifact} differs between reruns"
            compared += 1
    for artifact in ("metrics.csv", "checkpoint.json", "run.json"):
        assert (tmp_path / "ta" / artifact).read_bytes() == (tmp_path / "tb" / artifact).read_bytes()
    report(8, f"all five commands rerun byte-identical ({compared} artifacts compared)")
