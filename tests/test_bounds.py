import json

import numpy as np
import pytest

from advlab.bounds import (
    BOUND_KINDS,
    BoundInputs,
    BoundReport,
    evaluate_bound,
)
from advlab.linalg import random_correlation
from advlab.network import Layer, Network
from advlab.weight_stats import LayerCorrStats


def stats_entry(layer, dim, lamc=1.0, lamr=1.0, lam_max=1.0, lam_min=1.0,
                logdet=0.0, det_lb=1.0, data="clean"):
    return LayerCorrStats(
        layer=layer, dim=dim,
        lam_max=lam_max, lam_min=lam_min, lamc_max=lamc, lamr_max=lamr,
        det_lb=det_lb, logdet=logdet, frob_sq=float(dim),
        source="laplace", data=data, sample_count=1,
    )


def identity_stats(net):
    return [stats_entry(i, layer.weight.size) for i, layer in enumerate(net.layers, start=1)]


def single_identity_net(dim=3):
    return Network([Layer(np.hstack([np.eye(dim), np.zeros((dim, 1))]), "identity")])


def rank_one_two_layer_net():
    w1 = np.zeros((4, 4)); w1[0, 0] = 2.0
    w2 = np.zeros((2, 5)); w2[0, 0] = 0.5
    return Network([Layer(w1, "relu"), Layer(w2, "identity")])


INPUTS = BoundInputs(gamma=0.5, delta=0.05, m=1000, input_bound=3.0, epsilon=0.1)


def capacity(net):
    """The capacity product of the spectral kinds, as `evaluate_bound` reports it."""
    return evaluate_bound(net, INPUTS, "xiao").phi


def correlated_capacity(net, stats):
    """The capacity product inflated by (sum_l lamc_l + lamr_l)^2, as the `corr` kind reports it."""
    return evaluate_bound(net, INPUTS, "corr", stats).phi


class TestPhiStandard:
    """The capacity product phi of the spectral kinds."""

    def test_identity_layer(self):
        assert capacity(single_identity_net(3)) == pytest.approx(3.0, rel=1e-10)

    def test_rank_one_two_layers(self):
        # (2^2 * 0.5^2) * (4/4 + 0.25/0.25)
        assert capacity(rank_one_two_layer_net()) == pytest.approx(2.0, rel=1e-10)

    def test_rescaling_invariance(self):
        net = Network.he_init([5, 7, 6, 4], seed=1)
        base = capacity(net)
        alpha = 2.9
        scaled = net.with_weights(
            [alpha * net.weights[0], net.weights[1] / alpha, net.weights[2]]
        )
        assert capacity(scaled) == pytest.approx(base, rel=1e-10)

    def test_zero_layer_rejected(self):
        net = Network([Layer(np.zeros((2, 3)), "identity")])
        with pytest.raises(ValueError, match="a layer has zero spectral norm"):
            capacity(net)


class TestPhiCorrelated:
    """The correlation-inflated capacity product phi of the correlation kinds."""

    def test_identity_correlations_give_two_n_squared(self):
        net = Network.he_init([4, 6, 5, 3], seed=2)
        n = len(net.layers)
        got = correlated_capacity(net, identity_stats(net))
        assert got == pytest.approx(capacity(net) * (2 * n) ** 2, rel=1e-12)

    def test_single_layer_hand_value(self):
        net = single_identity_net(3)
        stats = [stats_entry(1, net.layers[0].weight.size, lamc=2.0, lamr=3.0)]
        assert correlated_capacity(net, stats) == pytest.approx(25.0 * capacity(net), rel=1e-12)

    def test_uniform_scaling_is_quadratic(self):
        net = Network.he_init([4, 5, 3], seed=3)
        base = identity_stats(net)
        t = 1.7
        scaled = [
            stats_entry(s.layer, s.dim, lamc=t * s.lamc_max, lamr=t * s.lamr_max)
            for s in base
        ]
        assert correlated_capacity(net, scaled) == pytest.approx(
            t * t * correlated_capacity(net, base), rel=1e-12
        )

    def test_missing_layer_rejected(self):
        net = Network.he_init([4, 5, 3], seed=4)
        with pytest.raises(ValueError, match=r"statistics cover layers \[1\], not 1..2"):
            correlated_capacity(net, identity_stats(net)[:1])

    def test_max_over_clean_and_adversarial(self):
        net = single_identity_net(2)
        dim = net.layers[0].weight.size
        stats = [
            stats_entry(1, dim, lamc=1.0, lamr=1.0, data="clean"),
            stats_entry(1, dim, lamc=2.0, lamr=0.5, data="adversarial"),
        ]
        # per-layer maxima: lamc 2.0, lamr 1.0
        assert correlated_capacity(net, stats) == pytest.approx(9.0 * capacity(net), rel=1e-12)


class TestEvaluateBound:
    def test_identity_correlation_reduction(self):
        net = Network.he_init([4, 6, 3], seed=5)
        n, h = len(net.layers), max(l.out_dim for l in net.layers)
        # align the placeholder constant with the clean bound's width factor
        inputs = BoundInputs(
            gamma=0.5, delta=0.05, m=1000, input_bound=3.0, epsilon=0.1,
            constant=float(n * np.sqrt(h * np.log(n * h))),
        )
        xiao = evaluate_bound(net, inputs, "xiao")
        corr = evaluate_bound(net, inputs, "corr", identity_stats(net))
        assert corr.logdet_term == 0.0
        assert corr.phi_term == pytest.approx(xiao.phi_term * (2 * n) ** 2, rel=1e-12)
        assert corr.numerator - corr.log_term == pytest.approx(
            (xiao.numerator - xiao.log_term) * (2 * n) ** 2, rel=1e-12
        )

    def test_zero_epsilon_collapses_to_clean_radius(self):
        net = Network.he_init([4, 5, 3], seed=6)
        inputs = BoundInputs(gamma=0.5, delta=0.05, m=500, input_bound=2.0, epsilon=0.0)
        ney = evaluate_bound(net, inputs, "neyshabur")
        xiao = evaluate_bound(net, inputs, "xiao")
        assert xiao.phi_term == ney.phi_term
        assert xiao.numerator == ney.numerator

    def test_weight_doubling_increases_complexity(self):
        net = single_identity_net(3)
        doubled = net.with_weights([2.0 * net.weights[0]])
        a = evaluate_bound(net, INPUTS, "neyshabur")
        b = evaluate_bound(doubled, INPUTS, "neyshabur")
        assert b.complexity_term > a.complexity_term

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError, match="gamma must be > 0"):
            BoundInputs(gamma=0.0, delta=0.05, m=10, input_bound=1.0)

    def test_mixed_bound_dominates_true_logdet_bound(self):
        rng = np.random.default_rng(7)
        net = single_identity_net(3)
        dim = net.layers[0].weight.size
        corr_mat = random_correlation(dim, rng)
        eig = np.linalg.eigvalsh(corr_mat)
        stats = [stats_entry(
            1, dim, lamc=1.3, lamr=1.2,
            lam_max=float(eig[-1]), lam_min=float(eig[0]),
            logdet=float(np.sum(np.log(eig))),
            det_lb=0.5,
        )]
        true_det = evaluate_bound(net, INPUTS, "corr", stats)
        lower_bound = evaluate_bound(net, INPUTS, "corr_mixed", stats)
        assert lower_bound.logdet_term >= true_det.logdet_term
        assert lower_bound.numerator >= true_det.numerator

    def test_monotonicity_randomized(self):
        rng = np.random.default_rng(8)
        net = Network.he_init([4, 5, 3], seed=9)
        stats = identity_stats(net)
        for _ in range(100):
            gamma = float(rng.uniform(0.1, 2.0))
            delta = float(rng.uniform(0.01, 0.5))
            m = int(rng.integers(50, 5000))
            b = float(rng.uniform(0.5, 5.0))
            eps = float(rng.uniform(0.0, 1.0))
            base = BoundInputs(gamma, delta, m, b, eps)
            for kind, needs in (("xiao", False), ("corr", True)):
                st = stats if needs else None
                ref = evaluate_bound(net, base, kind, st).complexity_term
                up_eps = BoundInputs(gamma, delta, m, b, eps + 0.3)
                assert evaluate_bound(net, up_eps, kind, st).complexity_term >= ref
                up_m = BoundInputs(gamma, delta, 2 * m, b, eps)
                assert evaluate_bound(net, up_m, kind, st).complexity_term <= ref
                up_gamma = BoundInputs(2 * gamma, delta, m, b, eps)
                assert evaluate_bound(net, up_gamma, kind, st).complexity_term <= ref
            scaled = [
                stats_entry(s.layer, s.dim, lamc=1.5 * s.lamc_max, lamr=1.5 * s.lamr_max)
                for s in stats
            ]
            assert (
                evaluate_bound(net, base, "corr", scaled).complexity_term
                >= evaluate_bound(net, base, "corr", stats).complexity_term
            )

    def test_mixed_bound_survives_underflowing_determinant(self):
        # at realistic dimensions the determinant bound underflows float64,
        # but its logarithm is what the numerator needs
        net = single_identity_net(2)
        stats = [stats_entry(1, dim=2000, lam_max=3.0, lam_min=0.01, det_lb=0.0, logdet=-5000.0)]
        report = evaluate_bound(net, INPUTS, "corr_mixed", stats)
        assert np.isfinite(report.logdet_term)
        assert report.logdet_term > 700.0

    def test_rank_deficient_stats_rejected(self):
        net = single_identity_net(2)
        bad = [stats_entry(1, net.layers[0].weight.size, lam_min=0.0, logdet=-np.inf, det_lb=0.0)]
        with pytest.raises(ValueError, match="layer 1 lacks a finite log-determinant"):
            evaluate_bound(net, INPUTS, "corr", bad)
        with pytest.raises(ValueError, match="layer 1 has a vanishing determinant lower bound"):
            evaluate_bound(net, INPUTS, "corr_mixed", bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            evaluate_bound(single_identity_net(2), INPUTS, "tighter")


class TestReportSerialization:
    def test_json_structure_and_round_trip(self):
        net = Network.he_init([3, 4, 2], seed=10)
        report = evaluate_bound(net, INPUTS, "corr", identity_stats(net))
        doc = json.loads(report.to_json_text())
        assert list(doc)[:8] == [
            "kind", "phi", "phi_term", "logdet_term", "log_term", "kl_proxy",
            "numerator", "complexity_term",
        ]
        assert doc["complexity_term"] == report.complexity_term
        assert doc["inputs"]["epsilon"] == INPUTS.epsilon
        assert len(doc["per_layer"]) == 2

    def test_csv_row(self, tmp_path):
        net = Network.he_init([3, 4, 2], seed=11)
        report = evaluate_bound(net, INPUTS, "xiao")
        path = tmp_path / "bound.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(BoundReport.CSV_FIELDS)
        cells = lines[1].split(",")
        assert cells[0] == "xiao"
        assert float(cells[7]) == report.complexity_term

    def test_kl_proxy_is_phi_plus_logdet(self):
        net = Network.he_init([3, 4, 2], seed=12)
        report = evaluate_bound(net, INPUTS, "corr", identity_stats(net))
        assert report.kl_proxy == report.phi_term + report.logdet_term
        assert report.numerator == pytest.approx(report.kl_proxy + report.log_term, rel=1e-15)

    def test_all_kinds_evaluate(self):
        net = Network.he_init([3, 4, 2], seed=13)
        stats = identity_stats(net)
        for kind in BOUND_KINDS:
            report = evaluate_bound(net, INPUTS, kind, stats)
            assert report.complexity_term > 0.0
            assert np.isfinite(report.numerator)
