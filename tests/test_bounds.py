import json

import numpy as np
import pytest

from advlab.bounds import (
    BOUND_KINDS,
    BoundInputs,
    BoundReport,
    evaluate_bound,
)
from advlab.linalg import equicorrelation, random_correlation
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
    return Network([Layer(np.hstack([np.eye(dim), np.zeros((dim, 1))]))])


def rank_one_two_layer_net():
    w1 = np.zeros((4, 4)); w1[0, 0] = 2.0
    w2 = np.zeros((2, 5)); w2[0, 0] = 0.5
    return Network([Layer(w1), Layer(w2)])


INPUTS = BoundInputs(gamma=0.5, delta=0.05, m=1000, input_bound=3.0, epsilon=0.1)


def capacity(net):
    """The capacity product of every kind, as `evaluate_bound` reports it."""
    return evaluate_bound(net, INPUTS, "xiao").phi


def steps(net, stats=None):
    """Each layer's perturbation step, as the report's per-layer rows carry it."""
    kind = "xiao" if stats is None else "corr"
    return [row["step"] for row in evaluate_bound(net, INPUTS, kind, stats).per_layer]


def hand_step(shape, n, lamc=1.0, lamr=1.0):
    """s_l of the `advlab.bounds` docstring for folded weights of `shape` in an n-layer net."""
    h_out, h_in1 = shape
    return lamr * np.sqrt(h_in1) + lamc * np.sqrt(h_out) + lamc * lamr * np.sqrt(2 * np.log(2 * n))


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
        net = Network([Layer(np.zeros((2, 3)))])
        with pytest.raises(ValueError, match="a layer has zero spectral norm"):
            capacity(net)


class TestPhiCorrelated:
    """The phi_term of the correlation kinds: their statistics enter each layer's step s_l."""

    def test_identity_statistics_give_the_iid_steps(self):
        net = Network.he_init([4, 6, 5, 3], seed=2)
        n = len(net.layers)
        assert steps(net, identity_stats(net)) == steps(net)
        assert steps(net) == pytest.approx([hand_step(l.weight.shape, n) for l in net.layers], rel=1e-15)

    def test_demo_net_steps(self):
        # 32-96-96-10: folded weights (96, 33), (96, 97) and (10, 97)
        got = steps(Network.he_init([32, 96, 96, 10], seed=0))
        assert got == pytest.approx([17.435540090495586, 21.53983524575366, 14.90415393478933],
                                    rel=1e-14)
        assert sum(got) ** 2 == pytest.approx(2903.0036744687022, rel=1e-14)

    def test_single_layer_hand_value(self):
        net = single_identity_net(3)  # folded (3, 4), n = 1
        stats = [stats_entry(1, net.layers[0].weight.size, lamc=2.0, lamr=3.0)]
        (step,) = steps(net, stats)
        assert step == pytest.approx(3.0 * 2.0 + 2.0 * np.sqrt(3.0) + 6.0 * np.sqrt(2 * np.log(2)),
                                     rel=1e-15)
        report = evaluate_bound(net, INPUTS, "corr", stats)
        assert report.phi == capacity(net)  # the statistics enter the step, never phi
        radius = INPUTS.input_bound + INPUTS.epsilon
        assert report.phi_term == pytest.approx(radius**2 * step**2 * capacity(net), rel=1e-15)

    def test_phi_term_scales_with_the_squared_step_sum(self):
        net = Network.he_init([4, 5, 6, 3], seed=3)
        n = len(net.layers)
        lams = [(1.3, 1.1), (2.0, 1.0), (1.0, 1.6)]
        stats = [stats_entry(i, l.weight.size, lamc=c, lamr=r)
                 for i, (l, (c, r)) in enumerate(zip(net.layers, lams), start=1)]
        want = [hand_step(l.weight.shape, n, c, r) for l, (c, r) in zip(net.layers, lams)]
        assert steps(net, stats) == pytest.approx(want, rel=1e-15)
        corr = evaluate_bound(net, INPUTS, "corr", stats)
        xiao = evaluate_bound(net, INPUTS, "xiao")
        assert corr.phi_term / xiao.phi_term == pytest.approx(
            (sum(want) / sum(steps(net))) ** 2, rel=1e-13)

    def test_missing_layer_rejected(self):
        net = Network.he_init([4, 5, 3], seed=4)
        with pytest.raises(ValueError, match=r"statistics cover layers \[1\], not 1..2"):
            steps(net, identity_stats(net)[:1])

    def test_max_over_clean_and_adversarial(self):
        net = single_identity_net(2)  # folded (2, 3), n = 1
        dim = net.layers[0].weight.size
        stats = [
            stats_entry(1, dim, lamc=1.0, lamr=1.0, data="clean"),
            stats_entry(1, dim, lamc=2.0, lamr=0.5, data="adversarial"),
        ]
        # per-layer maxima: lamc 2.0, lamr 1.0
        assert steps(net, stats) == [hand_step((2, 3), 1, lamc=2.0, lamr=1.0)]

    @pytest.mark.parametrize("r_col, r_row", [(0.0, 0.0), (0.3, 0.0), (0.3, 0.5)],
                             ids=["iid", "column-correlated", "both-correlated"])
    def test_step_bounds_matrix_normal_draws(self, r_col, r_row):
        # U = Lr Z Lc^T with Lr Lr^T = Rr and Lc Lc^T = Rc has the law of Rr^1/2 Z Rc^1/2;
        # the (96, 97) middle layer of the demo net, n = 3
        net = Network.he_init([32, 96, 96, 10], seed=0)
        n, draws = len(net.layers), 300
        h_out, h_in1 = net.layers[1].weight.shape
        rc, rr = equicorrelation(h_in1, r_col), equicorrelation(h_out, r_row)
        stats = identity_stats(net)
        stats[1] = stats_entry(2, rc.shape[0] * rr.shape[0],
                               lamc=float(np.sqrt(np.linalg.eigvalsh(rc)[-1])),
                               lamr=float(np.sqrt(np.linalg.eigvalsh(rr)[-1])))
        step = steps(net, stats)[1]
        z = np.random.default_rng(31).standard_normal((draws, h_out, h_in1))
        norms = np.linalg.norm(np.linalg.cholesky(rr) @ z @ np.linalg.cholesky(rc).T, 2, axis=(1, 2))
        p = 1.0 / (2 * n)  # each layer's share of the 1/2 failure probability
        assert np.mean(norms > step) <= p + 3.0 * np.sqrt(p * (1.0 - p) / draws)
        if r_col == r_row == 0.0:  # not vacuous: the iid step is near the largest draw
            assert norms.max() >= 0.9 * step


class TestEvaluateBound:
    def test_identity_correlation_reduction(self):
        net = Network.he_init([4, 6, 3], seed=5)
        xiao = evaluate_bound(net, INPUTS, "xiao")
        corr = evaluate_bound(net, INPUTS, "corr", identity_stats(net))
        assert corr.logdet_term == 0.0
        assert corr.phi_term == xiao.phi_term
        assert corr.numerator == xiao.numerator

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

    def test_float64_overflow_is_a_value_error(self):
        net = single_identity_net(3)
        with pytest.raises(ValueError, match="bound term numerator is inf"):
            evaluate_bound(net, BoundInputs(0.5, 0.05, 10, input_bound=1e300), "xiao")
        # a margin whose square overflows reads as an infinite margin
        assert evaluate_bound(net, BoundInputs(1e200, 0.05, 10, 1.0), "xiao").complexity_term == 0.0

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
        net = Network([Layer(np.eye(40, 50))])  # 2000 weights
        stats = [stats_entry(1, dim=2000, lam_max=3.0, lam_min=0.01, det_lb=0.0, logdet=-5000.0)]
        report = evaluate_bound(net, INPUTS, "corr_mixed", stats)
        assert np.isfinite(report.logdet_term)
        assert report.logdet_term > 700.0

    @pytest.mark.parametrize("kind", ["corr", "corr_mixed"])
    def test_stats_of_another_nets_layer_rejected(self, kind):
        # a layer of 3x4 weights, described by the statistics of a 2x3 one
        stats = identity_stats(single_identity_net(2))
        message = r"stats\[0\] \(laplace, clean\) has dim 6; layer 1 has 12 weights"
        with pytest.raises(ValueError, match=message):
            evaluate_bound(single_identity_net(3), INPUTS, kind, stats)

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
