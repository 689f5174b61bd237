import dataclasses
import warnings

import numpy as np
import pytest
import scipy.stats

from advlab import weight_stats
from advlab.data import Dataset, synth_blobs
from advlab.decorr import hessian_kron_factors, normalized_precision, resolve_ridge
from advlab.io import FormatError
from advlab.linalg import (
    det_lower_bound,
    equicorrelation,
    frobenius_sq,
    normalize_to_correlation,
    random_correlation,
    spectral_norm,
)
from advlab.network import Layer, Network, backward, cross_entropy, forward, loss_logit_grad
from advlab.weight_stats import (
    CorrelationStudy,
    LayerCorrStats,
    PerturbationReport,
    SamplingConfig,
    STUDY_BLOCK,
    check_perturbation_bound,
    corr_from_laplace,
    corr_from_samples,
    laplace_stats_from_factors,
    sample_weight_perturbations,
    simulate_correlation_study,
    spearman_rho,
    _layer_stats,
)


def small_trained_net(ds, seed=1, steps=300, lr=0.5):
    net = Network.he_init([ds.dim, 6, ds.num_classes], seed=seed)
    for _ in range(steps):
        tape = forward(net, ds.inputs)
        grads = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, ds.labels))
        net = net.with_weights([w - lr * g for w, g in zip(net.weights, grads)])
    return net


def dataset_loss(net, ds):
    return cross_entropy(forward(net, ds.inputs).logits, ds.labels)


def reference_sampler(net, ds, cfg):
    """The sampler with a full-network candidate per draw; also how many refined draws it kept."""
    base_loss = dataset_loss(net, ds)
    sigmas = weight_stats._layer_sigmas(net, cfg)
    active = weight_stats._active_mask(net, cfg)
    accepted, refined_kept = [], 0
    for draw in range(100 * cfg.num_samples):
        if len(accepted) == cfg.num_samples:
            break
        rng = np.random.default_rng([cfg.seed, draw])
        noise = [sigma * rng.standard_normal(w.shape) if on else np.zeros_like(w)
                 for w, sigma, on in zip(net.weights, sigmas, active)]
        candidate = net.with_weights([w + u for w, u in zip(net.weights, noise)])
        if abs(dataset_loss(candidate, ds) - base_loss) <= cfg.loss_tolerance:
            accepted.append(noise)
            continue
        refined = weight_stats._refine(candidate, ds, cfg, active, draw)
        if abs(dataset_loss(refined, ds) - base_loss) <= cfg.loss_tolerance:
            accepted.append([rw - w for rw, w in zip(refined.weights, net.weights)])
            refined_kept += 1
    return accepted, refined_kept


def deep_trained_net(ds, seed=11, steps=200, lr=0.3):
    net = Network.he_init([ds.dim, 7, 6, ds.num_classes], seed=seed)
    for _ in range(steps):
        tape = forward(net, ds.inputs)
        grads = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, ds.labels))
        net = net.with_weights([w - lr * g for w, g in zip(net.weights, grads)])
    return net


def laplace_correlations(net, ds, damping):
    """The Laplace estimator's column and row correlations, formed from the same factors."""
    factors = hessian_kron_factors(forward(net, ds.inputs))
    return [normalized_precision(f, resolve_ridge(f, damping)[0]) for f in factors]


class TestSampling:
    def test_zero_sigma_accepts_zero_deltas(self):
        ds = synth_blobs(3, 10, 5, 0.1, seed=0)
        net = small_trained_net(ds)
        cfg = SamplingConfig(num_samples=4, noise_sigma=0.0, seed=1)
        deltas = sample_weight_perturbations(net, ds, cfg)
        assert len(deltas) == 4
        for d in deltas:
            for u in d:
                assert np.array_equal(u, np.zeros_like(u))

    def test_infinite_tolerance_accepts_raw_noise(self):
        ds = synth_blobs(2, 8, 4, 0.1, seed=2)
        net = small_trained_net(ds)
        cfg = SamplingConfig(num_samples=5, loss_tolerance=np.inf, noise_sigma=0.3, seed=3)
        deltas = sample_weight_perturbations(net, ds, cfg)
        # every draw is accepted untouched, in draw order
        for k, d in enumerate(deltas):
            rng = np.random.default_rng([3, k])
            for u, w in zip(d, net.weights):
                assert np.array_equal(u, 0.3 * rng.standard_normal(w.shape))

    def test_accepted_deltas_satisfy_constraint_post_hoc(self):
        ds = synth_blobs(3, 12, 5, 0.08, seed=4)
        net = small_trained_net(ds)
        cfg = SamplingConfig(
            num_samples=6, loss_tolerance=0.05, refine_epochs=30, refine_lr=0.05,
            refine_batch_size=len(ds), noise_sigma=0.1, seed=5,
        )
        base = dataset_loss(net, ds)
        for delta in sample_weight_perturbations(net, ds, cfg):
            shifted = net.with_weights([w + u for w, u in zip(net.weights, delta)])
            assert abs(dataset_loss(shifted, ds) - base) <= cfg.loss_tolerance

    def test_stalls_when_constraint_unreachable(self):
        ds = synth_blobs(2, 6, 3, 0.1, seed=6)
        net = small_trained_net(ds)
        cfg = SamplingConfig(
            num_samples=2, loss_tolerance=1e-12, refine_epochs=0, noise_sigma=5.0, seed=7
        )
        with pytest.raises(ValueError, match="accepted 0/2 after 200 draws"):
            sample_weight_perturbations(net, ds, cfg)

    def test_layer_restriction_leaves_other_layers_untouched(self):
        ds = synth_blobs(3, 10, 5, 0.1, seed=8)
        net = small_trained_net(ds)
        cfg = SamplingConfig(
            num_samples=3, loss_tolerance=np.inf, noise_sigma=0.2, layers=(2,), seed=9
        )
        deltas = sample_weight_perturbations(net, ds, cfg)
        for delta in deltas:
            assert np.array_equal(delta[0], np.zeros_like(delta[0]))
            assert np.any(delta[1] != 0.0)
        # the unperturbed layer's zero delta is one read-only array shared by every sample
        assert all(delta[0] is deltas[0][0] for delta in deltas)
        assert not deltas[0][0].flags.writeable

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            SamplingConfig(layers=())

    def test_negative_noise_sigma_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma -0.5 is not a number >= 0"):
            SamplingConfig(noise_sigma=-0.5)
        assert SamplingConfig(noise_sigma=0.0).noise_sigma == 0.0  # zero noise stays a valid request


class TestSamplerHeadForward:
    """The sampler forwards the frozen layers once and each draw only the head, bit for bit."""

    @pytest.mark.parametrize("layers", [(3,), (2,), (1, 3), None])
    def test_bit_identical_to_full_network_candidates(self, layers):
        ds = synth_blobs(3, 12, 5, 0.1, seed=10)
        net = deep_trained_net(ds)
        cfg = SamplingConfig(num_samples=8, noise_sigma=0.05, layers=layers, seed=4)
        expected, _ = reference_sampler(net, ds, cfg)
        self.assert_same_deltas(sample_weight_perturbations(net, ds, cfg), expected)

    def test_bit_identical_with_rejections_and_refinement(self):
        ds = synth_blobs(3, 12, 5, 0.1, seed=10)
        net = deep_trained_net(ds)
        for layers in ((2, 3), None):
            cfg = SamplingConfig(num_samples=6, loss_tolerance=0.02, refine_epochs=2, refine_lr=0.02,
                                 refine_batch_size=8, noise_sigma=0.3, layers=layers, seed=3)
            expected, refined_kept = reference_sampler(net, ds, cfg)
            assert refined_kept > 0
            self.assert_same_deltas(sample_weight_perturbations(net, ds, cfg), expected)

    @pytest.mark.parametrize("layers, first", [((3,), 3), ((2, 3), 2), ((1,), 1), (None, 1)])
    def test_each_draw_forwards_only_the_head(self, monkeypatch, layers, first):
        ds = synth_blobs(3, 12, 5, 0.1, seed=10)
        net = deep_trained_net(ds)
        depth = len(net.layers)
        depths = []

        def counting_forward(model, batch):
            depths.append(len(model.layers))
            return forward(model, batch)

        monkeypatch.setattr(weight_stats, "forward", counting_forward)
        cfg = SamplingConfig(num_samples=5, loss_tolerance=np.inf, noise_sigma=0.1, layers=layers,
                             seed=2)
        sample_weight_perturbations(net, ds, cfg)
        assert depths == [depth] + [depth - first + 1] * cfg.num_samples  # one base pass, then heads

    @staticmethod
    def assert_same_deltas(got, expected):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert [u.shape for u in g] == [u.shape for u in e]
            assert [u.tobytes() for u in g] == [u.tobytes() for u in e]


class TestCorrFromSamples:
    def test_antipodal_rank_one(self):
        v = np.array([[1.0, -2.0, 0.5], [0.3, 1.5, -0.7]])
        stats = corr_from_samples([[v], [-v]], 1)
        # R is the normalized rank-one outer product: top eigenvalue = dim
        assert stats.lam_max == pytest.approx(6.0, abs=1e-9)
        assert stats.lam_min == pytest.approx(0.0, abs=1e-12)
        flat = np.stack([v.reshape(-1), -v.reshape(-1)])
        r = flat.T @ flat / (2 * np.mean(flat * flat))
        eig = np.linalg.eigvalsh(r)
        assert eig[-1] == pytest.approx(6.0, abs=1e-9)
        assert np.allclose(eig[:-1], 0.0, atol=1e-9)
        assert stats.det_lb == 0.0

    def test_iid_noise_concentrates_to_identity(self):
        rng = np.random.default_rng(10)
        h, samples = 8, 4000
        deltas = [[rng.standard_normal((h, h))] for _ in range(samples)]
        stats = corr_from_samples(deltas, 1)
        # the estimator's correlations, from the same delta Gram sums
        rc = normalize_to_correlation(sum(d[0].T @ d[0] for d in deltas) / samples)
        rr = normalize_to_correlation(sum(d[0] @ d[0].T for d in deltas) / samples)
        assert stats.lamc_max == np.sqrt(np.linalg.eigvalsh(rc)[-1])
        assert stats.lamr_max == np.sqrt(np.linalg.eigvalsh(rr)[-1])
        off_c = rc - np.eye(h)
        off_r = rr - np.eye(h)
        tol = 5.0 / np.sqrt(samples * h)
        assert np.abs(off_c).max() < tol
        assert np.abs(off_r).max() < tol

    def test_constant_coordinate_is_degenerate(self):
        v = np.array([[1.0, 0.0], [2.0, 0.0]])  # second column never varies
        with pytest.raises(ValueError, match="a weight coordinate never varies across samples"):
            corr_from_samples([[v], [v]], 1)

    @pytest.mark.parametrize("count", [6, 40], ids=["fewer-samples-than-dim", "more-samples-than-dim"])
    def test_summary_matches_materialized_spectrum(self, count):
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((3, 5)) for _ in range(count)]
        stats = corr_from_samples([[m] for m in mats], 1)
        flat = np.stack([m.reshape(-1) for m in mats])
        r = flat.T @ flat / (count * np.mean(flat * flat))
        eig = np.linalg.eigvalsh(r)
        assert stats.lam_max == pytest.approx(eig[-1], rel=1e-10)
        assert stats.frob_sq == pytest.approx(frobenius_sq(r), rel=1e-10)
        if count < flat.shape[1]:
            assert stats.lam_min == 0.0
            assert stats.logdet == -np.inf
            assert stats.det_lb == 0.0
        else:
            assert stats.lam_min == pytest.approx(eig[0], rel=1e-10)
            assert stats.logdet == pytest.approx(np.linalg.slogdet(r)[1], rel=1e-10)
            assert stats.det_lb == det_lower_bound(stats.lam_min, stats.lam_max, flat.shape[1])

    @pytest.mark.parametrize("layer", [0, 3])
    def test_layer_out_of_range_rejected(self, layer):
        rng = np.random.default_rng(14)
        deltas = [[rng.standard_normal((2, 3)), rng.standard_normal((2, 3))] for _ in range(3)]
        with pytest.raises(ValueError, match=f"layer {layer} outside 1..2"):
            corr_from_samples(deltas, layer)

    def test_invariants_hold(self):
        rng = np.random.default_rng(12)
        deltas = [[rng.standard_normal((4, 6))] for _ in range(50)]
        stats = corr_from_samples(deltas, 1)
        stats.validate()
        assert stats.lam_min <= 1.0 <= stats.lam_max


class TestLaplace:
    def test_identity_factors_give_identity_correlations(self):
        stats = laplace_stats_from_factors(np.eye(5), np.eye(3), 1e-3, layer=1, sample_count=1)
        # a unit-diagonal PSD matrix is the identity exactly when its top eigenvalue is 1
        assert stats.lam_max == stats.lam_min == 1.0
        assert stats.frob_sq == 15.0
        assert stats.det_lb == 1.0
        assert stats.logdet == 0.0
        assert stats.lamc_max == 1.0 and stats.lamr_max == 1.0

    def test_huge_damping_washes_out_correlation(self):
        ds = synth_blobs(3, 20, 6, 0.1, seed=13)
        net = small_trained_net(ds)
        stats = corr_from_laplace(net, ds, 2, damping=1e6)
        rc = laplace_correlations(net, ds, 1e6)[0]
        assert stats.lamc_max == pytest.approx(np.sqrt(np.linalg.eigvalsh(rc)[-1]), rel=1e-12)
        assert np.abs(rc - np.eye(rc.shape[0])).max() < 1e-3

    def test_real_net_invariants(self):
        ds = synth_blobs(3, 20, 6, 0.1, seed=14)
        net = small_trained_net(ds)
        stats = corr_from_laplace(net, ds, 2, damping=1e-3)
        stats.validate()
        assert stats.dim == (net.layers[-1].in_dim + 1) * net.output_dim
        assert stats.det_lb > 0.0
        assert np.isfinite(stats.logdet)
        assert stats.det_lb <= np.exp(stats.logdet) * (1 + 1e-9)

    @pytest.mark.parametrize("damping", [1e-5, 1e-3])
    def test_wide_low_rank_input_factor_keeps_det_lb_in_range(self, damping):
        # a 200-wide rank-20 input factor with 10 outputs: the determinant
        # bound underflows while lam_max ** (dim - k) would overflow
        rng = np.random.default_rng(40)
        g = rng.standard_normal((20, 200))
        m = rng.standard_normal((10, 30))
        stats = laplace_stats_from_factors(g.T @ g / 20, m @ m.T / 30, damping, layer=1, sample_count=20)
        stats.validate()
        assert stats.dim == 2000
        assert stats.det_lb == 0.0
        assert -np.inf < stats.logdet < -700

    def test_summary_matches_kronecker_product(self):
        ds = synth_blobs(3, 20, 4, 0.1, seed=17)
        net = small_trained_net(ds)
        stats = corr_from_laplace(net, ds, 2, damping=1e-3)
        r = np.kron(*laplace_correlations(net, ds, 1e-3))
        eig = np.linalg.eigvalsh(r)
        sign, logdet = np.linalg.slogdet(r)
        assert stats.dim == r.shape[0] == 21
        assert stats.lam_max == pytest.approx(eig[-1], rel=1e-10)
        assert stats.lam_min == pytest.approx(eig[0], rel=1e-8)
        assert sign == 1.0 and stats.logdet == pytest.approx(logdet, rel=1e-10)
        assert stats.frob_sq == pytest.approx(frobenius_sq(r), rel=1e-12)

    @pytest.mark.parametrize("damping", [1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_saturated_softmax_gets_the_identity_row_correlation(self, damping, scale):
        # an output layer scaled x1e3 or more makes the softmax one-hot on every row,
        # so H is exactly 0 and takes the absolute ridge `damping`
        ds = synth_blobs(3, 20, 6, 0.1, seed=14)
        net = small_trained_net(ds)
        net = net.with_weights([*net.weights[:-1], scale * net.weights[-1]])
        assert not hessian_kron_factors(forward(net, ds.inputs))[1].any()
        stats = corr_from_laplace(net, ds, 2, damping=damping)
        stats.validate()
        assert stats.lamr_max == 1.0

    @pytest.mark.parametrize("damping", [1e-3, 1.0])
    @pytest.mark.parametrize("zero", [0, 1], ids=["input-factor", "softmax-factor"])
    def test_an_all_zero_factor_acts_as_the_identity(self, damping, zero):
        g = np.random.default_rng(3).standard_normal((5, 7))
        zeros, eye = [g @ g.T, g @ g.T], [g @ g.T, g @ g.T]
        zeros[zero], eye[zero] = np.zeros((3, 3)), np.eye(3)
        stats = laplace_stats_from_factors(*zeros, damping, layer=1, sample_count=1)
        stats.validate()
        assert stats == laplace_stats_from_factors(*eye, damping, layer=1, sample_count=1)
        assert (stats.lamc_max, stats.lamr_max)[zero] == 1.0

    def test_hidden_layer_unsupported(self):
        ds = synth_blobs(2, 8, 4, 0.1, seed=15)
        net = small_trained_net(ds)
        with pytest.raises(ValueError, match="covers the softmax output layer only"):
            corr_from_laplace(net, ds, 1)

    def test_chunking_does_not_change_result(self, monkeypatch):
        ds = synth_blobs(3, 30, 5, 0.1, seed=16)
        net = small_trained_net(ds)
        results = []
        for chunk in (7, 1000):
            monkeypatch.setattr(weight_stats, "LAPLACE_CHUNK", chunk)
            results.append(corr_from_laplace(net, ds, 2, damping=1e-3))
        a, b = results
        # lamc_max and lamr_max are the fields the correlations rc and rr each determine alone
        assert a.lamc_max == pytest.approx(b.lamc_max, abs=1e-12)
        assert a.lamr_max == pytest.approx(b.lamr_max, abs=1e-12)


def flat_feature_case(k_flat, seed, d=6, classes=3, n=120):
    """Single-layer net trained on data with k_flat near-constant features.

    Near-constant features are interchangeable with the bias, which plants
    controlled flat directions in the last-layer loss landscape; more
    informative features mean a better-conditioned input second moment.
    """
    r = np.random.default_rng(seed)
    live = r.uniform(0.1, 1.0, (n, d - k_flat))
    flat = 0.5 + 0.02 * r.standard_normal((n, k_flat))
    x = np.clip(np.hstack([flat, live]), 0, 1)
    probes = r.standard_normal((classes, d - k_flat))
    labels = (live @ probes.T).argmax(axis=1)
    ds = Dataset(x, labels, classes, f"flat{k_flat}")
    net = Network([Layer(np.zeros((classes, d + 1)))])
    for _ in range(4000):
        tape = forward(net, ds.inputs)
        g = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, ds.labels))
        net = net.with_weights([net.weights[0] - 0.2 * g[0]])
    return net, ds


class TestCrossEstimatorConsistency:
    """Sampling and Laplace estimates compared across three constructed nets.

    Desk-scale sampling noise is of the same order as realistic cross-net
    differences, so the full three-net ordering is asserted only for the
    frozen sampler seed (verified stable over neighboring seeds 7..10);
    values are printed as the reported comparison.
    """

    def test_orderings_agree(self):
        cases = {k: flat_feature_case(k, 300 + k) for k in (0, 3, 5)}
        laplace = {
            k: corr_from_laplace(net, ds, 1, damping=1e-3).lamc_max
            for k, (net, ds) in cases.items()
        }
        sampling = {}
        for k, (net, ds) in cases.items():
            cfg = SamplingConfig(
                num_samples=100, loss_tolerance=0.05, refine_epochs=80, refine_lr=0.1,
                refine_batch_size=len(ds), noise_sigma=1.0, layers=(1,), seed=8,
            )
            deltas = sample_weight_perturbations(net, ds, cfg)
            sampling[k] = corr_from_samples(deltas, 1).lamc_max
        print(f"laplace lamc by flat-count: {laplace}")
        print(f"sampling lamc by flat-count: {sampling}")
        lap_rank = sorted(laplace, key=laplace.get)
        samp_rank = sorted(sampling, key=sampling.get)
        assert lap_rank == [5, 3, 0]
        assert samp_rank == lap_rank  # rank correlation 1 across the three nets


class TestCorrelationStudy:
    def test_equicorrelation_closed_forms(self):
        (frob, proxy, det_lb), row = weight_stats._equicorrelation_study_rows(9, np.array([0.0, 0.3]))
        assert frob == 9.0
        assert proxy == pytest.approx(3.0, abs=1e-12)
        assert det_lb == 1.0
        frob, proxy, det_lb = row
        assert frob == pytest.approx(9 + 72 * 0.09, abs=1e-12)
        assert proxy == pytest.approx(np.sqrt(9 * (1 + 8 * 0.3)), abs=1e-12)
        assert det_lb == pytest.approx((0.7**8) * (1 + 8 * 0.3), rel=1e-10)

    def test_positive_sweep_is_strictly_monotone(self):
        study = simulate_correlation_study(9, 50, "equicorrelation", r_range=(0.0, 0.9))
        diffs = np.diff(study.rows, axis=0)
        assert np.all(diffs[:, 0] > 0)  # Frobenius norm grows with r
        assert np.all(diffs[:, 1] > 0)  # spectral proxy grows with r
        assert np.all(diffs[:, 2] < 0)  # determinant bound shrinks with r

    def test_negative_sweep_is_monotone_in_magnitude(self):
        study = simulate_correlation_study(9, 50, "equicorrelation", r_range=(-0.12, -0.001))
        rows = study.rows[::-1]  # increasing |r|
        diffs = np.diff(rows, axis=0)
        assert np.all(diffs[:, 0] > 0)
        assert np.all(diffs[:, 1] > 0)
        assert np.all(diffs[:, 2] < 0)

    def test_equicorrelation_family_matches_per_matrix_spectrum(self):
        dim, n = 9, 200
        study = simulate_correlation_study(dim, n, "equicorrelation", r_range=(-0.12, 0.95))
        rows = np.empty((n, 3))
        for i, r in enumerate(np.linspace(-0.12, 0.95, n)):
            corr = equicorrelation(dim, float(r))
            eig = np.linalg.eigvalsh(corr)
            lam_min, lam_max = float(eig[0]), float(eig[-1])
            rows[i] = (
                frobenius_sq(corr),
                np.sqrt(dim * lam_max),
                det_lower_bound(min(lam_min, 1.0), max(lam_max, 1.0), dim),
            )
        np.testing.assert_allclose(study.rows, rows, rtol=1e-12, atol=0)

    def test_random_family_correlation_signs(self):
        study = simulate_correlation_study(9, 2000, "random", seed=1)
        assert study.rho_frob_lam > 0.5
        assert study.rho_frob_det < -0.5

    def test_random_family_matches_per_matrix_loop(self):
        dim, n = 7, STUDY_BLOCK + 300  # crosses a batch boundary
        study = simulate_correlation_study(dim, n, "random", seed=3)
        rng = np.random.default_rng(3)
        rows = np.empty((n, 3))
        for i in range(n):
            corr = random_correlation(dim, rng)
            eig = np.linalg.eigvalsh(corr)
            lam_min, lam_max = float(max(eig[0], 1e-12)), float(eig[-1])
            rows[i] = (
                frobenius_sq(corr),
                np.sqrt(dim * lam_max),
                det_lower_bound(min(lam_min, 1.0), max(lam_max, 1.0), dim),
            )
        np.testing.assert_allclose(study.rows, rows, rtol=1e-12, atol=0)
        # scipy is the reference rank correlation; the study's own must equal it bit for bit
        rho_lam = scipy.stats.spearmanr(study.rows[:, 0], study.rows[:, 1]).statistic
        rho_det = scipy.stats.spearmanr(study.rows[:, 0], study.rows[:, 2]).statistic
        assert study.rho_frob_lam == rho_lam
        assert study.rho_frob_det == rho_det

    @pytest.mark.parametrize("family, dim", [("random", 2), ("random", 40),
                                             ("equicorrelation", 3), ("equicorrelation", 40)])
    def test_study_rho_is_spearmanr(self, family, dim):
        study = simulate_correlation_study(dim, 300, family, seed=dim, r_range=(-0.4 / (dim - 1), 0.9))
        for col, rho in ((1, study.rho_frob_lam), (2, study.rho_frob_det)):
            assert rho == scipy.stats.spearmanr(study.rows[:, 0], study.rows[:, col]).statistic

    def test_batched_det_lb_is_det_lower_bound_per_matrix(self, monkeypatch):
        spectra, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(eigvalsh(a)) or spectra[-1])
        rows = weight_stats._random_study_rows(np.random.default_rng(5).standard_normal((3000, 9, 18)))
        (eig,) = spectra
        expected = [det_lower_bound(min(max(lo, 1e-12), 1.0), max(hi, 1.0), 9)
                    for lo, hi in zip(eig[:, 0].tolist(), eig[:, -1].tolist())]
        assert rows[:, 2].tobytes() == np.array(expected).tobytes()

    def test_csv_output(self, tmp_path):
        study = simulate_correlation_study(5, 10, "random", seed=2)
        path = tmp_path / "study.csv"
        study.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frob_sq,lam_proxy,det_lb"
        assert len(lines) == 11
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(back, study.rows)  # 17 significant digits round-trip


class TestPerturbationBound:
    def test_scalar_case_matches_half_normal_median(self):
        report = check_perturbation_bound(1, sigma=1.0, trials=4000, seed=4)
        # |u|/(2 sigma): half-normal median 0.67449 over 2
        assert report.median == pytest.approx(0.33724, abs=0.02)

    def test_square_case_is_near_one(self):
        report = check_perturbation_bound(64, sigma=0.5, trials=60, seed=5)
        assert report.median < 1.1

    def test_doubling_sigma_is_exactly_invariant(self):
        a = check_perturbation_bound(8, sigma=0.7, trials=40, seed=6)
        b = check_perturbation_bound(8, sigma=1.4, trials=40, seed=6)
        assert np.array_equal(a.ratios, b.ratios)

    def test_batched_norms_match_per_trial_spectral_norm(self):
        report = check_perturbation_bound(12, sigma=0.3, trials=30, seed=8)
        scale = 2.0 * np.sqrt(12) * 0.3
        for t, ratio in enumerate(report.ratios):
            u = 0.3 * np.random.default_rng([8, t]).standard_normal((12, 12))
            assert ratio == pytest.approx(spectral_norm(u) / scale, rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("sigma", [1.0, 0.37, 3.0])
    def test_ratios_bit_equal_to_stacked_draws(self, sigma, seed):
        """The one-buffer draws give the bits of one scaled array per trial, stacked."""
        h, trials = 16, 40
        u = np.stack([sigma * np.random.default_rng([seed, t]).standard_normal((h, h))
                      for t in range(trials)])
        expect = np.linalg.norm(u, 2, axis=(1, 2)) / (2.0 * np.sqrt(h) * sigma)
        report = check_perturbation_bound(h, sigma=sigma, trials=trials, seed=seed)
        assert report.ratios.tobytes() == expect.tobytes()

    def test_csv_rows(self, tmp_path):
        report = check_perturbation_bound(4, sigma=1.0, trials=30, seed=7)
        path = tmp_path / "ratios.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,ratio"
        assert len(lines) == 31


class TestStatsCsv:
    def test_round_trip_summary_fields(self, tmp_path):
        # the record is the CSV row
        assert tuple(f.name for f in dataclasses.fields(LayerCorrStats)) == LayerCorrStats.CSV_FIELDS
        rng = np.random.default_rng(20)
        deltas = [[rng.standard_normal((3, 4))] for _ in range(40)]
        stats = corr_from_samples(deltas, 1)
        rank_deficient = corr_from_samples([[rng.standard_normal((3, 4))] for _ in range(5)], 1)
        assert rank_deficient.lam_min == 0.0 and rank_deficient.logdet == -np.inf
        ds = synth_blobs(3, 20, 4, 0.1, seed=21)
        laplace = corr_from_laplace(small_trained_net(ds), ds, 2)
        path = tmp_path / "stats.csv"
        for record in (laplace, rank_deficient, stats):
            record.write_csv(path)
            back = LayerCorrStats.read_csv(path)
            for name in LayerCorrStats.CSV_FIELDS:
                assert getattr(back, name) == getattr(record, name), name

        # files write_csv could not have written are rejected, naming the fault
        header, row = path.read_text().splitlines()
        fields, cells = header.split(","), row.split(",")
        keep = [i for i, f in enumerate(fields) if f not in ("source", "dim")]
        dropped = [",".join(fields[i] for i in keep), ",".join(cells[i] for i in keep)]
        malformed = [
            (dropped, "missing fields dim, source"),
            ([header, row.replace(",sampling,", ",mcmc,")], "source 'mcmc'"),
            ([header, row.replace(",clean,", ",noisy,")], "data 'noisy'"),
            ([header, row, row], "exactly one stats row"),
            ([header, row.replace(",40,", ",forty,")], "forty"),
            ([header, row.replace("1,12,", "0,12,", 1)], "layer 0 outside"),
        ]
        for lines, message in malformed:
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(FormatError, match=message):
                LayerCorrStats.read_csv(path)


class TestLayerStats:
    """The one summary builder and the invariants `validate()` checks on every record."""

    @pytest.mark.parametrize("estimator", ["laplace", "sampling"])
    def test_one_eigvalsh_per_factor(self, monkeypatch, estimator):
        rng = np.random.default_rng(30)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        if estimator == "laplace":
            laplace_stats_from_factors(random_correlation(5, rng), random_correlation(3, rng), 1e-3, 1, 1)
        else:
            corr_from_samples([[rng.standard_normal((3, 5))] for _ in range(20)], 1)
        assert sorted(calls) == [(3, 3), (5, 5)]

    @pytest.mark.parametrize("rc, message", [
        ([[1.0, 0.5], [0.4, 1.0]], "rc is not symmetric"),
        ([[1.1, 0.0], [0.0, 1.0]], "rc does not have a unit diagonal"),
        ([[1.0, 1.5], [1.5, 1.0]], "rc is not PSD"),
        ([[1.0, 1.0 + 1e-11], [1.0 + 1e-11, 1.0]], "rc has off-diagonal magnitude above 1"),
    ], ids=["asymmetric", "diagonal", "indefinite", "entry-above-one"])
    def test_factor_that_is_no_correlation_rejected(self, rc, message):
        rc, rr = np.array(rc), np.eye(3)
        with pytest.raises(ValueError, match=message):
            _layer_stats(1, rc, rr, np.linalg.eigvalsh(rc), np.linalg.eigvalsh(rr), np.ones(6),
                         "laplace", 1)

    RECORD = LayerCorrStats(
        layer=1, dim=6, source="laplace", data="clean", sample_count=1, lam_max=1.5, lam_min=0.5,
        lamc_max=1.2, lamr_max=1.1, det_lb=0.1, logdet=-0.5, frob_sq=7.0,
    )

    @pytest.mark.parametrize("change", [
        {},
        {"lam_max": 1.0, "lam_min": 1.0, "lamc_max": 1.0, "lamr_max": 1.0, "frob_sq": 6.0,
         "logdet": 0.0, "det_lb": 1.0},
        {"lam_min": 0.0, "logdet": -np.inf, "det_lb": 0.0},
        {"lam_max": 6.0, "lamc_max": 6.0 ** 0.5, "frob_sq": 36.0, "lam_min": 0.0, "logdet": -np.inf,
         "det_lb": 0.0},
        {"lam_max": 1 - 5e-9, "lamr_max": 1 - 5e-9, "frob_sq": 6 * (1 - 5e-9), "logdet": 6 * 5e-9},
    ], ids=["inside", "identity", "singular", "rank-one", "rounding"])
    def test_validate_accepts_every_record_an_estimate_can_make(self, change):
        dataclasses.replace(self.RECORD, **change).validate()

    BROKEN = [
        ({"source": "mcmc"}, "unknown source 'mcmc'"),
        ({"data": "noisy"}, "data 'noisy'"),
        ({"layer": 0}, "layer 0 outside"),
        ({"dim": 0}, "dim 0 outside"),
        ({"sample_count": 0}, "sample_count 0 outside"),
        ({"lam_min": -1e-300}, "lam_min -1e-300 outside"),
        ({"lam_min": 1.1}, "lam_min 1.1 outside"),
        ({"lam_min": np.nan}, "lam_min nan outside"),
        ({"lam_max": 0.95}, "lam_max 0.95 outside"),
        ({"lam_max": 6.1}, "lam_max 6.1 outside"),
        ({"lamc_max": np.nan}, "lamc_max nan outside"),
        ({"lamc_max": 0.5}, "lamc_max 0.5 outside"),
        ({"lamr_max": 2.5}, "lamr_max 2.5 outside"),
        ({"frob_sq": 5.9}, "frob_sq 5.9 outside"),
        ({"frob_sq": np.inf}, "frob_sq inf outside"),
        ({"logdet": 50.0}, "logdet 50.0 outside"),
        ({"logdet": np.nan}, "logdet nan outside"),
        ({"logdet": -5.0}, "logdet -5.0 outside"),  # below 6 log(lam_min) = -4.16
        ({"det_lb": -1.0}, "det_lb -1.0 outside"),
        ({"det_lb": 0.7}, "det_lb 0.7 outside"),
        ({"logdet": -np.inf, "det_lb": 0.0}, "logdet -inf outside"),
        ({"lam_min": 0.0}, "lam_min 0.0 is 0 iff logdet -0.5 is -inf"),
    ]

    @pytest.mark.parametrize("change, message", BROKEN, ids=[
        ",".join(f"{k}={v}" for k, v in change.items()) for change, _ in BROKEN])
    def test_validate_names_the_broken_invariant(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(self.RECORD, **change).validate()


def spearmanr_statistic(a, b):
    """scipy's statistic, its warning for constant input silenced: the reference for spearman_rho."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.stats.ConstantInputWarning)
        return float(scipy.stats.spearmanr(a, b).statistic)


class TestSpearmanRho:
    @pytest.mark.parametrize("seed", range(40))
    def test_tie_heavy_integers_match_spearmanr_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        a = rng.integers(0, 1 + seed % 6, n).astype(float)
        b = rng.integers(0, 2 + seed % 4, n).astype(float)
        expected = spearmanr_statistic(a, b)
        got = spearman_rho(a, b)
        assert got == expected or (np.isnan(got) and np.isnan(expected))

    @pytest.mark.parametrize(
        "a, b, defined",
        [
            ([1.0, 2.0, 2.0, 3.0, 5.0], [4.0, 1.0, 1.0, 0.0, 2.0], True),
            ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], True),
            ([0.5, 0.5, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0], False),
            ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0], False),
            ([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], False),
            ([1.0], [2.0], False),
        ],
        ids=["ties", "reversed", "constant-a", "constant-b", "nan", "one-row"],
    )
    def test_cases_match_spearmanr(self, a, b, defined):
        a, b = np.array(a), np.array(b)
        got, expected = spearman_rho(a, b), spearmanr_statistic(a, b)
        if defined:
            assert got == expected
        else:  # undefined, as scipy has it
            assert np.isnan(got) and np.isnan(expected)

    def test_average_ranks_are_rankdata(self):
        x = np.random.default_rng(9).integers(0, 7, 500).astype(float)
        ranks = weight_stats._average_ranks(x)
        assert ranks.tobytes() == scipy.stats.rankdata(x).tobytes()
