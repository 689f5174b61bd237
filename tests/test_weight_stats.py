import numpy as np
import pytest
import scipy.stats

from advlab.data import Dataset, synth_blobs
from advlab.decorr import Unsupported
from advlab.linalg import det_lower_bound, frobenius_sq, random_correlation, spectral_norm
from advlab.network import Layer, Network, backward, cross_entropy_grad, forward
from advlab.weight_stats import (
    CorrelationStudy,
    DegenerateVariance,
    LayerCorrStats,
    PerturbationReport,
    SamplingConfig,
    STUDY_BLOCK,
    SamplingStalled,
    StatsFormatError,
    check_perturbation_bound,
    corr_from_laplace,
    corr_from_samples,
    equicorrelation_row,
    laplace_stats_from_factors,
    sample_weight_perturbations,
    simulate_correlation_study,
    _dataset_loss,
)


def small_trained_net(ds, seed=1, steps=300, lr=0.5):
    net = Network.he_init([ds.dim, 6, ds.num_classes], seed=seed)
    for _ in range(steps):
        tape = forward(net, ds.inputs)
        grads = backward(net, tape, cross_entropy_grad(tape.logits, ds.labels))
        net = net.with_weights([w - lr * g for w, g in zip(net.weights, grads)])
    return net


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
        base = _dataset_loss(net, ds)
        for delta in sample_weight_perturbations(net, ds, cfg):
            shifted = net.with_weights([w + u for w, u in zip(net.weights, delta)])
            assert abs(_dataset_loss(shifted, ds) - base) <= cfg.loss_tolerance

    def test_stalls_when_constraint_unreachable(self):
        ds = synth_blobs(2, 6, 3, 0.1, seed=6)
        net = small_trained_net(ds)
        cfg = SamplingConfig(
            num_samples=2, loss_tolerance=1e-12, refine_epochs=0, noise_sigma=5.0, seed=7
        )
        with pytest.raises(SamplingStalled):
            sample_weight_perturbations(net, ds, cfg)

    def test_layer_restriction_leaves_other_layers_untouched(self):
        ds = synth_blobs(3, 10, 5, 0.1, seed=8)
        net = small_trained_net(ds)
        cfg = SamplingConfig(
            num_samples=3, loss_tolerance=np.inf, noise_sigma=0.2, layers=(2,), seed=9
        )
        for delta in sample_weight_perturbations(net, ds, cfg):
            assert np.array_equal(delta[0], np.zeros_like(delta[0]))
            assert np.any(delta[1] != 0.0)


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
        off_c = stats.rc - np.eye(h)
        off_r = stats.rr - np.eye(h)
        tol = 5.0 / np.sqrt(samples * h)
        assert np.abs(off_c).max() < tol
        assert np.abs(off_r).max() < tol

    def test_constant_coordinate_is_degenerate(self):
        v = np.array([[1.0, 0.0], [2.0, 0.0]])  # second column never varies
        with pytest.raises(DegenerateVariance):
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
        assert np.array_equal(stats.rc, np.eye(5))
        assert np.array_equal(stats.rr, np.eye(3))
        assert stats.det_lb == 1.0
        assert stats.logdet == 0.0
        assert stats.lamc_max == 1.0 and stats.lamr_max == 1.0

    def test_huge_damping_washes_out_correlation(self):
        ds = synth_blobs(3, 20, 6, 0.1, seed=13)
        net = small_trained_net(ds)
        stats = corr_from_laplace(net, ds, 2, damping=1e6)
        assert np.abs(stats.rc - np.eye(stats.rc.shape[0])).max() < 1e-3

    def test_real_net_invariants(self):
        ds = synth_blobs(3, 20, 6, 0.1, seed=14)
        net = small_trained_net(ds)
        stats = corr_from_laplace(net, ds, 2, damping=1e-3)
        stats.validate()
        assert stats.dim == (net.layers[-1].in_dim + 1) * net.output_dim
        assert stats.det_lb > 0.0
        assert np.isfinite(stats.logdet)
        assert stats.det_lb <= np.exp(stats.logdet) * (1 + 1e-9)

    def test_summary_matches_kronecker_product(self):
        ds = synth_blobs(3, 20, 4, 0.1, seed=17)
        net = small_trained_net(ds)
        stats = corr_from_laplace(net, ds, 2, damping=1e-3)
        r = np.kron(stats.rc, stats.rr)
        eig = np.linalg.eigvalsh(r)
        sign, logdet = np.linalg.slogdet(r)
        assert stats.dim == r.shape[0] == 21
        assert stats.lam_max == pytest.approx(eig[-1], rel=1e-10)
        assert stats.lam_min == pytest.approx(eig[0], rel=1e-8)
        assert sign == 1.0 and stats.logdet == pytest.approx(logdet, rel=1e-10)
        assert stats.frob_sq == pytest.approx(frobenius_sq(r), rel=1e-12)

    def test_hidden_layer_unsupported(self):
        ds = synth_blobs(2, 8, 4, 0.1, seed=15)
        net = small_trained_net(ds)
        with pytest.raises(Unsupported):
            corr_from_laplace(net, ds, 1)

    def test_chunking_does_not_change_result(self):
        ds = synth_blobs(3, 30, 5, 0.1, seed=16)
        net = small_trained_net(ds)
        a = corr_from_laplace(net, ds, 2, damping=1e-3, chunk=7)
        b = corr_from_laplace(net, ds, 2, damping=1e-3, chunk=1000)
        assert np.allclose(a.rc, b.rc, atol=1e-12)
        assert a.lamc_max == pytest.approx(b.lamc_max, abs=1e-12)


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
    net = Network([Layer(np.zeros((classes, d + 1)), "identity")])
    for _ in range(4000):
        tape = forward(net, ds.inputs)
        g = backward(net, tape, cross_entropy_grad(tape.logits, ds.labels))
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
        frob, proxy, det_lb = equicorrelation_row(9, 0.0)
        assert frob == 9.0
        assert proxy == pytest.approx(3.0, abs=1e-12)
        assert det_lb == 1.0
        frob, proxy, det_lb = equicorrelation_row(9, 0.3)
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
        rho_lam = scipy.stats.spearmanr(rows[:, 0], rows[:, 1]).statistic
        rho_det = scipy.stats.spearmanr(rows[:, 0], rows[:, 2]).statistic
        assert study.rho_frob_lam == pytest.approx(rho_lam, abs=1e-12)
        assert study.rho_frob_det == pytest.approx(rho_det, abs=1e-12)

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

    def test_csv_rows(self, tmp_path):
        report = check_perturbation_bound(4, sigma=1.0, trials=30, seed=7)
        path = tmp_path / "ratios.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,ratio"
        assert len(lines) == 31


class TestStatsCsv:
    def test_round_trip_summary_fields(self, tmp_path):
        rng = np.random.default_rng(20)
        deltas = [[rng.standard_normal((3, 4))] for _ in range(40)]
        stats = corr_from_samples(deltas, 1)
        path = tmp_path / "stats.csv"
        stats.write_csv(path)
        back = LayerCorrStats.read_csv(path)
        for name in ("layer", "dim", "source", "data", "sample_count"):
            assert getattr(back, name) == getattr(stats, name)
        for name in ("lam_max", "lam_min", "lamc_max", "lamr_max", "det_lb", "frob_sq"):
            assert getattr(back, name) == getattr(stats, name)

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
        ]
        for lines, message in malformed:
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(StatsFormatError, match=message):
                LayerCorrStats.read_csv(path)
