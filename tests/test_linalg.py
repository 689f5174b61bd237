import numpy as np
import pytest

from advlab import linalg
from advlab.decorr import normalized_precision, resolve_ridge
from advlab.linalg import (
    NotPositiveDefinite,
    det_lower_bound,
    equicorrelation,
    frobenius_sq,
    inverse_psd,
    normalize_to_correlation,
    random_correlation,
    spectral_norm,
)
from advlab.weight_stats import laplace_stats_from_factors


def random_pd(dim, rng):
    g = rng.standard_normal((dim, dim + 2))
    return g @ g.T + 0.5 * np.eye(dim)


class TestSymEig:
    """Symmetric spectra via np.linalg.eigvalsh (ascending), and the
    symmetric-input validation shared by the Cholesky routines."""

    def test_diagonal(self):
        got = np.linalg.eigvalsh(np.diag([3.0, 1.0]))
        assert np.allclose(got, [1.0, 3.0])

    def test_equicorrelation_closed_form(self):
        # 1 + (d-1)r once, 1 - r with multiplicity d-1
        got = np.linalg.eigvalsh(equicorrelation(3, 0.5))
        assert np.allclose(got, [0.5, 0.5, 2.0], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        m = 0.5 * (a + a.T)
        assert abs(np.linalg.eigvalsh(m).sum() - np.trace(m)) < 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        m = random_pd(10, rng)
        vals, vecs = np.linalg.eigh(m)
        err = np.linalg.norm((vecs * vals) @ vecs.T - m)
        assert err <= 1e-10 * np.linalg.norm(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match=r"must be square, got \(2, 3\)"):
            inverse_psd(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="is not symmetric within tolerance"):
            inverse_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_accepts_roundoff_asymmetry(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        inverse_psd(m)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-8)

    def test_rectangular_diagonal(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 16))
        oracle = np.sqrt(np.linalg.eigvalsh(m.T @ m)[-1])
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-7)

    def test_ones_start_orthogonal_to_top_eigenspace(self):
        # top eigenvector (1,-1)/sqrt(2) is exactly orthogonal to all-ones
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert spectral_norm(m) == pytest.approx(3.0, rel=1e-7)

    @pytest.mark.parametrize("gap", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_never_below_top_singular_value_at_small_gaps(self, gap):
        # a bound built on an underestimated norm is optimistic
        rng = np.random.default_rng([96, round(-np.log10(gap))])
        for _ in range(10):
            u, _ = np.linalg.qr(rng.standard_normal((96, 96)))
            v, _ = np.linalg.qr(rng.standard_normal((97, 96)))
            s = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.1, 0.9, 94)])
            assert spectral_norm((u * s) @ v.T) >= 1.0 - 1e-12


class TestFrobeniusSq:
    def test_identity(self):
        assert frobenius_sq(np.eye(3)) == 3.0

    def test_small(self):
        assert frobenius_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0

    def test_equicorrelation_closed_form(self):
        # d + d(d-1) r^2
        assert frobenius_sq(equicorrelation(9, 0.3)) == pytest.approx(15.48, abs=1e-12)


class TestLogdetPsd:
    """The log-determinant of a positive-definite correlation as the Laplace summary
    reports it: log det(P (x) Q) from the spectra of the normalized factor inverses."""

    def test_identity(self):
        assert laplace_stats_from_factors(np.eye(4), np.eye(3), 1e-9, 1, 1).logdet == 0.0

    def test_scaled_identity(self):
        # the unit-diagonal normalization removes a factor's scale
        assert laplace_stats_from_factors(2.0 * np.eye(3), np.eye(2), 1e-9, 1, 1).logdet == 0.0

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(5)
        factors = random_pd(6, rng), random_pd(3, rng)
        stats = laplace_stats_from_factors(*factors, 1e-3, 1, 1)
        rc, rr = (normalized_precision(f, resolve_ridge(f, 1e-3)[0]) for f in factors)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(np.kron(rc, rr)))))
        assert stats.logdet == pytest.approx(oracle, abs=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            laplace_stats_from_factors(np.diag([1.0, -1.0]), np.eye(2), 1e-3, 1, 1)


class TestInversePsd:
    def test_diagonal(self):
        assert np.allclose(inverse_psd(np.diag([4.0, 1.0])), np.diag([0.25, 1.0]))

    def test_identity(self):
        assert np.allclose(inverse_psd(np.eye(5)), np.eye(5))

    def test_residual(self):
        rng = np.random.default_rng(9)
        m = random_pd(8, rng)
        residual = np.linalg.norm(m @ inverse_psd(m) - np.eye(8))
        assert residual < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            inverse_psd(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("m", [np.ones((3, 3)), [[1.0, 2.0], [2.0, 1.0]], -np.eye(4)],
                             ids=["singular", "indefinite", "negative-definite"])
    def test_rejects_singular_and_indefinite(self, m):
        with pytest.raises(NotPositiveDefinite):
            inverse_psd(m)

    def test_rejects_singular_to_working_precision(self):
        # a 1e-30 ridge on a zero direction: Cholesky succeeds with pivot 1e-15
        with pytest.raises(NotPositiveDefinite):
            inverse_psd(np.diag([1.0, 0.0]) + 1e-30 * np.eye(2))

    @staticmethod
    def ridged_activation_covariance():
        # the decorrelation penalty's input: a ReLU layer's batch second moment plus a ridge
        rng = np.random.default_rng(10)
        a = np.maximum(rng.standard_normal((100, 96)) @ rng.standard_normal((96, 96)), 0.0)
        cov = a.T @ a / 100
        return cov + 5.0 * np.trace(cov) / 96 * np.eye(96)

    def test_exactly_symmetric(self):
        inv = inverse_psd(self.ridged_activation_covariance())
        assert np.array_equal(inv, inv.T)

    def test_matches_lu_inverse(self):
        m = self.ridged_activation_covariance()
        expect = np.linalg.inv(m)
        assert np.abs(inverse_psd(m) - expect).max() <= 1e-12 * np.abs(expect).max()


class TestKronecker:
    """Kronecker products via np.kron, the layout the Laplace factors assume."""

    def test_identity_times_scalar(self):
        assert np.allclose(np.kron(np.eye(2), [[5.0]]), np.diag([5.0, 5.0]))

    def test_row_vectors(self):
        got = np.kron([[1.0, 2.0]], [[0.0, 1.0]])
        assert np.allclose(got, [[0.0, 1.0, 0.0, 2.0]])

    def test_spectral_norm_multiplicative(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2))
        got = spectral_norm(np.kron(a, b))
        assert got == pytest.approx(spectral_norm(a) * spectral_norm(b), rel=1e-8)


class TestNormalizeToCorrelation:
    def test_two_by_two(self):
        got = normalize_to_correlation([[4.0, 1.0], [1.0, 1.0]])
        assert np.allclose(got, [[1.0, 0.5], [0.5, 1.0]])

    def test_diagonal_becomes_identity(self):
        assert np.array_equal(normalize_to_correlation(np.diag([2.0, 5.0, 0.1])), np.eye(3))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(17)
        got = normalize_to_correlation(random_pd(5, rng))
        assert np.array_equal(np.diag(got), np.ones(5))
        off = got - np.diag(np.diag(got))
        assert np.all(np.abs(off) <= 1.0)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(19)
        once = normalize_to_correlation(random_pd(6, rng))
        assert np.array_equal(normalize_to_correlation(once), once)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="smallest diagonal entry"):
            normalize_to_correlation(np.diag([1.0, 0.0]))


class TestDetLowerBound:
    def test_hand_evaluation(self):
        # k = 9*(2-1)/(2-0.5) = 6, bound = 0.5^6 * 2^3
        assert det_lower_bound(0.5, 2.0, 9) == pytest.approx(0.125, abs=1e-15)

    def test_identity_correlation(self):
        for dim in (1, 4, 100):
            assert det_lower_bound(1.0, 1.0, dim) == 1.0

    def test_equicorrelation_is_tight(self):
        # eigenvalues 1-r and 1+(d-1)r give k = d-1 and the exact determinant
        d, r = 7, 0.4
        bound = det_lower_bound(1.0 - r, 1.0 + (d - 1) * r, d)
        det = np.linalg.det(equicorrelation(d, r))
        assert bound == pytest.approx(det, rel=1e-10)

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError, match=r"need 0 < lam_min <= 1 <= lam_max, got \[1.2, 2.0\]"):
            det_lower_bound(1.2, 2.0, 4)
        with pytest.raises(ValueError, match=r"need 0 < lam_min <= 1 <= lam_max, got \[0.5, 0.9\]"):
            det_lower_bound(0.5, 0.9, 4)
        with pytest.raises(ValueError, match=r"need 0 < lam_min <= 1 <= lam_max, got \[0.0, 2.0\]"):
            det_lower_bound(0.0, 2.0, 4)

    def test_log_form_matches_at_moderate_scale(self):
        assert linalg.logdet_lower_bound(0.5, 2.0, 9) == pytest.approx(
            np.log(det_lower_bound(0.5, 2.0, 9)), rel=1e-12
        )
        assert linalg.logdet_lower_bound(1.0, 1.0, 50) == 0.0

    def test_log_form_survives_underflow(self):
        # the plain bound underflows float64 here; the log form must not
        assert det_lower_bound(0.01, 3.0, 1000) == 0.0
        log_bound = linalg.logdet_lower_bound(0.01, 3.0, 1000)
        assert np.isfinite(log_bound) and log_bound < -700

    def test_no_overflow_where_the_bound_underflows(self):
        # lam_max ** (dim - k) alone is about 1e400; the bound itself is about 1e-10800
        assert det_lower_bound(1e-3, 10.0, 4000) == 0.0
        assert linalg.logdet_lower_bound(1e-3, 10.0, 4000) < -700

    def test_log_form_on_arrays_matches_per_pair_calls(self):
        rng = np.random.default_rng(31)
        lo = np.append(rng.uniform(1e-12, 1.0, 5000), [1.0, 1.0, 1e-12])
        hi = np.append(1.0 + rng.exponential(2.0, 5000), [1.0, 3.0, 1.0])
        for dim in (9, 1000):
            got = linalg.logdet_lower_bound(lo, hi, dim)
            expected = [linalg.logdet_lower_bound(a, b, dim) for a, b in zip(lo.tolist(), hi.tolist())]
            assert got.shape == lo.shape
            assert got.tobytes() == np.array(expected).tobytes()

    def test_rejects_a_bad_dim_and_a_crossed_bracket(self):
        with pytest.raises(ValueError, match=r"dim must be >= 1, got 0"):
            linalg.logdet_lower_bound(0.5, 2.0, 0)
        # within the tolerance each end brackets 1, but the ends cross
        with pytest.raises(ValueError, match=r"lam_min 1.00000000005 exceeds lam_max 0.99999999995"):
            linalg.logdet_lower_bound(1 + 5e-11, 1 - 5e-11, 3)
        with pytest.raises(ValueError, match=r"lam_min 1.00000000005 exceeds lam_max 0.99999999995"):
            linalg.logdet_lower_bound(np.array([0.5, 1 + 5e-11]), np.array([2.0, 1 - 5e-11]), 3)

    @pytest.mark.parametrize("lo, hi", [(1.2, 2.0), (0.0, 2.0), (0.5, 0.9), (float("nan"), 2.0)])
    def test_array_bracket_error_names_the_first_bad_pair(self, lo, hi):
        with pytest.raises(ValueError, match="need 0 < lam_min <= 1 <= lam_max") as scalar:
            linalg.logdet_lower_bound(lo, hi, 4)
        with pytest.raises(ValueError, match="need 0 < lam_min <= 1 <= lam_max") as array:
            linalg.logdet_lower_bound(np.array([0.5, lo, 0.0]), np.array([2.0, hi, 2.0]), 4)
        assert str(array.value) == str(scalar.value)

    def test_convex_combinations_never_violate(self):
        rng = np.random.default_rng(23)
        dim = 6
        for _ in range(1000):
            a = random_correlation(dim, rng)
            b = random_correlation(dim, rng)
            q = rng.uniform()
            mix = q * a + (1.0 - q) * b
            eig = np.linalg.eigvalsh(mix)
            lam_max = max(eig[-1], 1.0)
            lam_min = min(max(eig[0], 1e-12), 1.0)
            bound = det_lower_bound(lam_min, lam_max, dim)
            det = float(np.prod(eig))
            assert det >= bound - 1e-12


class TestMatrixLemmas:
    """Shared eigenvalue facts the determinant bound construction rests on."""

    def test_weyl_subadditivity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
            top = np.linalg.eigvalsh(a + b)[-1]
            assert top <= np.linalg.eigvalsh(a)[-1] + np.linalg.eigvalsh(b)[-1] + 1e-10

    def test_convex_combination_min_eig_bracketing(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = random_pd(5, rng)
            b = random_pd(5, rng)
            q = rng.uniform()
            lo = min(np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(b)[0])
            got = np.linalg.eigvalsh(q * a + (1 - q) * b)[0]
            assert got >= lo - 1e-10

    def test_equicorrelation_eigenvalues_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            r = float(rng.uniform(-1.0 / (d - 1), 1.0))
            eig = np.linalg.eigvalsh(equicorrelation(d, r))
            expect = np.sort(np.r_[1.0 + (d - 1) * r, np.full(d - 1, 1.0 - r)])
            assert np.allclose(eig, expect, atol=1e-9)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="contains non-finite entries"):
            frobenius_sq(np.array([[np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="contains non-finite entries"):
            spectral_norm(np.array([[np.inf, 0.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="must be 2-D, got ndim=1"):
            frobenius_sq(np.ones(3))

    def test_random_correlation_is_valid(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            r = random_correlation(9, rng)
            assert np.array_equal(np.diag(r), np.ones(9))
            assert np.linalg.eigvalsh(r)[0] > -linalg.TOL_PSD
            assert np.abs(r).max() <= 1.0 + 1e-12
