"""Dense real linear algebra for the bound calculus.

All routines operate on 2-D float64 arrays ("matrices"). Inputs are
validated at the public boundary: finite entries, positive dimensions,
and (where required) symmetry within a relative tolerance. Symmetric
inputs are symmetrized as (m + m.T)/2 before decomposition so that
floating-point accumulation noise cannot trip strict symmetry checks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

TOL_SYM = 1e-9      # relative asymmetry tolerance
TOL_PSD = 1e-10     # eigenvalues in [-TOL_PSD, 0) are treated as 0
TOL_DIAG = 1e-12    # smallest diagonal accepted by correlation normalization


class InvalidShape(ValueError):
    """Input is not a matrix of the required shape/symmetry."""


class NotPositiveDefinite(ValueError):
    """Matrix is not positive definite within tolerance."""


class DegenerateDiagonal(ValueError):
    """Correlation normalization needs strictly positive diagonal entries."""


class InvalidEigenRange(ValueError):
    """Eigenvalue extremes violate 0 < lam_min <= 1 <= lam_max."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidShape(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidShape(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidShape(f"{name} contains non-finite entries")
    return m


def _as_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate squareness and symmetry, then return (m + m.T)/2."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise InvalidShape(f"{name} must be square, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > TOL_SYM * scale:
        raise InvalidShape(f"{name} is not symmetric within tolerance {TOL_SYM}")
    return 0.5 * (m + m.T)


def spectral_norm(m) -> float:
    """Largest singular value, from the LAPACK SVD (np.linalg.norm(a, 2)).

    Accurate to rounding whatever the gap between the top singular
    values, so the bounds' capacity product is not underestimated. The
    zero matrix returns 0.0.
    """
    return float(np.linalg.norm(as_matrix(m), 2))


def frobenius_sq(m) -> float:
    """Sum of squared entries."""
    a = as_matrix(m)
    return float(np.sum(a * a))


def inverse_psd(m) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, via Cholesky solves."""
    try:
        chol = np.linalg.cholesky(_as_symmetric(m, "inverse input"))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("inverse input is not positive definite") from None
    inv = scipy.linalg.cho_solve((chol, True), np.eye(chol.shape[0]))
    return 0.5 * (inv + inv.T)


def normalize_to_correlation(m) -> np.ndarray:
    """Rescale a symmetric PD matrix to unit diagonal.

    out[i][j] = m[i][j] / sqrt(m[i][i] * m[j][j]); the diagonal is set to
    exactly 1, which makes the operation exactly idempotent.
    """
    s = _as_symmetric(m)
    d = np.diag(s)
    if np.any(d <= TOL_DIAG):
        raise DegenerateDiagonal("non-positive diagonal entry")
    inv_sqrt = 1.0 / np.sqrt(d)
    out = s * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(out, 1.0)
    return out


def _check_eigen_bracket(lam_min: float, lam_max: float, dim: int) -> tuple[float, float]:
    if dim < 1:
        raise InvalidEigenRange(f"dim must be >= 1, got {dim}")
    if not (0.0 < lam_min <= 1.0 + TOL_PSD and 1.0 - TOL_PSD <= lam_max):
        raise InvalidEigenRange(
            f"need 0 < lam_min <= 1 <= lam_max, got [{lam_min}, {lam_max}]"
        )
    if lam_min > lam_max:
        raise InvalidEigenRange(f"lam_min {lam_min} exceeds lam_max {lam_max}")
    return min(lam_min, 1.0), max(lam_max, 1.0)


def det_lower_bound(lam_min: float, lam_max: float, dim: int) -> float:
    """Determinant lower bound for a unit-diagonal PSD matrix of size `dim`.

    A correlation matrix has trace dim, so its eigenvalues bracket 1. Over
    all spectra confined to [lam_min, lam_max] with that trace, the product
    of eigenvalues is minimized by splitting them between the extremes:
    k = dim*(lam_max - 1)/(lam_max - lam_min) eigenvalues at lam_min and
    the rest at lam_max. k is generally non-integer; real exponentiation
    keeps the trace-constrained reading. At large dim the value underflows
    float64; use logdet_lower_bound where the logarithm is what matters.
    """
    lam_min, lam_max = _check_eigen_bracket(lam_min, lam_max, dim)
    if lam_max == lam_min:
        return float(lam_min**dim)  # only possible at lam = 1
    k = dim * (lam_max - 1.0) / (lam_max - lam_min)
    return float(lam_min**k * lam_max ** (dim - k))


def logdet_lower_bound(lam_min: float, lam_max: float, dim: int) -> float:
    """log of det_lower_bound, computed without underflow."""
    lam_min, lam_max = _check_eigen_bracket(lam_min, lam_max, dim)
    if lam_max == lam_min:
        return float(dim * np.log(lam_min))
    k = dim * (lam_max - 1.0) / (lam_max - lam_min)
    return float(k * np.log(lam_min) + (dim - k) * np.log(lam_max))


def equicorrelation(dim: int, r: float) -> np.ndarray:
    """Unit-diagonal matrix with constant off-diagonal r.

    Eigenvalues are 1 + (dim-1)*r once and 1 - r with multiplicity dim-1;
    PSD requires -1/(dim-1) <= r <= 1.
    """
    if dim < 1:
        raise InvalidShape(f"dim must be >= 1, got {dim}")
    if dim > 1 and not (-1.0 / (dim - 1) <= r <= 1.0):
        raise InvalidEigenRange(f"r={r} outside the PSD range for dim={dim}")
    m = np.full((dim, dim), float(r))
    np.fill_diagonal(m, 1.0)
    return m


def random_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random correlation matrix: normalized Wishart, G of shape (dim, 2*dim)."""
    g = rng.standard_normal((dim, 2 * dim))
    return normalize_to_correlation(g @ g.T)
