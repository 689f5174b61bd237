"""Dense real linear algebra for the bound calculus.

All routines operate on 2-D float64 arrays ("matrices"). Inputs are
validated at the public boundary: finite entries, positive dimensions,
and (where required) symmetry within a relative tolerance. Symmetric
inputs are symmetrized as (m + m.T)/2 before decomposition so that
floating-point accumulation noise cannot trip strict symmetry checks.
"""

from __future__ import annotations

import math

import numpy as np

TOL_SYM = 1e-9      # relative asymmetry tolerance
TOL_PSD = 1e-10     # eigenvalues in [-TOL_PSD, 0) are treated as 0
TOL_DIAG = 1e-12    # smallest diagonal accepted by correlation normalization


class NotPositiveDefinite(ValueError):
    """Matrix is not positive definite within tolerance."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate squareness and symmetry, then return (m + m.T)/2.

    An exactly symmetric matrix is returned as it is (it may be `a` itself).
    """
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if np.array_equal(m, m.T):
        return m
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > TOL_SYM * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {TOL_SYM}")
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
    """Inverse of a symmetric positive-definite matrix from its Cholesky factor.

    LAPACK dpotrf factors m = L L^T and dtrtri inverts L; the inverse is then
    L^-T L^-1, which numpy forms with one symmetric rank-k update, so it is
    exactly symmetric. A Cholesky pivot whose square is at most n*eps times
    the largest diagonal entry (LAPACK dpstrf's default rank tolerance) is
    rejected like a non-positive one: the matrix is singular to working
    precision, and whether rounding leaves such a pivot positive is luck.
    """
    from scipy.linalg import lapack  # on first use: it takes most of advlab's import time

    s = _as_symmetric(m, "inverse input")
    chol, info = lapack.dpotrf(s, lower=1, clean=1)
    pivots = np.diag(chol)
    if info != 0 or (pivots * pivots).min() <= s.shape[0] * np.finfo(np.float64).eps * np.diag(s).max():
        raise NotPositiveDefinite("inverse input is not positive definite")
    chol_inv, _ = lapack.dtrtri(chol, lower=1, overwrite_c=1)  # every pivot is nonzero
    return chol_inv.T @ chol_inv


def normalize_to_correlation(m) -> np.ndarray:
    """Rescale a symmetric PD matrix to unit diagonal.

    out[i][j] = m[i][j] / sqrt(m[i][i] * m[j][j]); the diagonal is set to
    exactly 1, which makes the operation exactly idempotent.
    """
    s = _as_symmetric(m)
    d = np.diag(s)
    if np.any(d <= TOL_DIAG):
        raise ValueError(f"smallest diagonal entry {d.min():.3g} is not above the floor {TOL_DIAG:g}")
    inv_sqrt = 1.0 / np.sqrt(d)
    out = s * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(out, 1.0)
    return out


def det_lower_bound(lam_min: float, lam_max: float, dim: int) -> float:
    """Determinant lower bound for a unit-diagonal PSD matrix of size `dim`.

    A correlation matrix has trace dim, so its eigenvalues bracket 1. Over
    all spectra confined to [lam_min, lam_max] with that trace, the product
    of eigenvalues is minimized by splitting them between the extremes:
    k = dim*(lam_max - 1)/(lam_max - lam_min) eigenvalues at lam_min and
    the rest at lam_max. k is generally non-integer, which keeps the
    trace-constrained reading. The value is exp(logdet_lower_bound),
    so no intermediate power leaves float range: at large dim it underflows
    to 0.0; use logdet_lower_bound where the logarithm is what matters.
    """
    return math.exp(logdet_lower_bound(lam_min, lam_max, dim))


def logdet_lower_bound(lam_min, lam_max, dim: int):
    """log of det_lower_bound: k log(lam_min) + (dim - k) log(lam_max).

    Scalars give a float; ndarrays give the array of the floats that
    per-pair calls give, bit for bit. A bad pair raises the message of
    the first one.
    """
    lam_min, lam_max = np.broadcast_arrays(np.asarray(lam_min, dtype=np.float64),
                                           np.asarray(lam_max, dtype=np.float64))
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    bracket = (0.0 < lam_min) & (lam_min <= 1.0 + TOL_PSD) & (1.0 - TOL_PSD <= lam_max)
    ok = bracket & (lam_min <= lam_max)
    if not ok.all():  # a NaN is not ok
        i = np.argmin(ok)
        lo, hi = float(lam_min.flat[i]), float(lam_max.flat[i])
        raise ValueError(f"lam_min {lo} exceeds lam_max {hi}" if bracket.flat[i]
                         else f"need 0 < lam_min <= 1 <= lam_max, got [{lo}, {hi}]")
    lam_min, lam_max = np.minimum(lam_min, 1.0), np.maximum(lam_max, 1.0)
    with np.errstate(invalid="ignore"):  # k is 0/0 where lam_max == lam_min, i.e. both 1
        k = dim * (lam_max - 1.0) / (lam_max - lam_min)
        out = np.where(lam_max == lam_min, dim * np.log(lam_min),
                       k * np.log(lam_min) + (dim - k) * np.log(lam_max))
    return float(out) if out.ndim == 0 else out


def equicorrelation(dim: int, r: float) -> np.ndarray:
    """Unit-diagonal matrix with constant off-diagonal r.

    Eigenvalues are 1 + (dim-1)*r once and 1 - r with multiplicity dim-1;
    PSD requires -1/(dim-1) <= r <= 1.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > 1 and not (-1.0 / (dim - 1) <= r <= 1.0):
        raise ValueError(f"r={r} outside the PSD range for dim={dim}")
    m = np.full((dim, dim), float(r))
    np.fill_diagonal(m, 1.0)
    return m


def random_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random correlation matrix: normalized Wishart, G of shape (dim, 2*dim)."""
    g = rng.standard_normal((dim, 2 * dim))
    return normalize_to_correlation(g @ g.T)
