"""Weight-decorrelation penalty for adversarial training.

The penalty is the squared Frobenius norm of the unit-diagonal
normalization of the inverse (ridge-damped) covariance of the activations
feeding the last layer, accumulated over a clean and an adversarial minibatch.
Minimizing it pushes the normalized precision toward the identity, i.e.
decorrelates the layer's input statistics and, through the Laplace view of
the weight posterior, the weights themselves.

`penalty_and_grad` gives the value and its exact gradient w.r.t. the
activations from one ridged inverse: the chain batch covariance -> ridge
-> matrix inverse (dM = -M dS M) -> unit-diagonal normalization -> squared
Frobenius norm is differentiated in closed form. That activation gradient
joins the network's one reverse pass per tape (`network.backward`'s
`dlast`), which carries it to every upstream weight. Adversarial inputs
are treated as constants (no differentiation through the attack).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import inverse_psd, normalize_to_correlation
from .network import ForwardTape, softmax


@dataclass(frozen=True)
class DecorrConfig:
    """Penalty weight `alpha` and ridge factor `damping`, which `resolve_ridge` turns into the ridge.

    Minibatches smaller than the layer width make the covariance singular routinely: some ridge is always required.
    """

    alpha: float = 0.3
    damping: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not 1e-8 <= self.damping < np.inf:
            raise ValueError("damping must be finite and >= 1e-8")


def _second_moment(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        raise ValueError("cannot form a covariance from an empty batch")
    return a.T @ a / a.shape[0]


def resolve_ridge(cov: np.ndarray, damping: float) -> tuple[float, float]:
    """The ridge of the penalty and of the Laplace record, and its slope d ridge / d trace(cov):
    damping * trace(cov)/n, or `damping` itself for an all-zero `cov` (a dead layer, a saturated softmax)."""
    scale = float(np.trace(cov)) / cov.shape[0]
    if scale > 1e-300:
        return damping * scale, damping / cov.shape[0]
    return damping, 0.0


def _ridged_inverse(cov: np.ndarray, ridge: float) -> np.ndarray:
    ridged = cov.copy()
    ridged.flat[:: cov.shape[0] + 1] += ridge
    return inverse_psd(ridged)


def normalized_precision(cov: np.ndarray, ridge: float) -> np.ndarray:
    """Unit-diagonal normalization of (cov + ridge*I)^-1, for an absolute `ridge`."""
    return normalize_to_correlation(_ridged_inverse(cov, ridge))


def penalty_and_grad(a: np.ndarray, cfg: DecorrConfig) -> tuple[float, np.ndarray]:
    """Penalty of one activation matrix (rows = samples) and its gradient w.r.t. `a`.

    The value is ||P||_F^2 for P the normalized precision of cov = a^T a / B
    under the resolved ridge; both come from one ridged inverse M.
    """
    cov = _second_moment(a)
    ridge, slope = resolve_ridge(cov, cfg.damping)
    m = _ridged_inverse(cov, ridge)
    diag = np.diag(m)
    inv_sqrt = 1.0 / np.sqrt(diag)
    scale = np.outer(inv_sqrt, inv_sqrt)
    corr = m * scale  # normalize_to_correlation(m), sharing its scale with dP/dM
    np.fill_diagonal(corr, 1.0)
    sq = corr * corr
    # half of dP/dM: off-diagonal from the direct entries, diagonal from the
    # normalization denominators (the unit diagonal itself is constant)
    g = corr * scale
    np.fill_diagonal(g, (1.0 - sq.sum(axis=1)) / diag)
    k = m @ g @ m  # -1/2 d penalty / d cov; the factor joins the last scale
    # the ridge's own dependence on trace(cov) feeds back into the damped matrix
    k.flat[:: k.shape[0] + 1] += slope * np.trace(k)
    k += k.T
    grad = a @ k
    grad *= -2.0 / a.shape[0]
    return float(sq.sum()), grad


def penalty_dlast(tape: ForwardTape, cfg: DecorrConfig) -> np.ndarray:
    """alpha-scaled penalty gradient w.r.t. the last layer's input, `network.backward`'s `dlast`."""
    return cfg.alpha * penalty_and_grad(tape.activations[-2], cfg)[1]


def hessian_kron_factors(tape: ForwardTape) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors of the softmax-CE Hessian for the output layer.

    Returns (A_hat, H_hat): A_hat is the batch second moment of the
    layer's input including the folded bias coordinate, H_hat the batch
    mean of diag(p) - p p^T over the softmax probabilities, formed as
    (diag(sum_i p_i) - P^T P) / B from the (B, classes) probability
    matrix P with one GEMM, the K-FAC output factor. For a
    single-sample batch their Kronecker product (column-major weight
    vectorization) equals the exact Hessian w.r.t. the layer's weights;
    for larger batches it is the standard factorized approximation.
    Softmax-CE only: its logit Hessian has this closed form and does not
    involve the labels, so none are taken.
    """
    a = tape.augmented[-1]
    a_hat = _second_moment(a)
    p = softmax(tape.logits)
    h_hat = (np.diag(p.sum(axis=0)) - p.T @ p) / a.shape[0]
    return a_hat, 0.5 * (h_hat + h_hat.T)
