"""Weight-decorrelation penalty for adversarial training.

The penalty for a layer is the squared Frobenius norm of the unit-diagonal
normalization of the inverse (ridge-damped) covariance of the activations
feeding that layer, accumulated over a clean and an adversarial minibatch.
Minimizing it pushes the normalized precision toward the identity, i.e.
decorrelates the layer's input statistics and, through the Laplace view of
the weight posterior, the weights themselves.

`penalty_and_grad` gives a layer's value and its exact gradient w.r.t. the
activations from one ridged inverse: the chain batch covariance -> ridge
-> matrix inverse (dM = -M dS M) -> unit-diagonal normalization -> squared
Frobenius norm is differentiated in closed form. That activation gradient
joins the network's one reverse pass per tape (`network.backward`'s
`dacts`), which carries it to every upstream weight. Adversarial inputs
are treated as constants (no differentiation through the attack).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import inverse_psd, normalize_to_correlation
from .network import ForwardTape, Network, softmax

LAYER_POLICIES = ("last", "all")


@dataclass(frozen=True)
class DecorrConfig:
    """Penalty weight, ridge, and which layers to penalize.

    damping_mode "scaled" uses ridge = damping * trace(cov)/h, which keeps
    the ridge meaningful across activation scales; "absolute" uses the raw
    damping value. Minibatches smaller than the layer width make the
    covariance singular routinely, so some ridge is always required.
    """

    alpha: float = 0.3
    damping: float = 1e-3
    damping_mode: str = "scaled"
    layer_policy: str = "last"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not self.damping >= 1e-8:
            raise ValueError("damping must be >= 1e-8")
        if self.damping_mode not in ("scaled", "absolute"):
            raise ValueError(f"unknown damping_mode {self.damping_mode!r}")
        if self.layer_policy not in LAYER_POLICIES:
            raise ValueError(f"unknown layer_policy {self.layer_policy!r}")


def penalized_layer_indices(net: Network, cfg: DecorrConfig) -> list[int]:
    n = len(net.layers)
    return [n] if cfg.layer_policy == "last" else list(range(1, n + 1))


def _second_moment(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        raise ValueError("cannot form a covariance from an empty batch")
    return a.T @ a / a.shape[0]


def resolve_ridge(cov: np.ndarray, cfg: DecorrConfig) -> tuple[float, float]:
    """The ridge for `cov` and its slope d ridge / d trace(cov)."""
    scale = float(np.trace(cov)) / cov.shape[0]
    if cfg.damping_mode == "scaled" and scale > 1e-300:
        return cfg.damping * scale, cfg.damping / cov.shape[0]
    return cfg.damping, 0.0  # absolute mode, or a dead layer: the absolute ridge


def _ridged_inverse(cov: np.ndarray, ridge: float) -> np.ndarray:
    ridged = cov.copy()
    ridged.flat[:: cov.shape[0] + 1] += ridge
    return inverse_psd(ridged)


def normalized_precision(cov: np.ndarray, damping: float) -> np.ndarray:
    """Unit-diagonal normalization of (cov + damping*I)^-1."""
    return normalize_to_correlation(_ridged_inverse(cov, damping))


def penalty_and_grad(a: np.ndarray, cfg: DecorrConfig) -> tuple[float, np.ndarray]:
    """Penalty of one activation matrix (rows = samples) and its gradient w.r.t. `a`.

    The value is ||P||_F^2 for P the normalized precision of cov = a^T a / B
    under the resolved ridge; both come from one ridged inverse M.
    """
    cov = _second_moment(a)
    ridge, slope = resolve_ridge(cov, cfg)
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


def decorr_penalty(tape_clean: ForwardTape, tape_adv: ForwardTape, cfg: DecorrConfig) -> float:
    """Total penalty over the configured layers and both minibatches.

    Unit diagonals alone contribute the layer width per tape, so the value
    is always >= 2h for each configured layer.
    """
    if tape_clean.net is not tape_adv.net:
        raise ValueError("clean and adversarial tapes come from different networks")
    total = 0.0
    for layer in penalized_layer_indices(tape_clean.net, cfg):
        for tape in (tape_clean, tape_adv):
            total += penalty_and_grad(tape.activations[layer - 1], cfg)[0]
    return total


def penalty_dacts(tape: ForwardTape, cfg: DecorrConfig) -> dict[int, np.ndarray]:
    """alpha-scaled penalty gradients w.r.t. the tape's penalized activations.

    Keyed by activation index, as `network.backward` takes them. The input
    batch feeding layer 1 does not depend on the weights and is left out.
    """
    return {layer - 1: cfg.alpha * penalty_and_grad(tape.activations[layer - 1], cfg)[1]
            for layer in penalized_layer_indices(tape.net, cfg) if layer > 1}


def hessian_kron_factors(tape: ForwardTape, labels, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors of the softmax-CE Hessian for the output layer.

    Returns (A_hat, H_hat): A_hat is the batch second moment of the
    layer's input including the folded bias coordinate, H_hat the batch
    mean of diag(p) - p p^T over the softmax probabilities, formed as
    (diag(sum_i p_i) - P^T P) / B from the (B, classes) probability
    matrix P with one GEMM, the K-FAC output factor. For a
    single-sample batch their Kronecker product (column-major weight
    vectorization) equals the exact Hessian w.r.t. the layer's weights;
    for larger batches it is the standard factorized approximation.
    Softmax-CE only: its pre-activation Hessian has this closed form and
    does not involve the labels.
    """
    if layer != len(tape.net.layers):
        raise ValueError("Hessian factorization is available for the output layer only")
    a = tape.augmented[layer - 1]
    a_hat = _second_moment(a)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (a.shape[0],):
        raise ValueError("labels must match the batch")
    p = softmax(tape.logits)
    h_hat = (np.diag(p.sum(axis=0)) - p.T @ p) / a.shape[0]
    return a_hat, 0.5 * (h_hat + h_hat.T)
