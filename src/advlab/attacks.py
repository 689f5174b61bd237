"""White-box adversarial example generation in the [0,1] input box.

Supports l-inf and l2 threat models with per-step projection onto the
epsilon ball and the box. Randomness (the optional random start) is drawn
per row from (seed, row index) so batch rows can be attacked in parallel
yet bit-reproducibly. sign(0) = 0, so coordinates with zero gradient are
left untouched by sign-based steps.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import InvalidShape, as_matrix
from .network import LOSS_KINDS, Network, forward, input_gradient

NORMS = ("linf", "l2")


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    epsilon: float
    step_size: float
    steps: int = 1
    norm: str = "linf"
    random_start: bool = False
    seed: int = 0
    loss: str = "cross_entropy"

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown attack loss {self.loss!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        # epsilon = 0 is the degenerate no-op attack (projection pins the input)
        if self.epsilon > 0 and self.step_size > 2 * self.epsilon:
            raise ValueError("step_size must not exceed 2*epsilon")

    def replace(self, **kw) -> "AttackSpec":
        return dataclasses.replace(self, **kw)


def _project(x: np.ndarray, origin: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """Project onto the epsilon ball around origin, then the [0,1] box.

    Box clipping moves coordinates toward the (in-box) origin, so it never
    re-violates the ball constraint.
    """
    if spec.norm == "linf":
        x = np.clip(x, origin - spec.epsilon, origin + spec.epsilon)
    else:
        delta = x - origin
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        scale = np.where(norms > spec.epsilon, spec.epsilon / np.maximum(norms, 1e-300), 1.0)
        x = origin + delta * scale
    return np.clip(x, 0.0, 1.0)


def _random_start(origin: np.ndarray, spec: AttackSpec) -> np.ndarray:
    dim = origin.shape[1]
    deltas = np.empty_like(origin)
    for i in range(origin.shape[0]):
        rng = np.random.default_rng([spec.seed, i])
        if spec.norm == "linf":
            deltas[i] = rng.uniform(-spec.epsilon, spec.epsilon, size=dim)
        else:
            direction = rng.standard_normal(dim)
            direction /= max(np.linalg.norm(direction), 1e-300)
            radius = spec.epsilon * rng.uniform() ** (1.0 / dim)
            deltas[i] = radius * direction
    return _project(origin + deltas, origin, spec)


def pgd(net: Network, batch, labels=None, spec: AttackSpec = None, ref_logits=None) -> np.ndarray:
    """Projected gradient ascent on the configured loss within the ball.

    FGSM is the one-step case `AttackSpec(eps, eps, steps=1)`; logit-margin
    PGD is `loss="cw_margin"`. For the KL loss, `ref_logits` are the reference (clean) logits held
    fixed across steps; they default to the network's output on `batch`.
    """
    if spec is None:
        raise InvalidShape("an AttackSpec is required")
    origin = as_matrix(batch, "batch")
    if spec.loss == "kl" and ref_logits is None:
        ref_logits = forward(net, origin).logits
    x = _random_start(origin, spec) if spec.random_start else origin.copy()
    for _ in range(spec.steps):
        grad = input_gradient(net, x, spec.loss, labels, ref_logits)
        if spec.norm == "linf":
            x = x + spec.step_size * np.sign(grad)
        else:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            x = x + spec.step_size * grad / np.maximum(norms, 1e-300)
        x = _project(x, origin, spec)
    return x
