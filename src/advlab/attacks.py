"""White-box adversarial example generation in the [0,1] input box.

Supports l-inf and l2 threat models with per-step projection onto the
epsilon ball and the box. sign(0) = 0, so coordinates with zero gradient are
left untouched by sign-based steps.

The optional random start is drawn for the whole batch at once from
sub-streams of the spec's seed, each read row after row in C order:
l-inf takes a (rows, dim) uniform draw from `default_rng([seed, 0])`; l2
takes its (rows, dim) normal directions from `default_rng([seed, 0])` and
its (rows, 1) radius quantiles from `default_rng([seed, 1])`. So row i's
start depends only on (seed, i, dim): the first k rows of a batch start
exactly as a k-row batch does.
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
    """Project `x` in place onto the epsilon ball around origin, then the [0,1] box.

    Box clipping moves coordinates toward the (in-box) origin, so it never
    re-violates the ball constraint. For l-inf both intervals hold the
    origin, so ball-then-box is one clip to their intersection; clipping
    does not round, so the result is exactly that of the two clips.
    """
    if spec.norm == "linf":
        lo = np.subtract(origin, spec.epsilon)
        np.maximum(lo, 0.0, out=lo)
        hi = np.add(origin, spec.epsilon)
        np.minimum(hi, 1.0, out=hi)
        return np.clip(x, lo, hi, out=x)
    delta = x - origin
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    delta *= np.where(norms > spec.epsilon, spec.epsilon / np.maximum(norms, 1e-300), 1.0)
    np.add(origin, delta, out=x)
    return np.clip(x, 0.0, 1.0, out=x)


def _random_start(origin: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """Uniform draws from the epsilon ball around each row, projected into the box.

    The batch is drawn at once from sub-streams of `spec.seed` that are read
    row after row (see the module docstring), so row i depends only on
    (seed, i, dim).
    """
    rows, dim = origin.shape
    if spec.norm == "linf":
        x = np.random.default_rng([spec.seed, 0]).uniform(-spec.epsilon, spec.epsilon, (rows, dim))
    else:
        x = np.random.default_rng([spec.seed, 0]).standard_normal((rows, dim))
        radii = np.random.default_rng([spec.seed, 1]).uniform(size=(rows, 1)) ** (1.0 / dim)
        x *= spec.epsilon * radii / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-300)
    x += origin
    return _project(x, origin, spec)


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
        step = input_gradient(net, x, spec.loss, labels, ref_logits)
        if spec.norm == "linf":
            np.sign(step, out=step)
            step *= spec.step_size
        else:
            norms = np.linalg.norm(step, axis=1, keepdims=True)
            step *= spec.step_size
            step /= np.maximum(norms, 1e-300)
        x += step
        _project(x, origin, spec)
    return x
