"""White-box adversarial example generation in the [0,1] input box.

Supports l-inf and l2 threat models with per-step projection onto the
epsilon ball and the box. sign(0) = 0, so coordinates with zero gradient are
left untouched by sign-based steps.

The optional random start is drawn for the whole batch at once from
sub-streams of the caller's `seed`, each read row after row in C order:
l-inf takes a (rows, dim) uniform draw from `default_rng([seed, 0])`; l2
takes its (rows, dim) normal directions from `default_rng([seed, 0])` and
its (rows, 1) radius quantiles from `default_rng([seed, 1])`. So row i's
start depends only on (seed, i, dim): the first k rows of a batch start
exactly as a k-row batch does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import as_matrix
from .network import (LOSS_KINDS, Network, _as_input, _augmented_buffer, _forward, _input_gradient,
                      forward)

NORMS = ("linf", "l2")


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    epsilon: float
    step_size: float
    steps: int = 1
    norm: str = "linf"
    random_start: bool = False
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


def _project_l2(x: np.ndarray, origin: np.ndarray, epsilon: float) -> np.ndarray:
    """Project `x` in place onto the l2 epsilon ball around origin, then the [0,1] box.

    Box clipping moves coordinates toward the (in-box) origin, so it never
    re-violates the ball constraint.
    """
    delta = x - origin
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    delta *= np.where(norms > epsilon, epsilon / np.maximum(norms, 1e-300), 1.0)
    np.add(origin, delta, out=x)
    return np.clip(x, 0.0, 1.0, out=x)


def _linf_bounds(origin: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The l-inf ball around origin intersected with the [0,1] box, as (lo, hi).

    Both intervals hold the origin, so projecting onto the ball and then the
    box is one clip to (lo, hi); clipping does not round, so the result is
    exactly that of the two clips.
    """
    lo = np.subtract(origin, epsilon)
    np.maximum(lo, 0.0, out=lo)
    hi = np.add(origin, epsilon)
    np.minimum(hi, 1.0, out=hi)
    return lo, hi


def _random_offset(shape: tuple[int, int], spec: AttackSpec, seed: int) -> np.ndarray:
    """Uniform draws from the epsilon ball around 0, one per row; `pgd` adds them
    to the batch and projects the sum into the box.

    The batch is drawn at once from sub-streams of `seed` that are read
    row after row (see the module docstring), so row i depends only on
    (seed, i, dim).
    """
    rows, dim = shape
    if spec.norm == "linf":
        return np.random.default_rng([seed, 0]).uniform(-spec.epsilon, spec.epsilon, (rows, dim))
    offset = np.random.default_rng([seed, 0]).standard_normal((rows, dim))
    radii = np.random.default_rng([seed, 1]).uniform(size=(rows, 1)) ** (1.0 / dim)
    offset *= spec.epsilon * radii / np.maximum(np.linalg.norm(offset, axis=1, keepdims=True), 1e-300)
    return offset


def pgd(net: Network, batch, labels=None, spec: AttackSpec = None, ref_logits=None,
        seed: int = 0) -> np.ndarray:
    """Projected gradient ascent on the configured loss within the ball.

    FGSM is the one-step case `AttackSpec(eps, eps, steps=1)`; logit-margin
    PGD is `loss="cw_margin"`. For the KL loss, `ref_logits` are the reference (clean) logits held
    fixed across steps; they default to the network's output on `batch`.
    `seed` names the random start's stream; it is read only with `spec.random_start`.

    The buffers a step writes are made once per call: the iterate, held in
    a bias-augmented buffer that the forward pass reads as it is, the input
    gradient, its sign, and the l-inf bounds. The result is a view of the
    iterate's buffer without its bias column.
    """
    if spec is None:
        raise ValueError("an AttackSpec is required")
    origin = _as_input(net, batch)
    if spec.loss == "kl" and ref_logits is None:
        ref_logits = forward(net, origin).logits
    xa = _augmented_buffer(*origin.shape)
    x = xa[:, :-1]
    if spec.norm == "linf":
        lo, hi = _linf_bounds(origin, spec.epsilon)
    if not spec.random_start:
        x[...] = origin
    else:
        np.add(_random_offset(origin.shape, spec, seed), origin, out=x)
        if spec.norm == "linf":
            np.clip(x, lo, hi, out=x)
        else:
            _project_l2(x, origin, spec.epsilon)
    step = np.empty(origin.shape)
    if spec.norm == "linf":
        # never in place: on numpy 2.4 np.sign(a, out=a) on float64 is about
        # 4.5x slower than into another buffer ((1000, 784): 7.6 vs 1.7 ms)
        sign = np.empty(origin.shape)
    for _ in range(spec.steps):
        as_matrix(x, "batch")  # the iterate must stay finite
        _input_gradient(_forward(net, xa), spec.loss, labels, ref_logits, out=step)
        if spec.norm == "linf":
            np.sign(step, out=sign)
            sign *= spec.step_size
            x += sign
            np.clip(x, lo, hi, out=x)
        else:
            norms = np.linalg.norm(step, axis=1, keepdims=True)
            step *= spec.step_size
            step /= np.maximum(norms, 1e-300)
            x += step
            _project_l2(x, origin, spec.epsilon)
    return x
