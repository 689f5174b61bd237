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

from .network import (LOSS_KINDS, Network, _as_input, _empty_tape, _forward, _input_gradient,
                      _logit_gradient, forward)

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


def _row_norms(a: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows' l2 norms into the (rows, 1) `out`, as `np.linalg.norm(a, axis=1)`
    computes them: squares (into `scratch`), their sum, its square root."""
    np.add.reduce(np.multiply(a, a, out=scratch), axis=1, keepdims=True, out=out)
    return np.sqrt(out, out=out)


def _project_l2(x, origin, epsilon: float, delta, scratch, scale, outside) -> np.ndarray:
    """Project `x` in place onto the l2 epsilon ball around origin, then the [0,1] box.

    `delta` takes x - origin and `scratch` is overwritten (both x's shape);
    `scale` and `outside` ((rows, 1), float and bool) take the rows' factors
    and which rows leave the ball. Box clipping moves coordinates toward the
    (in-box) origin, so it never re-violates the ball constraint.
    """
    np.subtract(x, origin, out=delta)
    norms = _row_norms(delta, scratch, scale)
    np.greater(norms, epsilon, out=outside)
    np.divide(epsilon, np.maximum(norms, 1e-300, out=scale), out=scale)
    np.copyto(scale, 1.0, where=np.logical_not(outside, out=outside))
    delta *= scale
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

    The working set is made once per call and every step writes into it: a
    tape whose input buffer holds the iterate, each hidden layer's GEMM
    output (which the reverse pass reuses for its product) and ReLU mask,
    the logit gradient, the input gradient, and by norm the gradient's sign
    and the l-inf bounds, or the offset from the origin and its row norms.
    The labels are checked, and the kl reference softmax formed, once. The
    result is a view of the iterate's buffer without its bias column.
    """
    if spec is None:
        raise ValueError("an AttackSpec is required")
    origin = _as_input(net, batch)
    rows = len(origin)
    if spec.loss == "kl" and ref_logits is None:
        ref_logits = forward(net, origin).logits
    logit_gradient = _logit_gradient(spec.loss, (rows, net.output_dim), labels, ref_logits)
    tape = _empty_tape(net, rows)
    hidden = [np.empty((rows, layer.out_dim)) for layer in net.layers[:-1]]
    masks = [np.empty(a.shape, dtype=bool) for a in tape.augmented[1:]]
    x = tape.activations[0]
    if spec.random_start:
        np.add(_random_offset(origin.shape, spec, seed), origin, out=x)  # projected below
    else:
        x[...] = origin
    finite = np.empty(origin.shape, dtype=bool)
    step = np.empty(origin.shape)
    # l-inf: the step's sign, never formed in place: on numpy 2.4 np.sign(a, out=a)
    # on float64 is about 4.5x slower than into another buffer ((1000, 784):
    # 7.6 vs 1.7 ms); l2: the offset from the origin
    other = np.empty(origin.shape)
    if spec.norm == "linf":
        lo, hi = _linf_bounds(origin, spec.epsilon)

        def project():
            np.clip(x, lo, hi, out=x)
    else:
        scale, outside = np.empty((rows, 1)), np.empty((rows, 1), dtype=bool)

        def project():
            _project_l2(x, origin, spec.epsilon, other, step, scale, outside)
    if spec.random_start:
        project()
    for _ in range(spec.steps):
        if not np.isfinite(x, out=finite).all():  # the iterate must stay finite
            raise ValueError("batch contains non-finite entries")
        _forward(tape, hidden)
        _input_gradient(tape, logit_gradient(tape.logits), hidden, masks, out=step)
        if spec.norm == "linf":
            np.sign(step, out=other)
            other *= spec.step_size
            x += other
        else:
            norms = _row_norms(step, other, scale)
            step *= spec.step_size
            step /= np.maximum(norms, 1e-300, out=norms)
            x += step
        project()
    return x
