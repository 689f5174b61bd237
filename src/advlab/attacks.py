"""White-box adversarial example generation in the [0,1] input box.

Supports l-inf and l2 threat models with per-step projection onto the
epsilon ball and the box. sign(0) = 0, so coordinates with zero gradient are
left untouched by sign-based steps. `pgd` returns the last iterate, which
training uses; `first_flips` runs the same step loop and returns each row's
first misclassified iterate, which evaluation reduces to robust accuracy.

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
import types

import numpy as np

from .network import (LOSS_KINDS, ForwardTape, Network, _as_input, _empty_tape, _forward, _input_gradient,
                      _logit_gradient, _logits_of_shape, _true_class, _wrong_rows, forward)

NORMS = ("linf", "l2")
NEVER = -1  # first_flips' entry for a row that no iterate misclassifies


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
        if not 0 <= self.epsilon < np.inf:  # NaN fails too
            raise ValueError("epsilon must be finite and >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be finite and positive")
        # epsilon = 0 is the degenerate no-op attack (projection pins the input)
        if self.epsilon > 0 and self.step_size > 2 * self.epsilon:
            raise ValueError("step_size must not exceed 2*epsilon")


def _row_norms(a: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows' l2 norms into the (rows, 1) `out`, as `np.linalg.norm(a, axis=1)`
    computes them: squares (into `scratch`), their sum, its square root."""
    np.add.reduce(np.multiply(a, a, out=scratch), axis=1, keepdims=True, out=out)
    return np.sqrt(out, out=out)


def _project_l2(y, x, origin, epsilon: float, delta, scale, outside) -> np.ndarray:
    """Project `y` onto the l2 epsilon ball around origin, then the [0,1] box, into `x`.

    `x` is written once, with clip(origin + delta * scale), and `y` (which
    may be `x`) is not read after `delta` takes y - origin: it is
    overwritten with the squares of the row norms. `scale` and `outside`
    ((rows, 1), float and bool) take the rows' factors and which rows leave
    the ball. Box clipping moves coordinates toward the (in-box) origin, so
    it never re-violates the ball constraint.
    """
    np.subtract(y, origin, out=delta)
    norms = _row_norms(delta, y, scale)
    np.greater(norms, epsilon, out=outside)
    np.divide(epsilon, np.maximum(norms, 1e-300, out=scale), out=scale)
    np.copyto(scale, 1.0, where=np.logical_not(outside, out=outside))
    delta *= scale
    np.add(origin, delta, out=delta)
    return np.clip(delta, 0.0, 1.0, out=x)


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


def _refuse_kl_at_its_reference(spec: AttackSpec):
    """At its reference the KL gradient is exactly 0, and sign(0) = 0: a kl attack starting there never moves."""
    if spec.loss == "kl" and not spec.random_start:
        raise ValueError("a kl attack against the clean logits needs random_start: its gradient there is 0")


def pgd(net: Network, batch, labels=None, spec: AttackSpec = None, ref_logits=None,
        seed: int = 0) -> np.ndarray:
    """Projected gradient ascent on the configured loss within the ball.

    FGSM is the one-step case `AttackSpec(eps, eps, steps=1)`; logit-margin
    PGD is `loss="cw_margin"`. For the KL loss, `ref_logits` are the reference (clean) logits held
    fixed across steps; they default to the network's output on `batch`, which needs `random_start`.
    `seed` names the random start's stream; it is read only with `spec.random_start`.
    Returns the last iterate, a view of the iterate's buffer without its bias column.
    """
    if spec is None:
        raise ValueError("an AttackSpec is required")
    origin = _as_input(net, batch)
    if spec.loss == "kl" and ref_logits is None:
        _refuse_kl_at_its_reference(spec)
        ref_logits = forward(net, origin).logits
    return _ascend(net, origin, labels, spec, ref_logits, seed)


def first_flips(net: Network, batch, labels, spec: AttackSpec, seed: int = 0,
                clean_logits=None, compact: bool = True) -> np.ndarray:
    """Each row's first misclassified iterate of `pgd(net, batch, labels, spec, seed=seed)`,
    or NEVER: the per-row record that robust accuracy reduces.

    Iterate 0 is the start and iterate t the point after t steps. A row
    whose clean logits (`clean_logits`, by default the network's output on
    `batch`) are wrong is broken at 0 and never attacked, and so is a row
    whose random start is wrong. Wrong means `accuracy`'s rule
    (`network._wrong_rows`): the true class's logit does not beat every
    other one, so a tie is wrong. For the kl loss, the clean logits are the
    reference, so a kl `spec` needs `random_start`.

    Each step's forward pass scores the iterate it starts from. With
    `compact`, a broken row leaves the attack: the rows still unbroken are
    moved, in their order, to the front of the working set, and the step
    then runs on that prefix only. The loss gradient keeps the whole
    batch's 1/rows scale, so an unbroken row takes `pgd`'s steps. Its
    iterates may still differ from `pgd`'s in the last bits: a GEMM's row
    can depend on how many rows it is given. Without `compact`, every row
    takes every step, clean-wrong rows included: the iterates are `pgd`'s
    bit for bit, and the cost is `pgd`'s whatever the net's robustness.
    """
    _refuse_kl_at_its_reference(spec)
    origin = _as_input(net, batch)
    truth = _true_class(labels, (len(origin), net.output_dim))
    clean_logits = (forward(net, origin).logits if clean_logits is None
                    else _logits_of_shape(clean_logits, truth.shape))
    record = np.where(_wrong_rows(clean_logits, truth), 0, NEVER)
    _ascend(net, origin, labels, spec, clean_logits if spec.loss == "kl" else None, seed, record, truth,
            compact)
    return record


def _ascend(net, origin, labels, spec, ref_logits, seed, record=None, truth=None,
            compact=True) -> np.ndarray:
    """The step loop of `pgd` and, given a `record`, of `first_flips`; returns the iterate.

    The working set is made once per call and every step writes into it: a
    tape whose input buffer holds the iterate, each hidden layer's GEMM
    output (which the reverse pass reuses for its product) and ReLU mask,
    the logit gradient, the input gradient, and by norm the gradient's sign
    and the l-inf bounds, or the offset from the origin and its row norms.
    The labels are checked, and the kl reference softmax formed, once.

    A step reads the iterate from the tape's input buffer, a strided view
    of its bias-augmented matrix, once, and writes it there once: the
    unprojected iterate goes into a contiguous buffer (l-inf: the sign's,
    l2: the gradient's), is checked there to be finite, and is projected
    from there into the tape. So a non-finite iterate raises ValueError at
    the step that makes it, the last step included. The random start is
    projected in place in the tape, and needs no check: the batch is finite.

    With a `record`, the rows whose entry is NEVER are scored against the
    boolean one-hot `truth`. Each forward pass scores the iterate it was
    given (but not iterate 0 without a random start: that is the clean row,
    which the caller scored); the rows it finds wrong take the iterate's
    index in `record`, and a last forward pass scores the last iterate.
    With `compact`, only those rows are attacked: a row found wrong leaves,
    and the rows still unbroken sit in their order at the front of every
    per-row buffer: the tape, the loss target, `truth`, and the l-inf
    bounds or (a copy of) the origin. A row's random start is drawn, as in
    `pgd`, for the whole batch.
    """
    rows = len(origin)
    logit_gradient, target = _logit_gradient(spec.loss, (rows, net.output_dim), labels, ref_logits)
    tape = _empty_tape(net, rows)
    hidden = [np.empty((rows, layer.out_dim)) for layer in net.layers[:-1]]
    masks = [np.empty(a.shape, dtype=bool) for a in tape.augmented[1:]]
    x = tape.activations[0]
    if spec.random_start:  # projected in place below; its temporary is freed before the buffers are made
        np.add(_random_offset(origin.shape, spec, seed), origin, out=x)
    else:
        x[...] = origin
    # l-inf: `other` takes the step's sign and then the unprojected iterate (the
    # sign is never formed in place: on numpy 2.4 np.sign(a, out=a) on float64 is
    # about 4.5x slower than into another buffer, (1000, 784): 7.6 vs 1.7 ms);
    # l2: `step` takes the unprojected iterate, `other` its offset from the origin
    rowwise = {"x": x, "finite": np.empty(origin.shape, dtype=bool), "step": np.empty(origin.shape),
               "other": np.empty(origin.shape)}
    if spec.norm == "linf":
        bounds = dict(zip(("lo", "hi"), _linf_bounds(origin, spec.epsilon)))

        def project(v, y):
            np.clip(y, v.lo, v.hi, out=v.x)
    else:
        # a compacting first_flips moves the origin's rows with the iterate's
        bounds = {"origin": origin.copy() if record is not None and compact else origin}
        rowwise |= {"scale": np.empty((rows, 1)), "outside": np.empty((rows, 1), dtype=bool)}

        def project(v, y):
            _project_l2(y, v.x, v.origin, spec.epsilon, v.other, v.scale, v.outside)
    rowwise |= bounds

    def prefix(k):
        """Views of the first k rows of the working set, made once per row count."""
        v = types.SimpleNamespace(**{name: a[:k] for name, a in rowwise.items()})
        v.tape = ForwardTape(net, [a[:k] for a in tape.augmented], [a[:k] for a in tape.activations])
        v.hidden, v.masks = [a[:k] for a in hidden], [a[:k] for a in masks]
        return v

    v = prefix(rows)
    if spec.random_start:
        project(v, v.x)
    k = rows
    if record is not None and compact:
        order = np.arange(rows)  # the batch row at each position
        per_row = [*tape.augmented, tape.logits, target, truth, order, *bounds.values()]

        def keep(kept):
            """Move the rows of the boolean prefix mask `kept` to the front, one
            temporary at a time; their number."""
            first = int(np.argmin(kept))  # the rows before the first dropped one stay
            moved = first + np.flatnonzero(kept[first:])
            m = first + len(moved)
            for a in per_row:
                a[first:m] = a[moved]
            return m

        if not (record == NEVER).all():
            k = keep(record == NEVER)
            v = prefix(k)
    for t in range(spec.steps + (record is not None)):
        if not k:
            break
        _forward(v.tape, v.hidden)
        if record is not None and (t or spec.random_start):  # without one, iterate 0 was scored clean
            wrong = _wrong_rows(v.tape.logits, truth[:k])
            if not compact:
                record[wrong & (record == NEVER)] = t
            elif wrong.any():
                record[order[:k][wrong]] = t
                k = keep(~wrong)
                v = prefix(k)
            if t == spec.steps or not k:
                break
        _input_gradient(v.tape, logit_gradient(v.tape.logits), v.hidden, v.masks, out=v.step)
        if spec.norm == "linf":
            y = np.sign(v.step, out=v.other)
            y *= spec.step_size
        else:
            norms = _row_norms(v.step, v.other, v.scale)
            y = v.step
            y *= spec.step_size
            y /= np.maximum(norms, 1e-300, out=norms)
        np.add(v.x, y, out=y)
        if not np.isfinite(y, out=v.finite).all():  # projection keeps a finite iterate finite
            raise ValueError("batch contains non-finite entries")
        project(v, y)
    return x
