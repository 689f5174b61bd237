"""Feed-forward ReLU networks with exact reverse-mode gradients.

Layers are affine maps with the bias folded into the weight matrix as an
extra column acting on a constant-1 input coordinate, so a layer mapping
h_in units to h_out units stores an (h_out, h_in + 1) weight. Every layer
but the last applies ReLU; the last is identity (logit output). Forward
passes record every intermediate on a tape; backward passes consume the
tape and never mutate the network, so evaluation is safe to share across
threads.

All arithmetic is float64. The ReLU subgradient at exactly 0 is 0, which
keeps gradients of dead units exactly zero.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .io import FormatError, json_text
from .linalg import as_matrix

CHECKPOINT_SCHEMA_VERSION = 2
CHECKPOINT_KEYS = ("schema_version", "layer_dims", "activations", "weights")


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (h_out, h_in + 1), bias folded into the last column

    def __post_init__(self):
        object.__setattr__(self, "weight", as_matrix(self.weight, "layer weight"))

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] - 1


class Network:
    """An ordered stack of affine layers: ReLU after every layer but the last."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
        self.layers = list(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def weights(self) -> list[np.ndarray]:
        return [layer.weight for layer in self.layers]

    def with_weights(self, weights: list[np.ndarray]) -> "Network":
        if len(weights) != len(self.layers):
            raise ValueError("weight count does not match layer count")
        return Network([Layer(w) for w in weights])

    @classmethod
    def he_init(cls, dims: list[int], seed: int) -> "Network":
        """Build a ReLU net for unit counts `dims` (input, hidden..., output).

        Weights are drawn N(0, 2/h_in) from a seeded generator; bias
        columns start at zero.
        """
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        rng = np.random.default_rng(seed)
        layers = []
        for h_in, h_out in zip(dims, dims[1:]):
            w = np.zeros((h_out, h_in + 1))
            w[:, :-1] = rng.standard_normal((h_out, h_in)) * np.sqrt(2.0 / h_in)
            layers.append(Layer(w))
        return cls(layers)


@dataclass
class ForwardTape:
    """Per-layer intermediates for one minibatch.

    activations[0] is the raw input batch; activations[l] is layer l's
    output: ReLU of its affine map for a hidden layer, the logits for the
    last. augmented[l] is layer l+1's input with the constant-1 bias
    column appended, the matrix its GEMMs read; activations[l] for
    l < number of layers is its view without that column. A hidden unit's
    ReLU derivative is `activations[l] > 0` (`_relu_mask`), which holds
    exactly where its affine output is positive, so no pre-activation is
    kept.
    """

    net: Network
    augmented: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)

    @property
    def logits(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def batch_size(self) -> int:
        return self.activations[0].shape[0]


def _augmented_buffer(rows: int, dim: int) -> np.ndarray:
    """An uninitialised (rows, dim + 1) matrix whose last column is 1."""
    buf = np.empty((rows, dim + 1))
    buf[:, -1] = 1.0
    return buf


def _as_input(net: Network, batch) -> np.ndarray:
    """`batch` as a finite float64 matrix with the network's input width."""
    x = as_matrix(batch, "batch")
    if x.shape[1] != net.input_dim:
        raise ValueError(f"batch has {x.shape[1]} features, network expects {net.input_dim}")
    return x


def _empty_tape(net: Network, rows: int) -> ForwardTape:
    """A tape of uninitialised buffers for `rows` inputs; only the bias columns are set."""
    augmented = [_augmented_buffer(rows, layer.in_dim) for layer in net.layers]
    activations = [a[:, :-1] for a in augmented] + [np.empty((rows, net.output_dim))]
    return ForwardTape(net=net, augmented=augmented, activations=activations)


def forward(net: Network, batch) -> ForwardTape:
    """Run the network on a batch (rows = samples), recording a tape."""
    x = _as_input(net, batch)
    tape = _empty_tape(net, len(x))
    tape.activations[0][...] = x
    return _forward(tape)


def _forward(tape: ForwardTape, gemm=None) -> ForwardTape:
    """Refill `tape` from the input it holds, `tape.activations[0]`.

    Hidden layer l's GEMM writes into the contiguous `gemm[l]` when given
    (a fresh matrix otherwise), and its ReLU into the next augmented
    buffer, whose bias column stays 1; the last GEMM writes into the logits.
    """
    layers = tape.net.layers
    for idx, layer in enumerate(layers[:-1]):
        z = np.matmul(tape.augmented[idx], layer.weight.T, out=None if gemm is None else gemm[idx])
        np.maximum(z, 0.0, out=tape.activations[idx + 1])
    logits = np.matmul(tape.augmented[-1], layers[-1].weight.T, out=tape.logits)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits: the weights or inputs exceed float64 range")
    return tape


def _relu_mask(tape: ForwardTape, idx: int, out=None) -> np.ndarray:
    """`tape.activations[idx] > 0`, the ReLU derivative of hidden layer idx.

    Compared on the contiguous augmented buffer (its bias column is 1),
    into the boolean `out` of that shape when given, and then sliced,
    which numpy does several times faster than on the view.
    """
    return np.greater(tape.augmented[idx], 0.0, out=out)[:, :-1]


def _check_tape(net: Network, tape: ForwardTape):
    if tape.net is not net:
        raise ValueError("tape was recorded on a different network")


def backward(net: Network, tape: ForwardTape, dlogits: np.ndarray, dlast=None) -> list[np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every layer weight.

    `dlogits` is the loss gradient w.r.t. the logits for the batch on the
    tape (already including any 1/batch factor). `dlast` is the gradient of
    a further loss term w.r.t. the last layer's input, activations[-2]; it
    joins the one reverse pass where the pass crosses that activation, and
    with zero `dlogits` the last layer's block is exactly zero. A one-layer
    net's last input is the data batch, which the pass never crosses, so
    there `dlast` adds nothing. The pass stops at layer 1's weight
    gradient: the input gradient is `input_gradient`'s job.
    """
    _check_tape(net, tape)
    if dlast is not None and np.shape(dlast) != tape.activations[-2].shape:
        raise ValueError("dlast does not match the last layer's input")
    dz = np.asarray(dlogits, dtype=np.float64)
    grads: list[np.ndarray] = []
    last = len(net.layers) - 1
    for idx in range(last, -1, -1):
        grads.append(dz.T @ tape.augmented[idx])
        if idx == 0:
            break
        da = (dz @ net.layers[idx].weight)[:, :-1]
        if idx == last and dlast is not None:
            da += dlast
        dz = da * _relu_mask(tape, idx)
    grads.reverse()
    return grads


# ---------------------------------------------------------------------------
# losses
#
# Every logit gradient here is (a - b) / rows: the softmax less the one-hot
# labels for cross-entropy, the softmax less the reference softmax for kl,
# and the best other class's indicator less the labels' for cw_margin.


def _as_labels(labels, shape) -> np.ndarray:
    """`labels` as int64 class indices for a (rows, classes) logit matrix: the one label rule.

    The labels must be a flat list of integers in [0, classes), one per
    logit row; integer-valued floats count, as in `data._idx_bytes`.
    Anything else, None included, raises ValueError.
    """
    rows, classes = shape
    a = np.asarray(labels)
    if a.ndim != 1 or a.dtype.kind not in "uif" or (a.dtype.kind == "f" and not np.array_equal(np.trunc(a), a)):
        raise ValueError("labels must be a flat integer list")
    if len(a) != rows:
        raise ValueError(f"labels must hold one entry per logit row: {len(a)} for {rows}")
    if a.size and not (a.min() >= 0 and a.max() < classes):
        raise ValueError(f"labels must lie in [0, {classes})")
    return a.astype(np.int64, copy=False)


def _true_class(labels, shape) -> np.ndarray:
    """The boolean one-hot of `labels`, under `_as_labels`' rule, for a `shape` logit matrix."""
    y = _as_labels(labels, shape)
    truth = np.zeros(shape, dtype=bool)
    truth[np.arange(len(y)), y] = True
    return truth


def _wrong_rows(logits, truth, gamma: float = 0.0) -> np.ndarray:
    """Rows whose true-class logit (where the boolean one-hot `truth` is set)
    beats every other one by at most gamma, so that a tie is wrong.

    The attacks score every iterate at gamma 0, which adds no pass over the rows.
    """
    best_other = np.where(truth, -np.inf, logits).max(axis=1)
    if gamma:
        best_other += gamma
    return logits[truth] <= best_other


def _logits_of_shape(logits, shape, name: str = "logits") -> np.ndarray:
    """`logits` as a finite float64 matrix; ValueError unless it has `shape`."""
    z = as_matrix(logits, name)
    if z.shape != tuple(shape):
        raise ValueError("logit shapes differ")
    return z


def _log_softmax(z, out, scratch, col) -> np.ndarray:
    """log_softmax(z) written into `out`; `scratch` (z's shape) and `col` (rows, 1) are overwritten."""
    np.max(z, axis=1, keepdims=True, out=col)
    np.subtract(z, col, out=out)
    np.add.reduce(np.exp(out, out=scratch), axis=1, keepdims=True, out=col)
    out -= np.log(col, out=col)
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return _log_softmax(logits, np.empty(logits.shape), np.empty(logits.shape),
                        np.empty((len(logits), 1)))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _row_mean_difference(a, b, out=None, rows=None) -> np.ndarray:
    """(a - b) / rows, into `out` when given: the form of every logit gradient here.

    `rows` defaults to the rows of the difference; an attack that steps on a
    prefix of its batch passes the whole batch's.
    """
    out = np.subtract(a, b, out=out, dtype=np.float64)
    out /= len(out) if rows is None else rows
    return out


def cross_entropy(logits, labels) -> float:
    """Mean softmax cross-entropy."""
    z = as_matrix(logits, "logits")
    y = _as_labels(labels, z.shape)  # an index, not the one-hot: that is ~10 µs slower on 600 rows
    return float(-log_softmax(z)[np.arange(len(y)), y].mean())


def margin_loss(logits, labels, gamma: float = 0.0) -> float:
    """Fraction of rows whose true-class logit beats the rest by at most gamma.

    gamma = 0 gives the plain classification error.
    """
    z = as_matrix(logits, "logits")
    return float(np.mean(_wrong_rows(z, _true_class(labels, z.shape), gamma)))


def accuracy(logits, labels) -> float:
    return 1.0 - margin_loss(logits, labels, 0.0)


def _kl_logits(logits_p, logits_q):
    zp = as_matrix(logits_p, "logits_p")
    return zp, _logits_of_shape(logits_q, zp.shape, "logits_q")


def _kl_rows(logp: np.ndarray, logq: np.ndarray):
    """softmax p = exp(logp), logp - logq, and each row's KL(p || q) as a (rows, 1) column."""
    p = np.exp(logp)
    diff = logp - logq
    return p, diff, (p * diff).sum(axis=1, keepdims=True)


def _kl_grad_p(p: np.ndarray, diff: np.ndarray, row_kl: np.ndarray) -> np.ndarray:
    return p * (diff - row_kl) / len(p)


def kl_softmax(logits_p, logits_q) -> float:
    """Mean rowwise KL divergence between softmax(logits_p) and softmax(logits_q)."""
    zp, zq = _kl_logits(logits_p, logits_q)
    return float(_kl_rows(log_softmax(zp), log_softmax(zq))[2].mean())


def kl_softmax_grad_p(logits_p, logits_q) -> np.ndarray:
    """Gradient of the mean KL w.r.t. logits_p."""
    zp, zq = _kl_logits(logits_p, logits_q)
    return _kl_grad_p(*_kl_rows(log_softmax(zp), log_softmax(zq)))


def _cross_entropy_and_kl(logits_p, logits_q, labels):
    """Mean cross-entropy of logits_p, mean KL(softmax p || softmax q), and the
    logit gradients of the cross-entropy, of the KL w.r.t. p and of the KL
    w.r.t. q, from one log-softmax per matrix.

    Bit for bit `cross_entropy`, `kl_softmax`, `kl_softmax_grad_p` and
    `loss_logit_grad` of kind cross_entropy (of logits_p) and kl (of
    logits_q, with logits_p as the reference) of the same arguments.
    ValueError unless the two logit matrices have one shape.
    """
    truth = _true_class(labels, logits_p.shape)
    logp, logq = log_softmax(logits_p), log_softmax(_logits_of_shape(logits_q, logits_p.shape, "logits_q"))
    p, diff, row_kl = _kl_rows(logp, logq)
    return (float(-logp[truth].mean()), float(row_kl.mean()),
            _row_mean_difference(p, truth), _kl_grad_p(p, diff, row_kl),
            _row_mean_difference(np.exp(logq), p))


def cw_margin(logits, labels) -> float:
    """Mean logit margin max_{j != y} z_j - z_y (positive = misclassified)."""
    z = as_matrix(logits, "logits")
    truth = _true_class(labels, z.shape)
    return float((np.where(truth, -np.inf, z).max(axis=1) - z[truth]).mean())


LOSS_KINDS = ("cross_entropy", "cw_margin", "kl")


def _logit_gradient(kind: str, shape, labels=None, ref_logits=None):
    """The gradient of a `shape` batch's mean `kind` loss w.r.t. the logits of
    its first rows, and the (rows, classes) `target` it reads: the labels'
    one-hot, or kl's reference softmax.

    The gradient comes as `gradient(z)`, a function of the first len(z)
    rows' logits that writes into the first len(z) rows of one buffer made
    here. The scale stays 1/rows of the whole batch for any len(z), and a
    caller that moves its rows moves the rows of `target` with them. The
    labels are checked, and for kl the reference softmax is formed, once,
    here; a call of `gradient` slices these buffers and fills no new one,
    and its result holds until the next call.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    rows = shape[0]
    g, scratch, col = np.empty(shape), np.empty(shape), np.empty((rows, 1))
    if kind == "kl":
        zp = _logits_of_shape(ref_logits, shape, "logits_p")
        target = np.exp(_log_softmax(zp, np.empty(shape), scratch, col))
    else:
        target = _true_class(labels, shape)
    if kind == "cw_margin":
        classes, best, best_other = np.arange(shape[1]), np.empty((rows, 1), dtype=np.intp), np.empty(shape, bool)

    def gradient(z):
        k = len(z)
        g_k, scratch_k, target_k = g[:k], scratch[:k], target[:k]
        if kind != "cw_margin":  # the softmax less the one-hot or the reference softmax
            np.exp(_log_softmax(z, g_k, scratch_k, col[:k]), out=g_k)
            return _row_mean_difference(g_k, target_k, g_k, rows)
        np.copyto(scratch_k, z)
        np.copyto(scratch_k, -np.inf, where=target_k)  # the true class is never the best other one
        np.argmax(scratch_k, axis=1, keepdims=True, out=best[:k])
        return _row_mean_difference(np.equal(classes, best[:k], out=best_other[:k]), target_k, g_k, rows)

    return gradient, target


def loss_logit_grad(kind: str, logits, labels=None, ref_logits=None) -> np.ndarray:
    """Gradient of the mean `kind` loss w.r.t. `logits`: the one logit-gradient entry.

    cross_entropy and cw_margin read `labels`; kl is KL(softmax(ref_logits)
    || softmax(logits)), differentiated w.r.t. `logits`.
    """
    z = as_matrix(logits, "logits")
    return _logit_gradient(kind, z.shape, labels, ref_logits)[0](z)


def input_gradient(net: Network, batch, kind: str, labels=None, ref_logits=None) -> np.ndarray:
    """Gradient of the chosen loss w.r.t. the input batch entries.

    An input-only reverse pass: each layer multiplies by its weight without
    the bias column and forms no weight gradient. Its result is bit-identical
    to the input gradient of a full reverse pass, `(dz @ weight)[:, :-1]`.
    """
    tape = forward(net, batch)
    return _input_gradient(tape, loss_logit_grad(kind, tape.logits, labels, ref_logits))


def _input_gradient(tape: ForwardTape, dlogits: np.ndarray, hidden=None, masks=None,
                    out=None) -> np.ndarray:
    """`input_gradient` from the logit gradient `dlogits` on a recorded tape.

    With buffers, layer l's product writes into `hidden[l - 1]`, its ReLU
    mask into `masks[l - 1]` and the last GEMM into `out`.
    """
    layers = tape.net.layers
    dz = dlogits
    for idx in range(len(layers) - 1, 0, -1):
        dz = np.matmul(dz, layers[idx].weight[:, :-1], out=None if hidden is None else hidden[idx - 1])
        dz *= _relu_mask(tape, idx, None if masks is None else masks[idx - 1])
    return np.matmul(dz, layers[0].weight[:, :-1], out=out)


# ---------------------------------------------------------------------------
# checkpoints


def _activation_names(n_layers: int) -> list[str]:
    """A checkpoint's `activations` list: ReLU for every layer but the last."""
    return ["relu"] * (n_layers - 1) + ["identity"]


def checkpoint_text(net: Network) -> str:
    """Serialize a network as a JSON document with a fixed key order.

    Each layer's (out, in + 1) weight is one base64 string of its
    little-endian float64 bytes in C order, so weights round-trip bit for bit.
    """
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "layer_dims": [[layer.out_dim, layer.in_dim + 1] for layer in net.layers],
        "activations": _activation_names(len(net.layers)),
        "weights": [
            base64.b64encode(np.ascontiguousarray(layer.weight, dtype="<f8").tobytes()).decode("ascii")
            for layer in net.layers
        ],
    }
    return json_text(doc)


def save_checkpoint(net: Network, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(checkpoint_text(net))


def load_checkpoint(path) -> Network:
    """Read a schema-2 checkpoint; any other content raises FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        if not isinstance(doc, dict) or set(doc) != set(CHECKPOINT_KEYS):
            raise FormatError(f"checkpoint {path} must hold exactly the keys "
                                  f"{', '.join(CHECKPOINT_KEYS)}")
        if doc["schema_version"] != CHECKPOINT_SCHEMA_VERSION:
            raise FormatError(f"checkpoint {path} has unsupported schema {doc['schema_version']} "
                                  f"(expected {CHECKPOINT_SCHEMA_VERSION}); re-run train to regenerate it")
        dims, acts, blobs = doc["layer_dims"], doc["activations"], doc["weights"]
        lists = all(isinstance(v, list) for v in (dims, acts, blobs))
        if not lists or not len(dims) == len(acts) == len(blobs):
            raise FormatError(f"checkpoint {path}: layer_dims, activations and weights "
                                  "must be lists of one length")
        layers = []
        for (rows, cols), blob in zip(dims, blobs):
            flat = np.frombuffer(base64.b64decode(blob, validate=True), dtype="<f8")
            w = flat.astype(np.float64).reshape(rows, cols)  # frombuffer is read-only; astype copies
            if w.shape != (rows, cols):
                raise FormatError(f"checkpoint {path}: weight shape {w.shape} is not {rows}x{cols}")
            layers.append(Layer(w))
        net = Network(layers)
        if acts != (names := _activation_names(len(layers))):
            raise FormatError(f"checkpoint {path}: activations must be {json.dumps(names)}, "
                              f"got {json.dumps(acts)}")
        return net
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint {path}: {exc}") from exc
