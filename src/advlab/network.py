"""Feed-forward ReLU networks with exact reverse-mode gradients.

Layers are affine maps with the bias folded into the weight matrix as an
extra column acting on a constant-1 input coordinate, so a layer mapping
h_in units to h_out units stores an (h_out, h_in + 1) weight. The final
layer is always the identity (logit output). Forward passes record every
intermediate on a tape; backward passes consume the tape and never mutate
the network, so evaluation is safe to share across threads.

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

ACTIVATIONS = ("relu", "identity")

CHECKPOINT_SCHEMA_VERSION = 2
CHECKPOINT_KEYS = ("schema_version", "layer_dims", "activations", "weights")


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (h_out, h_in + 1), bias folded into the last column
    activation: str = "relu"

    def __post_init__(self):
        as_matrix(self.weight, "layer weight")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1] - 1


class Network:
    """An ordered stack of affine(+ReLU) layers ending in identity logits."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
        if layers[-1].activation != "identity":
            raise ValueError("final layer must use the identity activation")
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
        return Network(
            [Layer(w, layer.activation) for w, layer in zip(weights, self.layers)]
        )

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
        for i, (h_in, h_out) in enumerate(zip(dims, dims[1:])):
            w = np.zeros((h_out, h_in + 1))
            w[:, :-1] = rng.standard_normal((h_out, h_in)) * np.sqrt(2.0 / h_in)
            act = "identity" if i == len(dims) - 2 else "relu"
            layers.append(Layer(w, act))
        return cls(layers)


@dataclass
class ForwardTape:
    """Per-layer intermediates for one minibatch.

    activations[0] is the raw input batch; activations[l] is the
    post-activation output of layer l; pre_activations[l-1] is layer l's
    affine output before the nonlinearity. Logits are the last
    pre-activation (the final layer is identity). augmented[l] is layer
    l+1's input with the constant-1 bias column appended, the matrix its
    GEMMs read; activations[l] for l < number of layers is its view
    without that column.
    """

    net: Network
    augmented: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
    pre_activations: list[np.ndarray] = field(default_factory=list)

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


def forward(net: Network, batch) -> ForwardTape:
    """Run the network on a batch (rows = samples), recording a tape."""
    x = _as_input(net, batch)
    xa = _augmented_buffer(*x.shape)
    xa[:, :-1] = x
    return _forward(net, xa)


def _forward(net: Network, xa: np.ndarray) -> ForwardTape:
    """`forward` on a validated input held in an augmented buffer.

    Each hidden layer writes its output straight into the next layer's
    augmented buffer, so no input is copied to append the bias column.
    """
    tape = ForwardTape(net=net, augmented=[xa], activations=[xa[:, :-1]])
    for layer in net.layers[:-1]:
        z = tape.augmented[-1] @ layer.weight.T
        buf = _augmented_buffer(*z.shape)
        a = buf[:, :-1]
        if layer.activation == "relu":
            np.maximum(z, 0.0, out=a)
        else:
            a[...] = z
        tape.pre_activations.append(z)
        tape.augmented.append(buf)
        tape.activations.append(a)
    logits = tape.augmented[-1] @ net.layers[-1].weight.T  # the final layer is identity
    tape.pre_activations.append(logits)
    tape.activations.append(logits)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")
    return tape


def _check_tape(net: Network, tape: ForwardTape):
    if tape.net is not net:
        raise ValueError("tape was recorded on a different network")


def backward(net: Network, tape: ForwardTape, dlogits: np.ndarray, dacts=None) -> list[np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every layer weight.

    `dlogits` is the loss gradient w.r.t. the logits for the batch on the
    tape (already including any 1/batch factor). `dacts` maps an inner
    activation index l (1 <= l < number of layers) to the gradient of
    further loss terms w.r.t. activations[l]; it joins the one reverse
    pass where the pass crosses that activation. With zero `dlogits` the
    blocks of the layers above every such activation are exactly zero.
    The pass stops at layer 1's weight gradient: the input gradient is
    `input_gradient`'s job.
    """
    _check_tape(net, tape)
    dacts = dacts or {}
    for idx, dact in dacts.items():
        if not 1 <= idx < len(net.layers) or np.shape(dact) != tape.activations[idx].shape:
            raise ValueError(f"activation gradient {idx} does not match an inner activation")
    dz = np.asarray(dlogits, dtype=np.float64)
    grads: list[np.ndarray] = []
    for idx in range(len(net.layers) - 1, -1, -1):
        grads.append(dz.T @ tape.augmented[idx])
        if idx == 0:
            break
        da = (dz @ net.layers[idx].weight)[:, :-1]
        if idx in dacts:
            da = da + dacts[idx]
        if net.layers[idx - 1].activation == "relu":
            dz = da * (tape.pre_activations[idx - 1] > 0.0)
        else:
            dz = da
    grads.reverse()
    return grads


# ---------------------------------------------------------------------------
# losses


def _check_labels(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError("labels must be a flat integer list")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return y


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy(logits, labels) -> float:
    """Mean softmax cross-entropy."""
    z = as_matrix(logits, "logits")
    y = _check_labels(labels, z.shape[1])
    logp = log_softmax(z)
    return float(-logp[np.arange(len(y)), y].mean())


def cross_entropy_grad(logits, labels) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the logits: (softmax - onehot)/B."""
    z = as_matrix(logits, "logits")
    y = _check_labels(labels, z.shape[1])
    g = softmax(z)
    g[np.arange(len(y)), y] -= 1.0
    return g / len(y)


def _mask_true_class(logits, labels):
    """Validated logits and labels, row indices, and the logits with the true class at -inf."""
    z = as_matrix(logits, "logits")
    y = _check_labels(labels, z.shape[1])
    rows = np.arange(len(y))
    masked = z.copy()
    masked[rows, y] = -np.inf
    return z, y, rows, masked


def margin_loss(logits, labels, gamma: float = 0.0) -> float:
    """Fraction of rows whose true-class logit beats the rest by at most gamma.

    gamma = 0 gives the plain classification error.
    """
    z, y, rows, masked = _mask_true_class(logits, labels)
    return float(np.mean(z[rows, y] <= gamma + masked.max(axis=1)))


def accuracy(logits, labels) -> float:
    return 1.0 - margin_loss(logits, labels, 0.0)


def kl_softmax(logits_p, logits_q) -> float:
    """Mean rowwise KL divergence between softmax(logits_p) and softmax(logits_q)."""
    zp = as_matrix(logits_p, "logits_p")
    zq = as_matrix(logits_q, "logits_q")
    if zp.shape != zq.shape:
        raise ValueError("logit shapes differ")
    logp, logq = log_softmax(zp), log_softmax(zq)
    return float((np.exp(logp) * (logp - logq)).sum(axis=1).mean())


def kl_softmax_grad_q(logits_p, logits_q) -> np.ndarray:
    """Gradient of the mean KL w.r.t. logits_q: (softmax(q) - softmax(p))/B."""
    zp = as_matrix(logits_p, "logits_p")
    zq = as_matrix(logits_q, "logits_q")
    return (softmax(zq) - softmax(zp)) / zp.shape[0]


def kl_softmax_grad_p(logits_p, logits_q) -> np.ndarray:
    """Gradient of the mean KL w.r.t. logits_p."""
    zp = as_matrix(logits_p, "logits_p")
    zq = as_matrix(logits_q, "logits_q")
    logp, logq = log_softmax(zp), log_softmax(zq)
    p = np.exp(logp)
    diff = logp - logq
    row_kl = (p * diff).sum(axis=1, keepdims=True)
    return p * (diff - row_kl) / zp.shape[0]


def cw_margin(logits, labels) -> float:
    """Mean logit margin max_{j != y} z_j - z_y (positive = misclassified)."""
    z, y, rows, masked = _mask_true_class(logits, labels)
    return float((masked.max(axis=1) - z[rows, y]).mean())


def cw_margin_grad(logits, labels) -> np.ndarray:
    """Gradient of the mean logit margin w.r.t. the logits."""
    z, y, rows, masked = _mask_true_class(logits, labels)
    best_other = masked.argmax(axis=1)
    g = np.zeros_like(z)
    g[rows, best_other] += 1.0
    g[rows, y] -= 1.0
    return g / len(y)


LOSS_KINDS = ("cross_entropy", "cw_margin", "kl")


def loss_logit_grad(kind: str, logits, labels=None, ref_logits=None) -> np.ndarray:
    if kind == "cross_entropy":
        return cross_entropy_grad(logits, labels)
    if kind == "cw_margin":
        return cw_margin_grad(logits, labels)
    if kind == "kl":
        return kl_softmax_grad_q(ref_logits, logits)
    raise ValueError(f"unknown loss kind {kind!r}")


def input_gradient(net: Network, batch, kind: str, labels=None, ref_logits=None) -> np.ndarray:
    """Gradient of the chosen loss w.r.t. the input batch entries.

    An input-only reverse pass: each layer multiplies by its weight without
    the bias column and forms no weight gradient. Its result is bit-identical
    to the input gradient of a full reverse pass, `(dz @ weight)[:, :-1]`.
    """
    return _input_gradient(forward(net, batch), kind, labels, ref_logits)


def _input_gradient(tape: ForwardTape, kind: str, labels, ref_logits, out=None) -> np.ndarray:
    """`input_gradient` on a recorded tape; the last GEMM writes into `out` when given."""
    layers = tape.net.layers
    dz = loss_logit_grad(kind, tape.logits, labels, ref_logits)
    for idx in range(len(layers) - 1, 0, -1):
        dz = dz @ layers[idx].weight[:, :-1]
        if layers[idx - 1].activation == "relu":
            dz *= tape.pre_activations[idx - 1] > 0.0
    return np.matmul(dz, layers[0].weight[:, :-1], out=out)


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_text(net: Network) -> str:
    """Serialize a network as a JSON document with a fixed key order.

    Each layer's (out, in + 1) weight is one base64 string of its
    little-endian float64 bytes in C order, so weights round-trip bit for bit.
    """
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "layer_dims": [[layer.out_dim, layer.in_dim + 1] for layer in net.layers],
        "activations": [layer.activation for layer in net.layers],
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
        for (rows, cols), act, blob in zip(dims, acts, blobs):
            flat = np.frombuffer(base64.b64decode(blob, validate=True), dtype="<f8")
            w = flat.astype(np.float64).reshape(rows, cols)  # frombuffer is read-only; astype copies
            if w.shape != (rows, cols):
                raise FormatError(f"checkpoint {path}: weight shape {w.shape} is not {rows}x{cols}")
            layers.append(Layer(w, act))
        return Network(layers)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint {path}: {exc}") from exc
