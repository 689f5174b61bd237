import base64
import json

import numpy as np

from advlab.network import forward


def fd_weight_gradients(loss_fn, net, step=1e-5):
    """Central finite differences of a scalar loss over every weight entry.

    `loss_fn` maps a Network to a float; the oracle never touches the
    analytic backward path.
    """
    grads = []
    for li in range(len(net.layers)):
        g = np.zeros_like(net.layers[li].weight)
        for idx in np.ndindex(g.shape):
            plus = [w.copy() for w in net.weights]
            minus = [w.copy() for w in net.weights]
            plus[li][idx] += step
            minus[li][idx] -= step
            g[idx] = (loss_fn(net.with_weights(plus)) - loss_fn(net.with_weights(minus))) / (
                2.0 * step
            )
        grads.append(g)
    return grads


def fd_input_gradient(loss_fn, batch, step=1e-5):
    """Central finite differences of a scalar loss over every input entry."""
    g = np.zeros_like(batch)
    for idx in np.ndindex(batch.shape):
        plus, minus = batch.copy(), batch.copy()
        plus[idx] += step
        minus[idx] -= step
        g[idx] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * step)
    return g


def full_reverse_input_gradient(net, tape, dlogits):
    """Input gradient of the full reverse pass, the reference for the input-only one.

    Every layer multiplies by its whole weight and drops the bias column
    afterwards, the way a pass that also forms weight gradients would.
    """
    dz = dlogits
    for idx in range(len(net.layers) - 1, -1, -1):
        dz = (dz @ net.layers[idx].weight)[:, :-1]
        if idx > 0:  # layer idx's input is a hidden ReLU output
            dz = dz * (tape.activations[idx] > 0.0)
    return dz


def max_rel_error(analytic, oracle):
    """Worst per-coordinate relative disagreement between two gradient stacks."""
    worst = 0.0
    for a, f in zip(analytic, oracle):
        denom = np.maximum(np.abs(a) + np.abs(f), 1e-6)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def away_from_relu_kinks(net, batch, margin=1e-3):
    """True when no hidden pre-activation sits within `margin` of a ReLU kink.

    Finite differences are meaningless across a kink, so gradient-check
    fixtures are seeded to keep clear of them; this guards the fixture.
    Each hidden layer's pre-activation is recomputed from its augmented input.
    """
    tape = forward(net, batch)
    for inputs, layer in zip(tape.augmented[:-1], net.layers[:-1]):
        if np.abs(inputs @ layer.weight.T).min() < margin:
            return False
    return True


def strict_json(path):
    """A JSON document parsed without Python's NaN/Infinity extension."""
    def reject(token):
        raise ValueError(f"{path} holds {token}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def b64_weight(values) -> str:
    """A checkpoint weight string: base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _payload_of_first_weight(doc, fill, size_change=0):
    rows, cols = doc["layer_dims"][0]
    values = np.zeros(rows * cols + size_change)
    values[0] = fill
    doc["weights"][0] = b64_weight(values)


def _schema_1(doc):
    doc["schema_version"] = 1
    doc["weights"] = [np.frombuffer(base64.b64decode(w), "<f8").tolist() for w in doc["weights"]]


# name -> in-place edit of a parsed checkpoint document that must make it unloadable
CHECKPOINT_CORRUPTIONS = {
    "bad base64 character": lambda doc: doc["weights"].__setitem__(0, "*" + doc["weights"][0][1:]),
    "short payload": lambda doc: _payload_of_first_weight(doc, 0.5, -1),
    "long payload": lambda doc: _payload_of_first_weight(doc, 0.5, +1),
    "nan payload": lambda doc: _payload_of_first_weight(doc, np.nan),
    "inf payload": lambda doc: _payload_of_first_weight(doc, -np.inf),
    "inferred rows": lambda doc: doc["layer_dims"][0].__setitem__(0, -1),
    "schema 1": _schema_1,
    "extra layer": lambda doc: (doc["layer_dims"].append([2, 4]), doc["activations"].append("identity")),
    "extra weights": lambda doc: doc["weights"].append(doc["weights"][-1]),
    "hidden identity": lambda doc: doc["activations"].__setitem__(0, "identity"),
    "relu output": lambda doc: doc["activations"].__setitem__(-1, "relu"),
    "unknown key": lambda doc: doc.update(note="x"),
}

# name -> a pattern of the FormatError message that corruption gets, on any network
CHECKPOINT_CORRUPTION_MESSAGES = {
    "bad base64 character": "malformed checkpoint .*: Only base64 data is allowed",
    "short payload": "malformed checkpoint .*: cannot reshape array of size",
    "long payload": "malformed checkpoint .*: cannot reshape array of size",
    "nan payload": "malformed checkpoint .*: layer weight contains non-finite entries",
    "inf payload": "malformed checkpoint .*: layer weight contains non-finite entries",
    "inferred rows": r"weight shape \(\d+, \d+\) is not -1x\d+",
    "schema 1": r"has unsupported schema 1 \(expected 2\)",
    "extra layer": "layer_dims, activations and weights must be lists of one length",
    "extra weights": "layer_dims, activations and weights must be lists of one length",
    "hidden identity": r'activations must be \["relu", ("relu", )*"identity"\], got \["identity", ',
    "relu output": r'activations must be \[("relu", )+"identity"\], got \[("relu", )+"relu"\]',
    "unknown key": "must hold exactly the keys schema_version, layer_dims, activations, weights",
}
