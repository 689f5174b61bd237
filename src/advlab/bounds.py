"""Numerical evaluation of spectral PAC-Bayesian complexity terms.

Four bound structures are evaluated: the classical spectral generalization
bound over clean data ("neyshabur"), its robust counterpart with the
attack radius folded into the input-norm bound ("xiao"), and two
correlation-aware robust bounds that add the weight-correlation factor to
the capacity product and a negative log-determinant term — using the true
per-layer log-determinant ("corr") or the trace-constrained determinant
lower bound built from eigenvalue extremes over clean and adversarial
statistics ("corr_mixed").

Every kind reports the plain argument of the square root: these are
relative complexity measures up to the universal constants the theory
leaves unspecified, not certified error bounds. The placeholder constant
is an input and is always recorded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .io import json_text, write_csv
from .linalg import frobenius_sq, logdet_lower_bound, spectral_norm
from .network import Network
from .weight_stats import LayerCorrStats

BOUND_KINDS = ("neyshabur", "xiao", "corr", "corr_mixed")


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs shared by every bound kind.

    input_bound is the l2 norm bound B on the inputs; epsilon the attack
    radius (0 reduces the robust kinds toward the clean structure);
    constant the placeholder for the theory's unspecified universal
    constant, reported verbatim in every output.
    """

    gamma: float
    delta: float
    m: int
    input_bound: float
    epsilon: float = 0.0
    constant: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.m < 1 or self.input_bound <= 0 or self.epsilon < 0 or self.constant <= 0:
            raise ValueError("m, input_bound, constant must be positive; epsilon >= 0")


@dataclass
class BoundReport:
    kind: str
    phi: float
    phi_term: float
    logdet_term: float
    log_term: float
    kl_proxy: float
    numerator: float
    complexity_term: float
    n_layers: int
    width: int
    inputs: BoundInputs
    per_layer: list[dict]

    def to_json_text(self) -> str:
        return json_text(asdict(self))

    CSV_FIELDS = (
        "kind", "phi", "phi_term", "logdet_term", "log_term", "kl_proxy",
        "numerator", "complexity_term", "n_layers", "width",
        "gamma", "delta", "m", "input_bound", "epsilon", "constant",
    )

    def write_csv(self, path):
        flat = asdict(self)
        flat |= flat.pop("inputs")
        write_csv(path, self.CSV_FIELDS, [[flat[name] for name in self.CSV_FIELDS]])


def _layer_norms(net: Network) -> list[dict]:
    """The report's per-layer rows; every norm a bound uses comes from them."""
    return [
        {"layer": i + 1, "spectral_norm": spectral_norm(l.weight), "frob_sq": frobenius_sq(l.weight)}
        for i, l in enumerate(net.layers)
    ]


def _capacity(per_layer: list[dict]) -> float:
    """Capacity product prod ||W||_2^2 * sum ||W||_F^2 / ||W||_2^2 of the folded weights."""
    if any(row["spectral_norm"] == 0.0 for row in per_layer):
        raise ValueError("a layer has zero spectral norm")
    spectral_sq = [row["spectral_norm"] * row["spectral_norm"] for row in per_layer]
    product = float(np.prod(spectral_sq))
    return product * sum(row["frob_sq"] / s2 for row, s2 in zip(per_layer, spectral_sq))


def _lam_by_layer(net: Network, stats: list[LayerCorrStats]) -> dict[int, dict[str, float]]:
    """Aggregate per-layer extremes over however many entries cover a layer.

    Every entry on a layer of `net` must have that layer's weight count as its dim.
    """
    table: dict[int, dict[str, float]] = {}
    for i, s in enumerate(stats):
        if 1 <= s.layer <= len(net.layers) and s.dim != (size := net.layers[s.layer - 1].weight.size):
            raise ValueError(f"stats[{i}] ({s.source}, {s.data}) has dim {s.dim}; "
                             f"layer {s.layer} has {size} weights")
        entry = table.setdefault(
            s.layer,
            {"lamc": -np.inf, "lamr": -np.inf, "lam_max": -np.inf, "lam_min": np.inf,
             "logdet": np.inf, "det_lb": np.inf, "dim": s.dim},
        )
        entry["lamc"] = max(entry["lamc"], s.lamc_max)
        entry["lamr"] = max(entry["lamr"], s.lamr_max)
        entry["lam_max"] = max(entry["lam_max"], s.lam_max)
        entry["lam_min"] = min(entry["lam_min"], s.lam_min)
        entry["logdet"] = min(entry["logdet"], s.logdet)
        entry["det_lb"] = min(entry["det_lb"], s.det_lb)
    if set(table) != set(range(1, len(net.layers) + 1)):
        raise ValueError(f"statistics cover layers {sorted(table)}, not 1..{len(net.layers)}")
    return table


def evaluate_bound(
    net: Network, inputs: BoundInputs, kind: str, stats: list[LayerCorrStats] | None = None
) -> BoundReport:
    """Evaluate one bound kind; complexity_term = sqrt(numerator/(gamma^2 m)).

    The "corr" kind uses each layer's measured log-determinant (the most
    pessimistic entry when a layer has several); "corr_mixed" instead
    lower-bounds each determinant from the eigenvalue extremes across the
    layer's entries, so its numerator can only be larger.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r} (choose from {BOUND_KINDS})")
    n = len(net.layers)
    width = max(layer.out_dim for layer in net.layers)
    log_term = float(np.log(n * inputs.m / inputs.delta))
    per_layer = _layer_norms(net)

    if kind in ("neyshabur", "xiao"):
        phi = _capacity(per_layer)
        radius = inputs.input_bound if kind == "neyshabur" else inputs.input_bound + inputs.epsilon
        phi_term = radius**2 * n**2 * width * np.log(n * width) * phi
        logdet_term = 0.0
    else:
        if stats is None:
            raise ValueError("correlation bound kinds need layer statistics")
        table = _lam_by_layer(net, stats)
        phi = _capacity(per_layer) * sum(e["lamc"] + e["lamr"] for e in table.values()) ** 2
        radius = inputs.input_bound + inputs.epsilon
        phi_term = radius**2 * inputs.constant**2 * phi
        logdet_term = 0.0
        for layer_idx in sorted(table):
            entry = table[layer_idx]
            per_layer[layer_idx - 1].update(
                lamc=entry["lamc"], lamr=entry["lamr"], det_lb=entry["det_lb"]
            )
            if kind == "corr":
                if not np.isfinite(entry["logdet"]):
                    raise ValueError(
                        f"layer {layer_idx} lacks a finite log-determinant (rank-deficient stats)"
                    )
                logdet_term -= entry["logdet"]
            else:
                lo = min(entry["lam_min"], 1.0)
                hi = max(entry["lam_max"], 1.0)
                if lo <= 0.0:
                    raise ValueError(f"layer {layer_idx} has a vanishing determinant lower bound")
                # log space: the bound itself underflows at realistic dims
                logdet_term -= logdet_lower_bound(lo, hi, entry["dim"])

    phi_term = float(phi_term)
    numerator = phi_term + logdet_term + log_term
    # in float64, a gamma**2 that underflows to 0 gives inf rather than ZeroDivisionError
    complexity = float(np.sqrt(np.float64(numerator) / (inputs.gamma**2 * inputs.m)))
    for name, value in (("phi", phi), ("numerator", numerator), ("complexity_term", complexity)):
        if not np.isfinite(value):  # JSON has no Infinity or NaN to report it with
            raise ValueError(f"bound term {name} is {value}: the weights or inputs exceed float64 range")
    return BoundReport(
        kind=kind,
        phi=float(phi),
        phi_term=phi_term,
        logdet_term=float(logdet_term),
        log_term=log_term,
        kl_proxy=phi_term + float(logdet_term),
        numerator=float(numerator),
        complexity_term=complexity,
        n_layers=n,
        width=width,
        inputs=inputs,
        per_layer=per_layer,
    )
