"""Second-order weight statistics by sampling and by Laplace approximation.

A layer's weight perturbation U (same shape as the folded weight matrix)
has a full correlation matrix R over vec(U), plus column and row
correlation matrices from U^T U and U U^T. The sampling estimator draws
loss-constrained weight perturbations around a trained network; the
Laplace estimator inverts the Kronecker factors of the expected
softmax-CE Hessian. Both report the same summary: eigenvalue extremes of
R, square-rooted spectral norms of the normalized column/row
correlations, a determinant lower bound, and the squared Frobenius norm.

The module also hosts two Monte-Carlo studies: the correlation-matrix
norm trade-off (Frobenius norm against the spectral-norm proxy and the
determinant bound) and the spectral-norm bound for iid Gaussian
perturbation matrices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches, epoch_seed_from
from .decorr import hessian_kron_factors, normalized_precision, resolve_ridge
from .io import FormatError, write_csv
from .linalg import TOL_PSD, det_lower_bound, logdet_lower_bound, normalize_to_correlation
from .network import Layer, Network, backward, cross_entropy, forward, loss_logit_grad

STUDY_BLOCK = 1024  # matrices per batch of the random study: a few MB of working set
LAPLACE_CHUNK = 2048  # rows per forward pass of `corr_from_laplace`

SOURCES = ("sampling", "laplace")
DATA_TAGS = ("clean", "adversarial")
STUDY_FAMILIES = ("random", "equicorrelation")


@dataclass
class LayerCorrStats:
    """Per-layer second-order weight statistics from one estimator: one stats CSV row.

    `dim` is the size of the layer's weight correlation R; no matrix is kept (`_layer_stats`).
    R has unit diagonal, hence trace dim, so `validate()` checks, within 1e-8 relative,
    that no field is NaN and:
    - `source` is in SOURCES, `data` in DATA_TAGS, and `layer`, `dim`, `sample_count` >= 1;
    - 0 <= lam_min <= 1 <= lam_max <= dim, and dim <= frob_sq <= dim^2;
    - 1 <= lamc_max, lamr_max <= sqrt(dim): unit-diagonal factors whose sizes multiply to dim;
    - dim * log(lam_min) <= logdet <= 0 (AM-GM); logdet is -inf exactly when lam_min is 0;
    - 0 <= det_lb <= exp(logdet), so det_lb is 0 when R is singular.
    """

    layer: int
    dim: int
    source: str
    data: str
    sample_count: int
    lam_max: float
    lam_min: float
    lamc_max: float
    lamr_max: float
    det_lb: float
    logdet: float
    frob_sq: float

    CSV_FIELDS = (
        "layer", "dim", "source", "data", "sample_count",
        "lam_max", "lam_min", "lamc_max", "lamr_max", "det_lb", "logdet", "frob_sq",
    )

    def validate(self) -> "LayerCorrStats":
        """The record itself, or ValueError naming the first invariant it breaks."""
        if self.source not in SOURCES or self.data not in DATA_TAGS:
            raise ValueError(f"unknown source {self.source!r} or data {self.data!r}")
        tol, dim = 1e-8, max(float(self.dim), 1.0)  # a dim below 1 fails in the table
        floor = dim * (np.log(self.lam_min) * (1.0 + tol) - tol) if self.lam_min > 0.0 else -np.inf
        for name, lo, hi in (  # a NaN fails every comparison
            ("layer", 1, np.inf), ("dim", 1, np.inf), ("sample_count", 1, np.inf),
            ("lam_min", 0.0, 1.0 + tol),
            ("lam_max", 1.0 - tol, dim * (1.0 + tol)),
            *((name, 1.0 - tol, np.sqrt(dim) * (1.0 + tol)) for name in ("lamc_max", "lamr_max")),
            ("frob_sq", dim * (1.0 - tol), dim * dim * (1.0 + tol)),
            ("logdet", floor, dim * tol),  # every eigenvalue is at least lam_min
            ("det_lb", 0.0, np.exp(min(self.logdet, 0.0)) * (1.0 + 1e-9)),
        ):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} {getattr(self, name)!r} outside [{lo:.9g}, {hi:.9g}]")
        if (self.lam_min == 0.0) != (self.logdet == -np.inf):
            raise ValueError(f"lam_min {self.lam_min!r} is 0 iff logdet {self.logdet!r} is -inf")
        return self

    def write_csv(self, path):
        write_csv(path, self.CSV_FIELDS, [[getattr(self, name) for name in self.CSV_FIELDS]])

    @classmethod
    def read_csv(cls, path) -> "LayerCorrStats":
        """Inverse of write_csv; FormatError for a file no estimate could have written."""
        try:
            with open(path, newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8; a field over csv's size limit
            raise FormatError(f"{path}: {exc}") from exc
        if len(rows) != 1:
            raise FormatError(f"{path}: expected exactly one stats row")
        row = rows[0]
        missing = [k for k in cls.CSV_FIELDS if row.get(k) is None]
        if missing:
            raise FormatError(f"{path}: missing fields {', '.join(missing)}")
        ints, strs = ("layer", "dim", "sample_count"), ("source", "data")
        try:
            return cls(**{k: int(row[k]) if k in ints else row[k] if k in strs else float(row[k])
                          for k in cls.CSV_FIELDS}).validate()
        except (ValueError, OverflowError) as exc:  # OverflowError: a dim beyond float range
            raise FormatError(f"{path}: {exc}") from exc


def _layer_stats(layer, rc, rr, eig_c, eig_r, eig, source, sample_count) -> LayerCorrStats:
    """The checked summary of a correlation matrix R from its nonzero spectrum `eig`.

    `rc`/`rr` are R's column/row correlations, `eig_c`/`eig_r` their ascending spectra. R has
    size rc.shape[0] * rr.shape[0]; it is singular when `eig` is shorter or holds a value <= TOL_PSD.
    """
    for name, mat, spectrum in (("rc", rc, eig_c), ("rr", rr, eig_r)):
        if np.abs(mat - mat.T).max() > 1e-10:
            raise ValueError(f"{name} is not symmetric")
        if np.abs(np.diag(mat) - 1.0).max() > 1e-8:
            raise ValueError(f"{name} does not have a unit diagonal")
        if spectrum[0] < -TOL_PSD:
            raise ValueError(f"{name} is not PSD within tolerance")
        if np.abs(mat).max() > 1.0 + 1e-12:
            raise ValueError(f"{name} has off-diagonal magnitude above 1")
    dim = rc.shape[0] * rr.shape[0]
    lam_max = float(eig.max())
    if len(eig) < dim or eig.min() <= TOL_PSD:
        lam_min, logdet, det_lb = 0.0, -np.inf, 0.0  # the trivial determinant bound
    else:
        lam_min = float(eig.min())
        logdet = float(np.sum(np.log(eig)))
        det_lb = det_lower_bound(min(lam_min, 1.0), max(lam_max, 1.0), dim)
    return LayerCorrStats(
        layer=layer, dim=dim, source=source, data="clean", sample_count=sample_count,
        lam_max=lam_max, lam_min=lam_min, lamc_max=float(np.sqrt(eig_c[-1])),
        lamr_max=float(np.sqrt(eig_r[-1])), det_lb=det_lb, logdet=logdet,
        frob_sq=float(np.sum(eig * eig)),
    ).validate()


# ---------------------------------------------------------------------------
# sampling estimator


@dataclass(frozen=True)
class SamplingConfig:
    """Loss-constrained Gaussian weight sampling.

    A draw w+u is valid when |L(w+u) - L(w)| <= loss_tolerance, where L is
    the mean cross-entropy over the provided dataset; draws that fail are
    refined by plain SGD (refine_epochs at refine_lr) and re-checked.
    noise_sigma = None scales the noise per layer to 0.01 * RMS(weights).
    `layers` restricts both the perturbation and the refinement to a
    non-empty subset of layers (1-based); None perturbs the whole network.
    """

    num_samples: int = 100
    loss_tolerance: float = 0.05
    refine_epochs: int = 50
    refine_lr: float = 1e-4
    refine_batch_size: int = 64
    noise_sigma: float | None = None
    layers: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 2:
            raise ValueError("num_samples must be >= 2")
        # NaN fails these checks; an infinite loss_tolerance accepts every draw
        positive = (self.loss_tolerance, self.refine_lr, self.refine_batch_size)
        if self.refine_epochs < 0 or not all(v > 0 for v in positive):
            raise ValueError("need refine_epochs >= 0; loss_tolerance, refine_lr, refine_batch_size > 0")
        if self.layers == ():
            raise ValueError("layers must name at least one layer; omit it to perturb every layer")
        if self.noise_sigma is not None and not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma {self.noise_sigma!r} is not a number >= 0")


def _active_mask(net: Network, cfg: SamplingConfig) -> list[bool]:
    if cfg.layers is None:
        return [True] * len(net.layers)
    if not all(1 <= l <= len(net.layers) for l in cfg.layers):
        raise ValueError(f"layers {cfg.layers} out of range")
    return [(i + 1) in cfg.layers for i in range(len(net.layers))]


def _layer_sigmas(net: Network, cfg: SamplingConfig) -> list[float]:
    if cfg.noise_sigma is not None:
        return [cfg.noise_sigma] * len(net.layers)
    return [0.01 * float(np.sqrt(np.mean(w * w))) for w in net.weights]


def _refine(net: Network, ds: Dataset, cfg: SamplingConfig, active: list[bool], draw: int) -> Network:
    for epoch in range(cfg.refine_epochs):
        for xb, yb in batches(ds, cfg.refine_batch_size, epoch_seed_from(cfg.seed, draw, epoch)):
            tape = forward(net, xb)
            grads = backward(net, tape, loss_logit_grad("cross_entropy", tape.logits, yb))
            net = net.with_weights(
                [w - cfg.refine_lr * g if on else w
                 for w, g, on in zip(net.weights, grads, active)]
            )
    return net


def _read_only_zeros(w: np.ndarray) -> np.ndarray:
    zeros = np.zeros_like(w)
    zeros.flags.writeable = False
    return zeros


def sample_weight_perturbations(
    net: Network, ds: Dataset, cfg: SamplingConfig
) -> list[list[np.ndarray]]:
    """Accepted weight deltas u (one list of per-layer arrays per sample).

    The layers below the first perturbed one never change, so their output
    on `ds` comes from one forward pass of `net`; each draw forwards only
    the head from there. A layer that is not perturbed gets one read-only
    zero delta, shared by every sample. Raises ValueError when
    100 * num_samples draws are exhausted before num_samples acceptances.
    """
    sigmas = _layer_sigmas(net, cfg)
    active = _active_mask(net, cfg)
    first = active.index(True)
    base = forward(net, ds.inputs)
    base_loss = cross_entropy(base.logits, ds.labels)
    head_input = base.activations[first]  # the only part of the base tape kept alive
    del base
    zeros = [None if on else _read_only_zeros(w) for w, on in zip(net.weights, active)]

    def within_tolerance(layers: list[Layer]) -> bool:
        """Whether a net equal to `net` below layer `first` keeps the loss within tolerance."""
        loss = cross_entropy(forward(Network(layers[first:]), head_input).logits, ds.labels)
        return abs(loss - base_loss) <= cfg.loss_tolerance

    accepted: list[list[np.ndarray]] = []
    max_draws = 100 * cfg.num_samples
    for draw in range(max_draws):
        if len(accepted) == cfg.num_samples:
            break
        rng = np.random.default_rng([cfg.seed, draw])
        noise = [sigma * rng.standard_normal(w.shape) if on else zero
                 for w, sigma, on, zero in zip(net.weights, sigmas, active, zeros)]
        layers = [Layer(layer.weight + u) if on else layer
                  for layer, u, on in zip(net.layers, noise, active)]
        if within_tolerance(layers):
            accepted.append(noise)
            continue
        refined = _refine(Network(layers), ds, cfg, active, draw)
        if within_tolerance(refined.layers):
            accepted.append([rw - w if on else zero for rw, w, on, zero
                             in zip(refined.weights, net.weights, active, zeros)])
    if len(accepted) < cfg.num_samples:
        raise ValueError(f"accepted {len(accepted)}/{cfg.num_samples} after {max_draws} draws: a draw "
                         f"needs its loss within loss_tolerance {cfg.loss_tolerance:g} of the base "
                         f"loss {base_loss:.6g}")
    return accepted


def corr_from_samples(deltas: list[list[np.ndarray]], layer: int) -> LayerCorrStats:
    """Empirical correlation statistics of one layer's weight deltas.

    Second moments are normalized by the scalar per-entry variance, which
    gives the full correlation matrix R trace equal to its dimension. R is
    flat^T flat / (count * variance) over the (samples, dim) matrix of
    vectorized deltas, so its nonzero spectrum is the squared singular
    values of flat under the same scale; with fewer samples than
    dimensions R is singular.
    """
    if len(deltas) < 2:
        raise ValueError("need at least 2 weight samples")
    if not 1 <= layer <= len(deltas[0]):
        raise ValueError(f"layer {layer} outside 1..{len(deltas[0])}")
    mats = [d[layer - 1] for d in deltas]
    count = len(mats)
    flat = np.stack([m.reshape(-1) for m in mats])  # (samples, dim)
    sigma_sq = float(np.mean(flat * flat))
    if sigma_sq <= 0.0:
        raise ValueError("all-zero weight samples")

    rc_raw = sum(m.T @ m for m in mats) / count
    rr_raw = sum(m @ m.T for m in mats) / count
    if min(np.diag(rc_raw).min(), np.diag(rr_raw).min()) <= 0.0:
        raise ValueError("a weight coordinate never varies across samples")
    rc, rr = normalize_to_correlation(rc_raw), normalize_to_correlation(rr_raw)
    s = np.linalg.svd(flat, compute_uv=False)
    return _layer_stats(
        layer, rc, rr, np.linalg.eigvalsh(rc), np.linalg.eigvalsh(rr),
        s * s / (count * sigma_sq), "sampling", count,
    )


# ---------------------------------------------------------------------------
# Laplace estimator


def laplace_stats_from_factors(
    a_hat: np.ndarray, h_hat: np.ndarray, damping: float, layer: int, sample_count: int
) -> LayerCorrStats:
    """Statistics of the Kronecker-structured correlation P (x) Q.

    P and Q are the factors' normalized precisions under `resolve_ridge`'s ridge for `damping`,
    so an all-zero factor (a softmax one-hot on every row) gives the identity. Eigenvalues of the
    product structure are products of the factor eigenvalues, so the summary comes from the small factors.
    """
    rc, rr = (normalized_precision(f, resolve_ridge(f, damping)[0]) for f in (a_hat, h_hat))
    eig_c, eig_r = np.linalg.eigvalsh(rc), np.linalg.eigvalsh(rr)
    eig = np.multiply.outer(eig_c, eig_r).ravel()
    return _layer_stats(layer, rc, rr, eig_c, eig_r, eig, "laplace", sample_count)


def corr_from_laplace(net: Network, ds: Dataset, layer: int, damping: float = 1e-3) -> LayerCorrStats:
    """Laplace-approximation statistics for the output layer.

    The expected Hessian factorizes over the layer input second moment and
    the softmax curvature; the weight-posterior covariance is the damped
    inverse of each factor.
    """
    if layer != len(net.layers):
        raise ValueError("the Laplace estimator covers the softmax output layer only")
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    a_dim = net.layers[-1].in_dim + 1
    a_hat = np.zeros((a_dim, a_dim))
    h_hat = np.zeros((net.output_dim, net.output_dim))
    for start in range(0, len(ds), LAPLACE_CHUNK):
        xb = ds.inputs[start : start + LAPLACE_CHUNK]
        tape = forward(net, xb)
        a_part, h_part = hessian_kron_factors(tape)
        a_hat += a_part * len(xb)
        h_hat += h_part * len(xb)
    a_hat /= len(ds)
    h_hat /= len(ds)
    return laplace_stats_from_factors(a_hat, h_hat, damping, layer, sample_count=len(ds))


# ---------------------------------------------------------------------------
# correlation-matrix norm study


@dataclass
class CorrelationStudy:
    """Rows of (frob_sq, lam_proxy, det_lb) plus Spearman summaries.

    lam_proxy = sqrt(dim * lam_max) matches the closed form
    sqrt(d*(1 + (d-1)r)) of the equicorrelation family's column matrix.
    """

    family: str
    dim: int
    rows: np.ndarray  # (n, 3)
    rho_frob_lam: float  # NaN when undefined: a constant column
    rho_frob_det: float

    HEADER = ("frob_sq", "lam_proxy", "det_lb")

    def write_csv(self, path):
        write_csv(path, self.HEADER, self.rows)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, ties given the mean of their ordinal ranks (scipy's rankdata)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)  # exact halves
    return ranks


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation, bit-identical to scipy.stats.spearmanr's statistic.

    NaN (undefined) for fewer than two rows, or when either input is
    constant or holds a NaN.
    """
    if len(a) < 2 or any((x[0] == x).all() or np.isnan(x).any() for x in (a, b)):
        return math.nan
    ranked = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])  # spearmanr's arithmetic after ranking


def _equicorrelation_study_rows(dim: int, r: np.ndarray) -> np.ndarray:
    """Closed-form study rows of the equicorrelation matrices of the values `r`.

    The spectrum is 1 + (dim-1)r once and 1 - r with multiplicity dim-1.
    """
    frob = dim + dim * (dim - 1) * r * r
    top, rest = 1.0 + (dim - 1) * r, 1.0 - r
    lam_max, lam_min = np.maximum(top, rest), np.minimum(top, rest)
    logdet_lb = logdet_lower_bound(np.minimum(lam_min, 1.0), np.maximum(lam_max, 1.0), dim)
    det_lb = [math.exp(v) for v in logdet_lb.tolist()]  # det_lower_bound's exp, not np.exp's bits
    return np.column_stack([frob, np.sqrt(dim * lam_max), det_lb])


def _random_study_rows(g: np.ndarray) -> np.ndarray:
    """Study rows of a (k, dim, 2*dim) batch: random_correlation's arithmetic, batched."""
    k, dim = g.shape[:2]
    gram = g @ g.transpose(0, 2, 1)
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    inv_sqrt = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    corr = gram * (inv_sqrt[:, :, None] * inv_sqrt[:, None, :])
    corr[:, np.arange(dim), np.arange(dim)] = 1.0
    eig = np.linalg.eigvalsh(corr)
    lam_max = eig[:, -1]
    logdet_lb = logdet_lower_bound(np.minimum(np.maximum(eig[:, 0], 1e-12), 1.0),
                                   np.maximum(lam_max, 1.0), dim)
    det_lb = [math.exp(v) for v in logdet_lb.tolist()]  # det_lower_bound's exp, not np.exp's bits
    frob = (corr * corr).reshape(k, -1).sum(axis=1)
    return np.column_stack([frob, np.sqrt(dim * lam_max), det_lb])


def simulate_correlation_study(
    dim: int = 9,
    n_samples: int = 10_000,
    family: str = "random",
    seed: int = 0,
    r_range: tuple[float, float] = (0.0, 0.9),
) -> CorrelationStudy:
    """Sample correlation matrices and tabulate the norm trade-off.

    The "random" family draws normalized-Wishart matrices, STUDY_BLOCK
    at a time from one generator: the stream and the values of n_samples
    random_correlation calls. The "equicorrelation" family sweeps the
    constant off-diagonal r over r_range and uses the exact closed forms.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2: a rank correlation needs two rows")
    if family not in STUDY_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "random":
        rows = np.empty((n_samples, 3))
        rng = np.random.default_rng(seed)
        for start in range(0, n_samples, STUDY_BLOCK):
            g = rng.standard_normal((min(STUDY_BLOCK, n_samples - start), dim, 2 * dim))
            rows[start : start + len(g)] = _random_study_rows(g)
    else:
        lo, hi = r_range
        if not (-1.0 / (dim - 1) < lo < hi < 1.0):
            raise ValueError(f"r_range {r_range} needs lo < hi inside the PSD range")
        rows = _equicorrelation_study_rows(dim, np.linspace(lo, hi, n_samples))
    return CorrelationStudy(
        family=family,
        dim=dim,
        rows=rows,
        rho_frob_lam=spearman_rho(rows[:, 0], rows[:, 1]),
        rho_frob_det=spearman_rho(rows[:, 0], rows[:, 2]),
    )


# ---------------------------------------------------------------------------
# perturbation-norm check


@dataclass
class PerturbationReport:
    """Distribution of ||U||_2 / (2 sqrt(h) sigma) for iid Gaussian U.

    2 sqrt(h) is the expectation term of `advlab.bounds`' perturbation step
    for an iid h x h matrix (lamc = lamr = 1), in units of sigma; the
    ratios show how far a draw lies from it before the step's tail term.
    """

    h: int
    trials: int
    ratios: np.ndarray
    median: float
    p95: float

    def write_csv(self, path):
        write_csv(path, ("trial", "ratio"), enumerate(self.ratios))


def check_perturbation_bound(
    h: int, sigma: float, trials: int, seed: int = 0
) -> PerturbationReport:
    if trials < 30:
        raise ValueError("need at least 30 trials")
    if h < 1 or not 0 < sigma < np.inf:
        raise ValueError(f"need h >= 1 and a finite sigma > 0, got h={h}, sigma={sigma}")
    scale = 2.0 * np.sqrt(h) * sigma
    u = np.empty((trials, h, h))
    for t in range(trials):
        np.random.default_rng([seed, t]).standard_normal(out=u[t])
    u *= sigma
    ratios = np.linalg.norm(u, 2, axis=(1, 2)) / scale  # the LAPACK SVD of spectral_norm
    return PerturbationReport(
        h=h,
        trials=trials,
        ratios=ratios,
        median=float(np.median(ratios)),
        p95=float(np.percentile(ratios, 95)),
    )
