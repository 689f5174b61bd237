"""Desk-scale adversarial training laboratory.

Feed-forward ReLU networks with exact reverse-mode gradients, white-box
attacks, a weight-decorrelation regularizer backed by a Kronecker-factored
Laplace estimate of the activation covariance, second-order weight
statistics, and numerical evaluation of spectral PAC-Bayesian complexity
terms. Everything is seeded and reproducible down to the emitted bytes.
"""

import os as _os

# The matrices here are tiny; BLAS thread pools only add scheduler noise
# (and wreck wall-clock comparisons on small machines). Pin them to one
# thread before numpy loads, with a runtime fallback if it already has.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

import sys as _sys

if "numpy" in _sys.modules:
    try:
        import threadpoolctl as _threadpoolctl

        _threadpoolctl.threadpool_limits(limits=1)
    except ImportError:
        pass

from .attacks import AttackSpec, pgd
from .bounds import BOUND_KINDS, BoundInputs, BoundReport, evaluate_bound
from .data import Dataset, batches, load_idx, split_blobs, synth_blobs
from .decorr import (
    DecorrConfig,
    decorr_penalty,
    hessian_kron_factors,
    normalized_precision,
    penalty_and_grad,
)
from .network import Layer, Network, forward, backward, input_gradient, load_checkpoint, save_checkpoint
from .train import RunConfig, RunRecord, evaluate, train
from .weight_stats import (
    LayerCorrStats,
    SamplingConfig,
    check_perturbation_bound,
    corr_from_laplace,
    corr_from_samples,
    sample_weight_perturbations,
    simulate_correlation_study,
)

__version__ = "0.1.0"
