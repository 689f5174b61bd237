"""Python-API refusals, one table row each: the call and the ValueError message it must raise."""

import os
import re

import numpy as np
import pytest

from advlab.data import Dataset, write_idx_images
from advlab.linalg import as_matrix, equicorrelation
from advlab.network import Network, loss_logit_grad
from advlab.train import STATS_CONFIGS, build_variant
from advlab.weight_stats import (SamplingConfig, corr_from_laplace, corr_from_samples, sample_weight_perturbations,
                                 simulate_correlation_study)


def two_layer_net():
    return Network.he_init([3, 4, 2], seed=0)


def blobs(rows):
    return Dataset(np.full((rows, 3), 0.5), np.zeros(rows, dtype=int), 2, "blobs")


REFUSALS = {
    "dataset-1d-inputs": (lambda: Dataset(np.zeros(3), [0, 1, 0], 2, "flat"), "inputs must be 2-D, got ndim=1"),
    "idx-images-2d": (lambda: write_idx_images(os.devnull, np.zeros((2, 3), dtype=int)),
                      "images must have shape (count, rows, cols)"),
    "matrix-no-rows": (lambda: as_matrix(np.zeros((0, 3))), "matrix must have positive dimensions, got (0, 3)"),
    "equicorrelation-dim-0": (lambda: equicorrelation(0, 0.5), "dim must be >= 1, got 0"),
    "equicorrelation-not-psd": (lambda: equicorrelation(3, -0.6), "r=-0.6 outside the PSD range for dim=3"),
    "network-no-layers": (lambda: Network([]), "network needs at least one layer"),
    "with-weights-count": (lambda: two_layer_net().with_weights([]), "weight count does not match layer count"),
    "he-init-one-dim": (lambda: Network.he_init([3], seed=0), "need at least input and output dims"),
    "loss-kind": (lambda: loss_logit_grad("hinge", [[0.0, 1.0]], [0]), "unknown loss kind 'hinge'"),
    "stats-config-list": (lambda: build_variant(STATS_CONFIGS, "method", [], "stats"),
                          "stats config [] is not an object"),
    "sampling-layer-above-depth": (
        lambda: sample_weight_perturbations(two_layer_net(), blobs(4), SamplingConfig(num_samples=2, layers=(3,))),
        "layers (3,) out of range"),
    "one-weight-sample": (lambda: corr_from_samples([[np.ones((4, 4)), np.ones((2, 5))]], 2),
                          "need at least 2 weight samples"),
    "laplace-empty-dataset": (lambda: corr_from_laplace(two_layer_net(), blobs(0), 2), "dataset is empty"),
    "study-family": (lambda: simulate_correlation_study(dim=3, n_samples=4, family="wishart"),
                     "unknown family 'wishart'"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refuses_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
