"""Desk-scale adversarial training laboratory.

Feed-forward ReLU networks with exact reverse-mode gradients, white-box
attacks, a weight-decorrelation regularizer backed by a Kronecker-factored
Laplace estimate of the activation covariance, second-order weight
statistics, and numerical evaluation of spectral PAC-Bayesian complexity
terms. Everything is seeded and reproducible down to the emitted bytes.

Importing the package only pins the BLAS thread pools to one thread; the
API lives in the submodules (`advlab.network`, `advlab.train`, ...).
"""

import os as _os
import sys as _sys

# The matrices here are tiny; BLAS thread pools only add scheduler noise
# (and wreck wall-clock comparisons on small machines), and a pool's
# summation order moves the Laplace stats' low-order bits. Pin them to one
# thread, whatever the environment says. The variables reach a BLAS that
# loads after this.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ[_var] = "1"

# An OpenBLAS that numpy or scipy.linalg has already loaded (the one its wheel
# bundles) is set through its own setter, found through the extension module
# that links it. Another BLAS exports no such symbol and keeps its pool.
for _module, _setter in (("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_"),
                         ("scipy.linalg._flapack", "scipy_openblas_set_num_threads")):
    if _module in _sys.modules:
        import ctypes as _ctypes

        _set = getattr(_ctypes.CDLL(_sys.modules[_module].__file__), _setter, None)
        if _set is not None:
            _set(1)

__version__ = "0.1.0"
