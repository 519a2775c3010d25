"""Central finite-difference gradients over a float vector or the full
parameter structure, shared by the gradient tests and the acceptance suite."""

import numpy as np

from sconelab.model import ModelParams


def fd_grad(fn, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar fn(x) over every entry of the float
    vector x, which is perturbed in place one entry at a time and restored."""
    grad = np.zeros(x.size)
    for i in range(x.size):
        saved = x[i]
        x[i] = saved + step
        up = fn(x)
        x[i] = saved - step
        dn = fn(x)
        x[i] = saved
        grad[i] = (up - dn) / (2.0 * step)
    return grad


def fd_param_grad(fn, params: ModelParams, step: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar fn(params) over every entry of params.vec."""
    probe = params.copy()
    return fd_grad(lambda _: fn(probe), probe.vec, step)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm error of the gradient vector, relative to its scale."""
    gap = np.abs(analytic - numeric).max()
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(gap / scale)
