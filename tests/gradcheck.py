"""Central finite-difference gradients over the full parameter structure,
shared by the gradient tests and the acceptance suite."""

import numpy as np

from sconelab.model import ModelParams


def fd_param_grad(fn, params: ModelParams, step: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar fn(params) over every entry of params.vec."""
    theta = params.vec
    grad = np.zeros_like(theta)
    probe = params.copy()
    for i in range(theta.size):
        probe.vec[i] = theta[i] + step
        up = fn(probe)
        probe.vec[i] = theta[i] - step
        dn = fn(probe)
        probe.vec[i] = theta[i]
        grad[i] = (up - dn) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm error of the gradient vector, relative to its scale."""
    gap = np.abs(analytic - numeric).max()
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(gap / scale)
