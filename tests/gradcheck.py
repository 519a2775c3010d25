"""Central finite-difference gradients over the full parameter structure,
shared by the gradient tests and the acceptance suite."""

import numpy as np

from sconelab.model import ModelParams


def flatten_params(p: ModelParams) -> np.ndarray:
    return p.flatten()


def unflatten_params(template: ModelParams, vec: np.ndarray) -> ModelParams:
    return template.unflatten(vec)


def fd_param_grad(fn, params: ModelParams, step: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar fn(params) over every entry."""
    theta = flatten_params(params)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (fn(unflatten_params(params, up)) - fn(unflatten_params(params, dn))) / (
            2.0 * step
        )
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm error of the gradient vector, relative to its scale."""
    gap = np.abs(analytic - numeric).max()
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(gap / scale)
