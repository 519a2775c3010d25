"""Training loss terms and their composition.

The energy margins are the squared hinges of Liu et al., "Energy-based
Out-of-distribution Detection" (NeurIPS 2020): the in-distribution term is
mean max(0, E - m_in)^2, which pushes ID energies below m_in, and the wild
term is mean max(0, m_out - E)^2, which pushes wild energies above m_out.
Both are one signed function, _margin_grad, under two public names, and
each enters the objective with a fixed weight, lambda_in and lambda_out, as
in Liu et al. Each term is one function that returns its value with its
derivatives. The functions here are stateless: the anchor, the scores of
the previous timestep's probes, is a pair of plain floats that the
trainer computes and passes in.

The temporal term has two parts. drift measures how far the ID probe
score fell below, and the covariate probe score rose above, its anchor
value; every method measures it. temporal_loss_grad is the penalty on it,
for the methods that train one: zero while total drift stays within the
tolerance, then with an adaptive weight that ramps from lambda_base to
2*lambda_base as total drift approaches delta_max and holds there, so the
penalty grows as 2*lambda_base*d_tot past it. adaptive_weight(d_tot)
returns the weight and the slope of w*d_tot, product-rule term included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knobs import check_knobs, knob


@dataclass(frozen=True)
class Hyperparams:
    """Scalar knobs of the energy margins and the temporal penalty.

    m_in and m_out are the margins of the ID and wild hinges, and lambda_in
    and lambda_out their fixed weights in the objective; lambda_in = 0 with
    lambda_out = 0 trains cross-entropy alone.
    """

    m_in: float = knob(-7.0, "(-inf, inf)")
    m_out: float = knob(-3.0, "(-inf, inf)")
    lambda_out: float = knob(1.0, "[0, inf)")
    lambda_in: float = knob(3.0, "[0, inf)")
    lambda_base: float = knob(1.0, "[0, inf)")
    delta_max: float = knob(0.2, "(0, inf]")
    epsilon: float = knob(0.02, "[0, inf]")
    omega: float = knob(0.05, "(0, inf)")

    def __post_init__(self):
        check_knobs(self)
        if self.m_in >= self.m_out:
            raise ValueError(f"m_in must be below m_out, got {self.m_in} and {self.m_out}")


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    l_in: float
    l_out: float
    l_temp: float
    w_temp: float
    total: float


def _margin_grad(energies: np.ndarray, margin: float, side: float):
    """Mean max(0, side * (E - margin))^2 and its d/dE vector; side = +1 is
    the ID term, -1 the wild term. The slope is 0 at the margin itself."""
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        raise ValueError("empty energy batch")
    excess = np.maximum(side * (e - margin), 0.0)
    return float(np.mean(excess * excess)), (2.0 * side / e.size) * excess


def loss_in_grad(energies_id: np.ndarray, hp: Hyperparams):
    """Mean max(0, E - m_in)^2 over an ID batch, zero once every E sits at or
    below m_in; returns (value, d/dE vector)."""
    return _margin_grad(energies_id, hp.m_in, 1.0)


def loss_out_grad(energies_wild: np.ndarray, hp: Hyperparams):
    """Mean max(0, m_out - E)^2 over a wild batch, zero once every E sits at
    or above m_out; returns (value, d/dE vector)."""
    return _margin_grad(energies_wild, hp.m_out, -1.0)


def adaptive_weight(d_tot: float, hp: Hyperparams) -> tuple[float, float]:
    """Drift-dependent weight w = lambda_base * (1 + min(d_tot / delta_max, 1))
    and the slope d(w*d_tot)/d d_tot; returns (w, slope).

    The weight grows linearly from lambda_base to 2*lambda_base as total
    drift approaches delta_max, applying stronger correction for larger
    drift, and holds at 2*lambda_base beyond it. At d_tot == delta_max the
    slope is the one-sided value from above, 2*lambda_base.
    """
    ramp = d_tot / hp.delta_max
    if ramp < 1.0:
        return hp.lambda_base * (1.0 + ramp), hp.lambda_base * (1.0 + 2.0 * ramp)
    return 2.0 * hp.lambda_base, 2.0 * hp.lambda_base


def drift(anchor: tuple[float, float], s_in: float, s_cov: float) -> tuple[float, float]:
    """(d_id, d_cov) >= 0: how far the ID probe score fell below, and the
    covariate probe score rose above, its anchor value. anchor holds the
    previous timestep's (ID, covariate) probe scores under the model that
    entered this timestep, constants through which no gradient flows."""
    prev_in, prev_cov = anchor
    return max(0.0, prev_in - s_in), max(0.0, s_cov - prev_cov)


def temporal_loss_grad(d_id: float, d_cov: float, hp: Hyperparams):
    """Temporal drift penalty of drift's (d_id, d_cov) and its score
    slopes; returns (l_temp, w_temp, d l_temp/d s_in, d l_temp/d s_cov).

    With d_tot = d_id + d_cov, dl/dd_tot is 0 within epsilon,
    lambda_base*(1 + 2*d_tot/delta_max) on the ramp and 2*lambda_base from
    delta_max on. d l/d s_in is -dl/dd_tot while d_id > 0, and d l/d s_cov
    is +dl/dd_tot while d_cov > 0; both are 0 otherwise.
    """
    d_tot = d_id + d_cov
    if d_tot <= hp.epsilon:
        return 0.0, 0.0, 0.0, 0.0
    w, dl_dd = adaptive_weight(d_tot, hp)
    return w * d_tot, w, -dl_dd if d_id > 0.0 else 0.0, dl_dd if d_cov > 0.0 else 0.0


def total_loss(
    hp: Hyperparams,
    ce: float,
    l_in: float = 0.0,
    l_out: float = 0.0,
    l_temp: float = 0.0,
    w_temp: float = 0.0,
) -> LossBreakdown:
    """Compose the per-step objective ce + lambda_in*l_in + lambda_out*l_out + l_temp.

    The terms come in LossBreakdown's field order. l_temp already carries
    its adaptive weight w_temp, so w_temp is recorded but not added again.
    """
    parts = (ce, l_in, l_out, l_temp)
    if not all(np.isfinite(parts)):
        raise FloatingPointError(f"non-finite loss part: {parts}")
    total = ce + hp.lambda_in * l_in + hp.lambda_out * l_out + l_temp
    return LossBreakdown(ce, l_in, l_out, l_temp, w_temp, total)
