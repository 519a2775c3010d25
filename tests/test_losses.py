from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconelab.losses import (
    Hyperparams,
    adaptive_weight,
    drift,
    loss_in_grad,
    loss_out_grad,
    temporal_loss_grad,
    total_loss,
)


def hp(**kwargs):
    return Hyperparams(**kwargs)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match=r"m_in must be below m_out, got -3.0 and -3.0"):
        hp(m_in=-3.0)
    with pytest.raises(ValueError, match=r"m_in must be below m_out, got -2.0 and -3.0"):
        hp(m_in=-2.0)
    with pytest.raises(ValueError, match=r"m_out must be in \(-inf, inf\), got nan"):
        hp(m_out=np.nan)
    with pytest.raises(ValueError):
        hp(omega=0.0)
    with pytest.raises(ValueError):
        hp(lambda_in=-1.0)


def test_loss_in_at_margin():
    h = hp()
    value, d_e = loss_in_grad(np.full(8, h.m_in), h)
    assert value == 0.0 and not d_e.any()


def test_loss_in_deep_margin_saturation():
    # the hinge is flat below its margin: no loss and no slope, however deep
    h = hp()
    value, d_e = loss_in_grad(np.full(8, h.m_in - 20.0), h)
    assert value == 0.0 and not d_e.any()


def test_loss_in_matches_scalar_loop_oracle():
    r = np.random.default_rng(1)
    energies = r.normal(-7.0, 2.0, size=32)
    h = hp(m_in=-6.5, m_out=-2.0)
    # independent per-sample reimplementation
    acc, slopes = 0.0, []
    for e in energies:
        excess = e + 6.5 if e > -6.5 else 0.0
        acc += excess**2
        slopes.append(2.0 * excess / 32)
    value, d_e = loss_in_grad(energies, h)
    assert 0.0 < value == pytest.approx(acc / 32, abs=1e-12)
    assert d_e == pytest.approx(slopes, abs=1e-12)


def test_loss_out_at_margin_and_saturation():
    h = hp()
    for energies in (np.full(4, h.m_out), np.full(4, h.m_out + 20.0)):
        value, d_e = loss_out_grad(energies, h)
        assert value == 0.0 and not d_e.any()
    # below the margin the wild term grows as the squared shortfall
    value, d_e = loss_out_grad(np.full(4, h.m_out - 2.0), h)
    assert value == 4.0 and (d_e == -1.0).all()


def _bits(result):
    return [np.asarray(v, dtype=float).tobytes() for v in result]


@given(
    st.lists(st.floats(min_value=-60, max_value=60), min_size=1, max_size=20),
    st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_loss_out_is_loss_in_of_the_negated_energies(energies, m_out):
    """Bit for bit, the wild term at margin m is the ID term of the negated
    energies at margin -m, with its energy slope negated."""
    e = np.array(energies)
    value, d_e = loss_in_grad(-e, SimpleNamespace(m_in=-m_out))
    assert _bits(loss_out_grad(e, SimpleNamespace(m_out=m_out))) == _bits((value, -d_e))


def test_empty_energy_batches_rejected():
    with pytest.raises(ValueError):
        loss_in_grad(np.array([]), hp())
    with pytest.raises(ValueError):
        loss_out_grad(np.array([]), hp())


def test_adaptive_weight_floor_cap_midpoint():
    h = hp(lambda_base=1.0, delta_max=0.2)
    # (w, d(w*d_tot)/d d_tot): the slope carries the product-rule term on the ramp
    assert adaptive_weight(0.0, h) == pytest.approx((1.0, 1.0))
    assert adaptive_weight(0.4, h) == pytest.approx((2.0, 2.0))
    assert adaptive_weight(0.1, h) == pytest.approx((1.5, 2.0))


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_adaptive_weight_monotone_and_bounded(d_id, d_cov, bump):
    h = hp(lambda_base=2.0, delta_max=0.3)
    w = adaptive_weight(d_id + d_cov, h)[0]
    assert h.lambda_base <= w <= 2.0 * h.lambda_base
    assert adaptive_weight((d_id + bump) + d_cov, h)[0] >= w
    assert adaptive_weight(d_id + (d_cov + bump), h)[0] >= w


def test_temporal_loss_favorable_drift_is_free():
    d_id, d_cov = drift((0.9, 0.5), 0.95, 0.45)
    assert (d_id, d_cov) == (0.0, 0.0)
    assert temporal_loss_grad(d_id, d_cov, hp()) == (0.0, 0.0, 0.0, 0.0)


def test_temporal_loss_hinge_arithmetic():
    h = hp(epsilon=0.05, lambda_base=1.0, delta_max=0.2)
    d_id, d_cov = drift((0.9, 0.5), 0.8, 0.6)
    l, w = temporal_loss_grad(d_id, d_cov, h)[:2]
    assert d_id == pytest.approx(0.1) and d_cov == pytest.approx(0.1)
    assert w == pytest.approx(adaptive_weight(0.1 + 0.1, h)[0])
    assert l == pytest.approx(w * 0.2)


def test_temporal_loss_past_cap_arithmetic():
    # d_id = 0.3 and d_cov = 0.1 put d_tot = 0.4 past delta_max = 0.2: the
    # weight holds at 2*lambda_base and the penalty keeps growing with d_tot.
    h = hp(epsilon=0.05, lambda_base=1.0, delta_max=0.2)
    d_id, d_cov = drift((0.9, 0.5), 0.6, 0.6)
    l, w, dl_in, dl_cov = temporal_loss_grad(d_id, d_cov, h)
    assert d_id == pytest.approx(0.3) and d_cov == pytest.approx(0.1)
    assert w == pytest.approx(2.0)
    assert l == pytest.approx(0.8)
    assert dl_in == pytest.approx(-2.0) and dl_cov == pytest.approx(2.0)


def test_temporal_loss_gated_below_tolerance():
    h = hp(epsilon=0.25)
    d_id, d_cov = drift((0.9, 0.5), 0.8, 0.6)
    l, w = temporal_loss_grad(d_id, d_cov, h)[:2]
    assert l == 0.0 and w == 0.0
    assert d_id == pytest.approx(0.1) and d_cov == pytest.approx(0.1)


def test_total_loss_composition():
    h = hp(lambda_out=0.5, lambda_in=2.0)
    assert total_loss(h, 0.0, 0.0, 0.0, 0.0, 0.0).total == 0.0
    bd = total_loss(h, 1.0, 0.25, 0.4, 0.1, 0.0)
    assert bd.total == pytest.approx(1.0 + 2.0 * 0.25 + 0.5 * 0.4 + 0.1)


def test_total_loss_reconstruction_invariant():
    h = hp(lambda_out=0.7, lambda_in=2.5)
    bd = total_loss(h, 0.83, 0.4, 0.21, 0.0123, 1.5)
    rebuilt = bd.ce + h.lambda_in * bd.l_in + h.lambda_out * bd.l_out + bd.l_temp
    assert abs(rebuilt - bd.total) <= 1e-12


def test_total_loss_zero_temporal_weight_reduces_to_baseline_objective():
    h0 = hp(lambda_base=0.0)
    bd = total_loss(h0, 0.8, 0.2, 0.3, 0.0, 0.0)
    assert bd.total == pytest.approx(0.8 + h0.lambda_in * 0.2 + h0.lambda_out * 0.3)
    assert bd.l_temp == 0.0


def test_total_loss_rejects_nonfinite_parts():
    for term in range(4):  # ce, l_in, l_out, l_temp: every term the total adds
        parts = [0.0] * 4
        parts[term] = np.nan
        with pytest.raises(FloatingPointError):
            total_loss(hp(), *parts)
