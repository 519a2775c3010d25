from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sconelab.losses import (
    Hyperparams,
    adaptive_weight,
    alm_in,
    loss_in_grad,
    loss_out_grad,
    temporal_loss_grad,
    total_loss,
    update_multipliers,
)
from sconelab.model import init_params


@pytest.fixture
def identity_head():
    return init_params(3, 2, rng=np.random.default_rng(0))  # g_weight=1, g_bias=0


def hp(**kwargs):
    return Hyperparams(**kwargs)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match=r"eta must be in \(-inf, 0\), got 1.0"):
        hp(eta=1.0)
    with pytest.raises(ValueError):
        hp(omega=0.0)
    with pytest.raises(ValueError):
        hp(fpr_cutoff=1.0)


def test_loss_in_at_margin(identity_head):
    eta = -5.0
    assert loss_in_grad(np.full(8, eta), identity_head, eta)[0] == pytest.approx(0.5)


def test_loss_in_deep_margin_saturation(identity_head):
    eta = -5.0
    value = loss_in_grad(np.full(8, eta - 20.0), identity_head, eta)[0]
    assert value == pytest.approx(expit(-20.0), rel=1e-6)
    assert value < 1e-8


def test_loss_in_matches_scalar_loop_oracle(identity_head):
    r = np.random.default_rng(1)
    energies = r.normal(-3.0, 2.0, size=32)
    eta = -4.0
    identity_head.g_weight = 1.3
    identity_head.g_bias = -0.2
    # independent per-sample reimplementation
    acc = 0.0
    for e in energies:
        u = 1.3 * (e - eta) - 0.2
        acc += 1.0 / (1.0 + np.exp(-u))
    assert loss_in_grad(energies, identity_head, eta)[0] == pytest.approx(acc / 32, abs=1e-12)


def test_loss_out_at_margin_and_saturation(identity_head):
    eta = -5.0
    assert loss_out_grad(np.full(4, eta), identity_head, eta)[0] == pytest.approx(0.5)
    assert loss_out_grad(np.full(4, eta + 20.0), identity_head, eta)[0] < 1e-8


def test_loss_in_plus_loss_out_is_one(identity_head):
    r = np.random.default_rng(2)
    energies = r.normal(size=16)
    eta = -2.0
    total = (
        loss_in_grad(energies, identity_head, eta)[0]
        + loss_out_grad(energies, identity_head, eta)[0]
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_sigmoid_symmetry_property(energies):
    head = init_params(2, 2, rng=np.random.default_rng(3))
    e = np.array(energies)
    total = loss_in_grad(e, head, -1.0)[0] + loss_out_grad(e, head, -1.0)[0]
    assert total == pytest.approx(1.0, abs=1e-9)


def _bits(result):
    return [np.asarray(v, dtype=float).tobytes() for v in result]


@given(
    st.lists(st.floats(min_value=-60, max_value=60), min_size=1, max_size=20),
    st.floats(min_value=-20, max_value=-1e-3),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_loss_out_is_loss_in_of_the_negated_head(energies, eta, g_weight, g_bias):
    """Bit for bit, the wild term under a head is the ID term under the
    negated head with its two head derivatives negated."""
    e = np.array(energies)
    head = SimpleNamespace(g_weight=g_weight, g_bias=g_bias)
    negated = SimpleNamespace(g_weight=-g_weight, g_bias=-g_bias)
    value, d_e, d_gw, d_gb = loss_in_grad(e, negated, eta)
    assert _bits(loss_out_grad(e, head, eta)) == _bits((value, d_e, -d_gw, -d_gb))


def test_empty_energy_batches_rejected(identity_head):
    with pytest.raises(ValueError):
        loss_in_grad(np.array([]), identity_head, -5.0)
    with pytest.raises(ValueError):
        loss_out_grad(np.array([]), identity_head, -5.0)


def test_alm_in_satisfied_constraint_is_zero():
    h = hp(fpr_cutoff=0.05, lambda_in=4.0)
    assert alm_in(0.05, 3.0, h)[0] == pytest.approx(0.0)


def test_alm_in_direct_arithmetic():
    h = hp(fpr_cutoff=0.05, lambda_in=4.0)
    # c = 0.1: 2*0.1 + 2*0.01 = 0.22
    assert alm_in(0.15, 2.0, h) == pytest.approx((0.22, 2.4))


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
    l, w, d_id, d_cov = temporal_loss_grad((0.9, 0.5), 0.95, 0.45, hp())[:4]
    assert (l, w, d_id, d_cov) == (0.0, 0.0, 0.0, 0.0)


def test_temporal_loss_hinge_arithmetic():
    h = hp(epsilon=0.05, lambda_base=1.0, delta_max=0.2)
    l, w, d_id, d_cov = temporal_loss_grad((0.9, 0.5), 0.8, 0.6, h)[:4]
    assert d_id == pytest.approx(0.1) and d_cov == pytest.approx(0.1)
    assert w == pytest.approx(adaptive_weight(0.1 + 0.1, h)[0])
    assert l == pytest.approx(w * 0.2)


def test_temporal_loss_past_cap_arithmetic():
    # d_id = 0.3 and d_cov = 0.1 put d_tot = 0.4 past delta_max = 0.2: the
    # weight holds at 2*lambda_base and the penalty keeps growing with d_tot.
    h = hp(epsilon=0.05, lambda_base=1.0, delta_max=0.2)
    l, w, d_id, d_cov, dl_in, dl_cov = temporal_loss_grad((0.9, 0.5), 0.6, 0.6, h)
    assert d_id == pytest.approx(0.3) and d_cov == pytest.approx(0.1)
    assert w == pytest.approx(2.0)
    assert l == pytest.approx(0.8)
    assert dl_in == pytest.approx(-2.0) and dl_cov == pytest.approx(2.0)


def test_temporal_loss_gated_below_tolerance():
    h = hp(epsilon=0.25)
    l, w, d_id, d_cov = temporal_loss_grad((0.9, 0.5), 0.8, 0.6, h)[:4]
    assert l == 0.0 and w == 0.0
    assert d_id == pytest.approx(0.1) and d_cov == pytest.approx(0.1)


def test_total_loss_composition():
    h = hp(lambda_out=0.5)
    assert total_loss(h, 0.0, 0.0, 0.0, 0.0, 0.0).total == 0.0
    bd = total_loss(h, 1.0, 0.0, 0.4, 0.1, 0.0)
    assert bd.total == pytest.approx(1.3)


def test_total_loss_reconstruction_invariant():
    h = hp(lambda_out=0.7)
    bd = total_loss(h, 0.83, 0.4, 0.21, 0.055, 0.0123, 1.5)
    rebuilt = bd.ce + h.lambda_out * bd.l_out + bd.alm_in + bd.l_temp
    assert abs(rebuilt - bd.total) <= 1e-12


def test_total_loss_zero_temporal_weight_reduces_to_baseline_objective():
    h0 = hp(lambda_base=0.0)
    bd = total_loss(h0, 0.8, 0.2, 0.3, 0.05, 0.0, 0.0)
    assert bd.total == pytest.approx(0.8 + h0.lambda_out * 0.3 + 0.05)
    assert bd.l_temp == 0.0


def test_total_loss_rejects_nonfinite_parts():
    with pytest.raises(FloatingPointError):
        total_loss(hp(), np.nan, 0.0, 0.0, 0.0, 0.0)


def test_update_multipliers_zero_violation():
    h = hp(fpr_cutoff=0.05, lr_lambda=1.0)
    assert update_multipliers(1.0, 0.05, h) == pytest.approx(1.0)


def test_update_multipliers_arithmetic_and_clipping():
    h = hp(fpr_cutoff=0.05, lr_lambda=1.0)
    assert update_multipliers(0.0, 0.10, h) == pytest.approx(0.05)
    assert update_multipliers(0.02, 0.0, h) == 0.0  # update of -0.03 clips at zero


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_multipliers_stay_nonnegative(l_in_value, lam):
    assert update_multipliers(lam, l_in_value, hp(lr_lambda=2.0)) >= 0.0


def test_multiplier_monotone_response():
    h = hp(lr_lambda=0.5)
    small = update_multipliers(1.0, 0.10, h)
    large = update_multipliers(1.0, 0.30, h)
    assert large > small
