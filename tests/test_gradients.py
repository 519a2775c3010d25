"""Finite-difference validation of every differentiable loss path.

Each case draws a small random architecture, random parameters and a random
batch, then compares the analytic parameter gradient of each loss term
against central differences over every parameter entry.
"""

from dataclasses import replace

import numpy as np
import pytest
from gradcheck import fd_param_grad, relative_error

from sconelab.losses import (
    Hyperparams,
    alm_in,
    loss_in_grad,
    loss_out_grad,
    temporal_loss_grad,
)
from sconelab.model import (
    backward_from_logits,
    cross_entropy,
    energy,
    forward,
    forward_cached,
    init_params,
    softmax,
)
from sconelab.scores import (
    ScoreKind,
    diff_ac_grad_logits,
    diff_atc_grad_logits,
)
from sconelab.trainer import _epoch_temporal_term, _minibatch_loss_grads

STEP = 1e-4
TOL = 1e-4

# Interior-ramp hyperparameters: keep the sigmoids un-saturated and the
# temporal hinge away from its kinks so finite differences are clean.
HP = Hyperparams(eta=-2.0, delta_max=1.0, epsilon=0.01, omega=0.1, lambda_base=1.0)
# Past-cap hyperparameters: delta_max sits well below the total drift of 0.2
# that temporal_setup builds, so the temporal weight is clamped at
# 2*lambda_base and the penalty is 2*lambda_base*d_tot.
HP_PAST_CAP = replace(HP, delta_max=0.05)
MULT = 0.7


def _top_two_gap(params, x):
    p = softmax(forward(params, x))
    ordered = np.sort(p, axis=1)
    return float((ordered[:, -1] - ordered[:, -2]).min())


def random_case(seed):
    """Random architecture/batch with well-separated row maxima.

    The row-max score is only a.e. differentiable; cases are redrawn until
    every row's top-two softmax gap clears the finite-difference step by a
    wide margin, keeping the argmax stable under perturbation.
    """
    for attempt in range(50):
        r = np.random.default_rng((seed, attempt))
        d = int(r.integers(2, 5))
        k = int(r.integers(2, 5))
        hidden = tuple(int(h) for h in r.integers(3, 6, size=int(r.integers(1, 3))))
        params = init_params(d, k, hidden_sizes=hidden, rng=r)
        for w in params.layer_weights:
            w *= 3.0
        params.g_weight = float(r.uniform(0.5, 1.5))
        params.g_bias = float(r.uniform(-0.3, 0.3))
        x = r.normal(scale=1.5, size=(6, d))
        y = r.integers(0, k, size=6)
        x_cov = x + r.normal(scale=0.3, size=x.shape)
        if min(_top_two_gap(params, x), _top_two_gap(params, x_cov)) > 0.02:
            return r, params, x, y, x_cov
    raise RuntimeError(f"no tie-free case found for seed {seed}")


def analytic_ce(params, x, y):
    logits, acts = forward_cached(params, x)
    value, dz = cross_entropy(logits, y)
    return value, backward_from_logits(params, acts, dz)


def analytic_energy_loss(params, x, grad_fn):
    logits, acts = forward_cached(params, x)
    value, de, dgw, dgb = grad_fn(energy(logits), params, HP.eta)
    grads = backward_from_logits(params, acts, de[:, None] * (-softmax(logits)))
    grads.g_weight = dgw
    grads.g_bias = dgb
    return value, grads


def analytic_alm(params, x):
    logits, acts = forward_cached(params, x)
    l_in_v, de, dgw, dgb = loss_in_grad(energy(logits), params, HP.eta)
    value, w = alm_in(l_in_v, MULT, HP)
    grads = backward_from_logits(params, acts, (w * de)[:, None] * (-softmax(logits)))
    grads.g_weight = w * dgw
    grads.g_bias = w * dgb
    return value, grads


def probe_score(params, x, mode, kind, delta):
    """The temporal term's probe score of x, from the logits."""
    if mode == "atc":
        return diff_atc_grad_logits(forward(params, x), kind, delta, HP.omega)[0]
    return diff_ac_grad_logits(forward(params, x))[0]


def temporal_setup(params, x_in, x_cov, mode, kind, delta):
    """Previous scores placed so both hinges are active and interior."""
    s_in = probe_score(params, x_in, mode, kind, delta)
    s_cov = probe_score(params, x_cov, mode, kind, delta)
    return s_in + 0.1, s_cov - 0.1


def analytic_temporal(params, x_in, x_cov, prev_scores, mode, kind, delta, hp=HP):
    logits_in, acts_in = forward_cached(params, x_in)
    logits_cov, acts_cov = forward_cached(params, x_cov)
    if mode == "atc":
        s_in, dz_in = diff_atc_grad_logits(logits_in, kind, delta, HP.omega)
        s_cov, dz_cov = diff_atc_grad_logits(logits_cov, kind, delta, HP.omega)
    else:
        s_in, dz_in = diff_ac_grad_logits(logits_in)
        s_cov, dz_cov = diff_ac_grad_logits(logits_cov)
    value, _, _, _, dl_in, dl_cov = temporal_loss_grad(prev_scores, s_in, s_cov, hp)
    grads = params.zeros_like()
    if dl_in:
        grads.vec += backward_from_logits(params, acts_in, dl_in * dz_in).vec
    if dl_cov:
        grads.vec += backward_from_logits(params, acts_cov, dl_cov * dz_cov).vec
    return value, grads


def numeric_temporal_fn(x_in, x_cov, prev_scores, mode, kind, delta, hp=HP):
    def fn(p):
        s_in = probe_score(p, x_in, mode, kind, delta)
        s_cov = probe_score(p, x_cov, mode, kind, delta)
        value, _, _, _, _, _ = temporal_loss_grad(prev_scores, s_in, s_cov, hp)
        return value

    return fn


def check_case(seed):
    """Returns {loss name: relative error} for one random case."""
    r, params, x, y, x_cov = random_case(seed)
    delta = float(r.uniform(0.35, 0.75))
    errors = {}

    _, grads = analytic_ce(params, x, y)
    errors["cross_entropy"] = relative_error(
        grads.vec, fd_param_grad(lambda p: cross_entropy(forward(p, x), y)[0], params, STEP)
    )

    _, grads = analytic_energy_loss(params, x, loss_in_grad)
    errors["loss_in"] = relative_error(
        grads.vec,
        fd_param_grad(lambda p: loss_in_grad(energy(forward(p, x)), p, HP.eta)[0], params, STEP),
    )

    _, grads = analytic_energy_loss(params, x, loss_out_grad)
    errors["loss_out"] = relative_error(
        grads.vec,
        fd_param_grad(lambda p: loss_out_grad(energy(forward(p, x)), p, HP.eta)[0], params, STEP),
    )

    _, grads = analytic_alm(params, x)
    errors["alm_in"] = relative_error(
        grads.vec,
        fd_param_grad(
            lambda p: alm_in(loss_in_grad(energy(forward(p, x)), p, HP.eta)[0], MULT, HP)[0],
            params,
            STEP,
        ),
    )

    errors.update(temporal_errors(params, x, x_cov, delta, HP))
    return errors


TEMPORAL_CASES = (
    ("temporal_atc_maxconf", "atc", ScoreKind.MAX_CONFIDENCE),
    ("temporal_atc_negent", "atc", ScoreKind.NEG_ENTROPY),
    ("temporal_ac", "ac", ScoreKind.MAX_CONFIDENCE),
)


def temporal_errors(params, x, x_cov, delta, hp):
    """Returns {temporal label: relative error} under the given hyperparameters."""
    errors = {}
    for label, mode, kind in TEMPORAL_CASES:
        prev_scores = temporal_setup(params, x, x_cov, mode, kind, delta)
        value, grads = analytic_temporal(params, x, x_cov, prev_scores, mode, kind, delta, hp=hp)
        assert value > 0.0  # both hinges active by construction
        errors[label] = relative_error(
            grads.vec,
            fd_param_grad(
                numeric_temporal_fn(x, x_cov, prev_scores, mode, kind, delta, hp=hp), params, STEP
            ),
        )
    return errors


def run_gradient_suite(num_cases=100, seed0=100):
    """Worst relative error per loss term over num_cases random cases."""
    worst = {}
    for case in range(num_cases):
        for name, err in check_case(seed0 + case).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def test_gradient_suite_all_terms():
    worst = run_gradient_suite(num_cases=30)
    assert set(worst) == {
        "cross_entropy",
        "loss_in",
        "loss_out",
        "alm_in",
        "temporal_atc_maxconf",
        "temporal_atc_negent",
        "temporal_ac",
    }
    for name, err in worst.items():
        assert err <= TOL, f"{name}: relative error {err:.3e} exceeds {TOL}"


def test_temporal_gradient_past_drift_cap():
    """Past delta_max the analytic temporal gradient still matches finite
    differences of the value the loss reports."""
    worst = {}
    for case in range(30):
        r, params, x, _, x_cov = random_case(100 + case)
        delta = float(r.uniform(0.35, 0.75))
        for name, err in temporal_errors(params, x, x_cov, delta, HP_PAST_CAP).items():
            worst[name] = max(worst.get(name, 0.0), err)
    assert set(worst) == {label for label, _, _ in TEMPORAL_CASES}
    for name, err in worst.items():
        assert err <= TOL, f"{name} past the cap: relative error {err:.3e} exceeds {TOL}"


def test_minibatch_composite_gradient():
    """The trainer's per-minibatch gradient matches finite differences of the
    composed objective it reports."""
    for seed in range(5):
        r, params, x, y, _ = random_case(500 + seed)
        wild = r.normal(scale=1.5, size=(7, params.input_dim))

        def composite(p):
            ce, _ = cross_entropy(forward(p, x), y)
            l_in_v = loss_in_grad(energy(forward(p, x)), p, HP.eta)[0]
            l_out_v = loss_out_grad(energy(forward(p, wild)), p, HP.eta)[0]
            return ce + HP.lambda_out * l_out_v + alm_in(l_in_v, MULT, HP)[0]

        ce, l_in_v, l_out_v, alm_v, grads = _minibatch_loss_grads(params, x, y, wild, MULT, HP)
        assert ce + HP.lambda_out * l_out_v + alm_v == pytest.approx(composite(params), abs=1e-12)
        err = relative_error(grads.vec, fd_param_grad(composite, params, STEP))
        assert err <= TOL, f"composite relative error {err:.3e}"


def test_epoch_temporal_term_matches_finite_differences():
    """The trainer's epoch-level temporal gradient is the analytic one."""
    r, params, x, y, x_cov = random_case(900)
    delta = 0.6
    prev_scores = temporal_setup(params, x, x_cov, "atc", ScoreKind.MAX_CONFIDENCE, delta)

    class FakeSplits:
        probe_in = x
        probe_cov = x_cov

    l_temp, w_temp, d_id, d_cov, grad = _epoch_temporal_term(
        params, FakeSplits, prev_scores, HP, "atc", ScoreKind.MAX_CONFIDENCE, delta
    )
    assert l_temp > 0 and d_id > 0 and d_cov > 0
    numeric = fd_param_grad(
        numeric_temporal_fn(x, x_cov, prev_scores, "atc", ScoreKind.MAX_CONFIDENCE, delta),
        params,
        STEP,
    )
    assert relative_error(grad.vec, numeric) <= TOL
