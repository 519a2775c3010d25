"""Finite-difference validation of every differentiable loss path.

Each case draws a small random architecture, random parameters and a random
batch, then compares the analytic parameter gradient of each loss term
against central differences over every parameter entry.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from gradcheck import fd_grad, fd_param_grad, relative_error

from sconelab.losses import (
    Hyperparams,
    drift,
    loss_in_grad,
    loss_out_grad,
    temporal_loss_grad,
    total_loss,
)
from sconelab.model import (
    backward_from_logits,
    cross_entropy,
    energy,
    forward,
    forward_cached,
    init_params,
    log_softmax_energy,
)
from sconelab.scores import (
    ScoreKind,
    diff_ac_grad_logits,
    diff_atc_grad_logits,
)
from sconelab.trainer import (
    METHOD_TEMP_ATC,
    RunConfig,
    _epoch_temporal_term,
    _minibatch_loss_grads,
)

STEP = 1e-4
TOL = 1e-4

# Interior-ramp hyperparameters: keep the temporal hinge away from its kinks
# so finite differences are clean. Each case places the energy margins
# between energies of its own batches (straddling_hp). The two hinge weights
# differ, so a weight applied to the wrong term shows.
HP = Hyperparams(delta_max=1.0, epsilon=0.01, omega=0.1, lambda_base=1.0, lambda_in=2.5)
# Past-cap hyperparameters: delta_max sits well below the total drift of 0.2
# that temporal_setup builds, so the temporal weight is clamped at
# 2*lambda_base and the penalty is 2*lambda_base*d_tot.
HP_PAST_CAP = replace(HP, delta_max=0.05)


def _top_two_gap(params, x):
    p = np.exp(log_softmax_energy(forward(params, x))[0])
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


def straddling_hp(e_in, e_wild, hp=HP):
    """hp with m_in halfway between the 2nd and 3rd lowest of e_in and m_out
    halfway between the 2nd and 3rd highest of e_wild: each hinge has
    energies on both sides, none within half an energy gap of its kink."""
    lo, hi = np.sort(e_in), np.sort(e_wild)
    out = replace(hp, m_in=(lo[1] + lo[2]) / 2, m_out=(hi[-3] + hi[-2]) / 2)
    for e, margin in ((e_in, out.m_in), (e_wild, out.m_out)):
        assert (e < margin).any() and (e > margin).any()
    return out


def analytic_energy_loss(params, x, grad_fn, hp, weight=1.0):
    """weight * the hinge grad_fn of x's energies, and its parameter gradient."""
    logits, acts = forward_cached(params, x)
    value, de = grad_fn(energy(logits), hp)
    dz = (weight * de)[:, None] * (-np.exp(log_softmax_energy(logits)[0]))
    return weight * value, backward_from_logits(params, acts, dz)


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


def analytic_temporal(params, x_in, x_cov, anchor, mode, kind, delta, hp=HP):
    logits_in, acts_in = forward_cached(params, x_in)
    logits_cov, acts_cov = forward_cached(params, x_cov)
    if mode == "atc":
        s_in, dz_in = diff_atc_grad_logits(logits_in, kind, delta, HP.omega)
        s_cov, dz_cov = diff_atc_grad_logits(logits_cov, kind, delta, HP.omega)
    else:
        s_in, dz_in = diff_ac_grad_logits(logits_in)
        s_cov, dz_cov = diff_ac_grad_logits(logits_cov)
    value, _, dl_in, dl_cov = temporal_loss_grad(*drift(anchor, s_in, s_cov), hp)
    grads = params.zeros_like()
    if dl_in:
        grads.vec += backward_from_logits(params, acts_in, dl_in * dz_in).vec
    if dl_cov:
        grads.vec += backward_from_logits(params, acts_cov, dl_cov * dz_cov).vec
    return value, grads


def numeric_temporal_fn(x_in, x_cov, anchor, mode, kind, delta, hp=HP):
    def fn(p):
        s_in = probe_score(p, x_in, mode, kind, delta)
        s_cov = probe_score(p, x_cov, mode, kind, delta)
        return temporal_loss_grad(*drift(anchor, s_in, s_cov), hp)[0]

    return fn


def check_case(seed):
    """Returns {loss name: relative error} for one random case."""
    r, params, x, y, x_cov = random_case(seed)
    delta = float(r.uniform(0.35, 0.75))
    e = energy(forward(params, x))
    hp = straddling_hp(e, e)
    errors = {}

    _, grads = analytic_ce(params, x, y)
    errors["cross_entropy"] = relative_error(
        grads.vec, fd_param_grad(lambda p: cross_entropy(forward(p, x), y)[0], params, STEP)
    )

    for name, grad_fn in (("loss_in", loss_in_grad), ("loss_out", loss_out_grad)):
        _, grads = analytic_energy_loss(params, x, grad_fn, hp)
        errors[name] = relative_error(
            grads.vec,
            fd_param_grad(lambda p: grad_fn(energy(forward(p, x)), hp)[0], params, STEP),
        )

    _, grads = analytic_energy_loss(params, x, loss_in_grad, hp, hp.lambda_in)
    errors["weighted_loss_in"] = relative_error(
        grads.vec,
        fd_param_grad(
            lambda p: hp.lambda_in * loss_in_grad(energy(forward(p, x)), hp)[0], params, STEP
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
        anchor = temporal_setup(params, x, x_cov, mode, kind, delta)
        value, grads = analytic_temporal(params, x, x_cov, anchor, mode, kind, delta, hp=hp)
        assert value > 0.0  # both hinges active by construction
        errors[label] = relative_error(
            grads.vec,
            fd_param_grad(
                numeric_temporal_fn(x, x_cov, anchor, mode, kind, delta, hp=hp), params, STEP
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
        "weighted_loss_in",
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


def test_hinge_energy_slope_matches_finite_differences():
    """Each hinge's d/dE matches central differences of its value, with
    energies on both sides of its margin."""
    offsets = np.array([-2.3, -0.7, -0.05, 0.04, 0.6, 1.9])
    for grad_fn, margin in ((loss_in_grad, HP.m_in), (loss_out_grad, HP.m_out)):
        e = margin + offsets
        value, d_e = grad_fn(e, HP)
        assert value > 0.0 and (d_e == 0.0).sum() == 3  # three energies on the flat side
        numeric = fd_grad(lambda v: grad_fn(v, HP)[0], e.copy(), STEP)
        assert relative_error(d_e, numeric) <= TOL


def test_hinge_slope_is_zero_on_the_margin():
    for grad_fn, margin in ((loss_in_grad, HP.m_in), (loss_out_grad, HP.m_out)):
        value, d_e = grad_fn(np.array([margin, margin - 1.0, margin + 1.0]), HP)
        assert value == pytest.approx(1.0 / 3.0)
        assert d_e[0] == 0.0 and np.count_nonzero(d_e) == 1


def test_minibatch_composite_gradient():
    """The trainer's per-minibatch gradient, with the epoch temporal term
    folded in, matches finite differences of the composed objective it
    reports, on the drift ramp and past the drift cap."""
    delta = 0.6
    kind = ScoreKind.MAX_CONFIDENCE
    for seed, base_hp in itertools.product(range(5), (HP, HP_PAST_CAP)):
        r, params, x, y, x_cov = random_case(500 + seed)
        wild = r.normal(scale=1.5, size=(7, params.input_dim))
        hp = straddling_hp(energy(forward(params, x)), energy(forward(params, wild)), base_hp)
        anchor = temporal_setup(params, x, x_cov, "atc", kind, delta)
        temporal = numeric_temporal_fn(x, x_cov, anchor, "atc", kind, delta, hp=hp)

        class FakeSplits:
            probe_in, probe_cov = x, x_cov

        def composite(p):
            ce, _ = cross_entropy(forward(p, x), y)
            l_in_v = loss_in_grad(energy(forward(p, x)), hp)[0]
            l_out_v = loss_out_grad(energy(forward(p, wild)), hp)[0]
            return ce + hp.lambda_in * l_in_v + hp.lambda_out * l_out_v + temporal(p)

        # one step per epoch, so the step takes the whole epoch temporal gradient
        cfg = RunConfig(hyper=hp, method=METHOD_TEMP_ATC, score_kind=kind)
        terms, grads = _minibatch_loss_grads(params, x, y, wild, hp)
        l_temp, _, _, _, g_temp = _epoch_temporal_term(params, FakeSplits, anchor, cfg, delta)
        assert l_temp > 0.0
        grads.vec += g_temp.vec
        reported = total_loss(hp, *terms, l_temp=l_temp).total
        assert reported == pytest.approx(composite(params), abs=1e-12)
        err = relative_error(grads.vec, fd_param_grad(composite, params, STEP))
        assert err <= TOL, f"composite relative error {err:.3e}"


def test_epoch_temporal_term_matches_finite_differences():
    """The trainer's epoch-level temporal gradient is the analytic one."""
    r, params, x, y, x_cov = random_case(900)
    delta = 0.6
    anchor = temporal_setup(params, x, x_cov, "atc", ScoreKind.MAX_CONFIDENCE, delta)

    class FakeSplits:
        probe_in = x
        probe_cov = x_cov

    cfg = RunConfig(hyper=HP, method=METHOD_TEMP_ATC, score_kind=ScoreKind.MAX_CONFIDENCE)
    l_temp, w_temp, d_id, d_cov, grad = _epoch_temporal_term(
        params, FakeSplits, anchor, cfg, delta
    )
    assert l_temp > 0 and d_id > 0 and d_cov > 0
    numeric = fd_param_grad(
        numeric_temporal_fn(x, x_cov, anchor, "atc", ScoreKind.MAX_CONFIDENCE, delta),
        params,
        STEP,
    )
    assert relative_error(grad.vec, numeric) <= TOL
