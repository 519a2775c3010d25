import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconelab.scores import (
    ScoreKind,
    atc_threshold,
    diff_ac_grad_logits,
    diff_atc_grad_logits,
    hard_atc,
    unit_scores_grad_logits,
)

# A logit this far below the row max has softmax probability exactly 0.
LOG_ZERO = -1e3


def two_mass_logits(maxima, k):
    """Logits of rows with a prescribed max-softmax value (remainder split evenly)."""
    maxima = np.asarray(maxima, dtype=float)
    p = np.repeat(((1.0 - maxima) / (k - 1))[:, None], k, axis=1)
    p[:, 0] = maxima
    return np.log(p)


def smoothed_atc(logits, kind, delta, omega):
    return diff_atc_grad_logits(logits, kind, delta, omega)[0]


def brute_force_threshold(scores, correct):
    """Exhaustive scan over midpoint candidates, smallest-delta tie-break."""
    s = sorted(scores)
    n = len(s)
    err = sum(1 for c in correct if not c) / n
    candidates = [-math.inf] + [(a + b) / 2 for a, b in zip(s, s[1:])] + [math.inf]
    best, best_gap = None, None
    for cand in candidates:
        frac = sum(1 for v in s if v < cand) / n
        gap = abs(frac - err)
        if best_gap is None or gap < best_gap - 1e-15:
            best, best_gap = cand, gap
    return best


def test_max_confidence_uniform_row():
    logits = np.log(np.full((1, 4), 0.25))
    s, _ = unit_scores_grad_logits(logits, ScoreKind.MAX_CONFIDENCE)
    assert s[0] == pytest.approx(0.25)


def test_neg_entropy_one_hot_row():
    # sum p log p = 0 on a one-hot row, the top of the unit scale
    logits = np.array([[0.0, LOG_ZERO, LOG_ZERO]])
    s, _ = unit_scores_grad_logits(logits, ScoreKind.NEG_ENTROPY)
    assert s[0] == pytest.approx(1.0, abs=1e-15)


def test_neg_entropy_uniform_row():
    # sum p log p = -log K on a uniform row, the bottom of the unit scale
    logits = np.log(np.full((1, 4), 0.25))
    s, _ = unit_scores_grad_logits(logits, ScoreKind.NEG_ENTROPY)
    assert s[0] == pytest.approx(0.0, abs=1e-15)


def test_unit_scores_rescale_neg_entropy():
    # uniform, two-point and one-hot rows: -log 4, -log 2 and 0 map to 0, 1/2, 1
    logits = np.array(
        [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, LOG_ZERO, LOG_ZERO], [0.0, LOG_ZERO, LOG_ZERO, LOG_ZERO]]
    )
    u = unit_scores_grad_logits(logits, ScoreKind.NEG_ENTROPY)[0]
    assert u == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)


def test_nonfinite_logits_rejected():
    for kind in ScoreKind:
        with pytest.raises(ValueError, match="logits must be finite"):
            unit_scores_grad_logits(np.array([[0.0, np.inf], [0.0, 1.0]]), kind)


def test_atc_threshold_all_correct():
    delta = atc_threshold(np.array([0.3, 0.5, 0.9]), np.array([True, True, True]))
    assert delta <= 0.3
    assert hard_atc(np.array([0.3, 0.5, 0.9]), delta) == 0.0


def test_atc_threshold_all_wrong():
    scores = np.array([0.3, 0.5, 0.9])
    delta = atc_threshold(scores, np.array([False, False, False]))
    assert delta > 0.9
    assert hard_atc(scores, delta) == 1.0


def test_atc_threshold_midpoint_case():
    scores = np.array([0.2, 0.4, 0.6, 0.8])
    correct = np.array([True, True, False, False])
    delta = atc_threshold(scores, correct)
    assert delta == pytest.approx(0.5)
    assert hard_atc(scores, delta) == pytest.approx(0.5)
    assert delta == pytest.approx(brute_force_threshold(scores, correct))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30), st.data())
@settings(max_examples=80, deadline=None)
def test_atc_threshold_matches_brute_force(scores, data):
    correct = data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)))
    got = atc_threshold(np.array(scores), np.array(correct))
    expect = brute_force_threshold(scores, correct)
    n = len(scores)
    err = sum(1 for c in correct if not c) / n
    got_frac = sum(1 for v in scores if v < got) / n
    expect_frac = sum(1 for v in scores if v < expect) / n
    assert abs(got_frac - err) == pytest.approx(abs(expect_frac - err), abs=1e-12)


def test_atc_threshold_reproduces_error_rate_on_distinct_scores():
    r = np.random.default_rng(0)
    for _ in range(50):
        n = int(r.integers(2, 40))
        scores = np.sort(r.uniform(size=n))
        if np.unique(scores).size < n:
            continue
        wrong = int(r.integers(0, n + 1))
        correct = np.array([False] * wrong + [True] * (n - wrong))
        delta = atc_threshold(scores, correct)
        assert hard_atc(scores, delta) == pytest.approx(wrong / n, abs=1e-12)


def test_atc_threshold_empty_input():
    with pytest.raises(ValueError):
        atc_threshold(np.array([]), np.array([]))


def test_hard_atc_boundaries():
    scores = np.array([0.1, 0.5, 0.9])
    assert hard_atc(scores, 0.05) == 0.0
    assert hard_atc(scores, 1.5) == 1.0
    assert hard_atc(scores, 0.5) == pytest.approx(1.0 / 3.0)  # strict inequality


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    st.floats(min_value=-0.5, max_value=1.5),
    st.floats(min_value=-0.5, max_value=1.5),
)
@settings(max_examples=100, deadline=None)
def test_hard_atc_monotone_in_delta(scores, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    s = np.array(scores)
    assert hard_atc(s, lo) <= hard_atc(s, hi)


def test_diff_atc_at_threshold_is_half():
    logits = two_mass_logits([0.6], 4)
    value = smoothed_atc(logits, ScoreKind.MAX_CONFIDENCE, delta=0.6, omega=0.05)
    assert value == pytest.approx(0.5)


def test_diff_atc_saturates():
    logits = two_mass_logits(np.linspace(0.7, 0.9, 5), 4)
    assert smoothed_atc(logits, ScoreKind.MAX_CONFIDENCE, delta=0.6, omega=1e-3) <= 1e-40


def test_diff_atc_requires_positive_omega():
    with pytest.raises(ValueError):
        smoothed_atc(two_mass_logits([0.5], 4), ScoreKind.MAX_CONFIDENCE, 0.5, 0.0)


def test_diff_atc_close_to_hard_atc_away_from_threshold():
    # counting oracle: compare against the exact indicator fraction
    r = np.random.default_rng(1)
    for _ in range(25):
        k = 6
        delta = r.uniform(0.3, 0.9)
        maxima = r.uniform(1.0 / k + 0.01, 1.0 - 1e-6, size=1000)
        maxima = maxima[np.abs(maxima - delta) > 0.01]
        logits = two_mass_logits(maxima, k)
        soft = smoothed_atc(logits, ScoreKind.MAX_CONFIDENCE, delta, omega=1e-3)
        hard = hard_atc(unit_scores_grad_logits(logits, ScoreKind.MAX_CONFIDENCE)[0], delta)
        assert abs(soft - hard) <= 1e-3


@pytest.mark.parametrize("omega", [1e-1, 1e-2, 1e-3])
def test_diff_atc_converges_to_hard_atc(omega):
    r = np.random.default_rng(2)
    maxima = r.uniform(0.3, 0.99, size=500)
    delta = 0.62
    maxima = maxima[np.abs(maxima - delta) > 0.05]
    logits = two_mass_logits(maxima, 5)
    soft = smoothed_atc(logits, ScoreKind.MAX_CONFIDENCE, delta, omega)
    hard = hard_atc(unit_scores_grad_logits(logits, ScoreKind.MAX_CONFIDENCE)[0], delta)
    # gap shrinks like exp(-0.05/omega)
    assert abs(soft - hard) <= math.exp(-0.05 / omega) + 1e-12


@given(
    st.floats(min_value=0.2, max_value=0.8),
    st.floats(min_value=0.2, max_value=0.8),
    st.floats(min_value=0.01, max_value=0.2),
)
@settings(max_examples=100, deadline=None)
def test_diff_atc_monotone_and_lipschitz_in_delta(d1, d2, omega):
    r = np.random.default_rng(3)
    logits = two_mass_logits(r.uniform(0.3, 0.95, size=64), 4)
    lo, hi = min(d1, d2), max(d1, d2)
    v_lo = smoothed_atc(logits, ScoreKind.MAX_CONFIDENCE, lo, omega)
    v_hi = smoothed_atc(logits, ScoreKind.MAX_CONFIDENCE, hi, omega)
    assert v_lo <= v_hi + 1e-12
    assert v_hi - v_lo <= (hi - lo) / (4.0 * omega) + 1e-12


def test_diff_ac_values():
    one_hot = np.array([[0.0, LOG_ZERO], [LOG_ZERO, 0.0]])
    assert diff_ac_grad_logits(one_hot)[0] == pytest.approx(1.0)
    uniform = np.log(np.full((3, 10), 0.1))
    assert diff_ac_grad_logits(uniform)[0] == pytest.approx(0.1)
    mixed = np.array([[0.0, LOG_ZERO], [0.0, 0.0]])
    assert diff_ac_grad_logits(mixed)[0] == pytest.approx(0.75)
