import hashlib
import math

import numpy as np
import pytest
from scipy.special import erf

from sconelab import theory
from sconelab.scores import ScoreKind, atc_threshold, diff_atc_grad_logits, hard_atc
from sconelab.stream import corrupt
from sconelab.theory import (
    _TWO_MASS_CHUNK,
    _chi2_gaussian_quadrature,
    _random_dist_stacks,
    _two_mass_draws,
    analytic_gaussian_tv,
    chi2,
    chi2_gaussian_shift,
    entropy,
    fisher_info_gaussian,
    kl,
    lemma1_check,
    run_verification_sweep,
    score_dist_tv,
    tv,
    two_point_entropy,
)


def random_pair(rng, k):
    p = rng.dirichlet(np.full(k, 2.0))
    q = rng.dirichlet(np.full(k, 2.0))
    return p, 0.99 * q + 0.01 / k


def two_mass(p_star, k):
    p = np.full(k, (1.0 - p_star) / (k - 1))
    p[0] = p_star
    return p


def test_entropy_examples():
    assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert entropy(np.full(8, 1 / 8)) == pytest.approx(math.log(8))
    # high-precision direct evaluation: 1.5 * ln 2
    assert entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5 * math.log(2), abs=1e-12)


def test_entropy_rejects_invalid():
    with pytest.raises(ValueError):
        entropy(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        entropy(np.array([1.1, -0.1]))


def test_two_point_entropy_extremes():
    assert two_point_entropy(1.0, 5) == pytest.approx(0.0, abs=1e-15)
    assert two_point_entropy(1 / 5, 5) == pytest.approx(math.log(5))


def test_two_point_entropy_equals_entropy_of_two_mass_dist():
    for p_star in (0.3, 0.55, 0.9):
        assert two_point_entropy(p_star, 4) == pytest.approx(entropy(two_mass(p_star, 4)))


def test_two_point_entropy_out_of_range():
    with pytest.raises(ValueError):
        two_point_entropy(0.1, 5)  # below 1/K


def test_two_point_entropy_strictly_decreasing_grid():
    # grid-scan oracle across class counts
    for k in range(2, 17):
        grid = np.linspace(1.0 / k, 1.0, 10_000)
        values = np.array([two_point_entropy(p, k) for p in grid])
        assert (np.diff(values) < 0.0).all()


def test_divergences_vanish_at_equality():
    p = np.array([0.2, 0.3, 0.5])
    assert kl(p, p) == pytest.approx(0.0, abs=1e-15)
    assert tv(p, p) == 0.0
    assert chi2(p, p) == pytest.approx(0.0, abs=1e-15)


def test_divergences_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p, q = random_pair(rng, int(rng.integers(2, 17)))
        assert kl(p, q) >= 0.0
        assert tv(p, q) >= 0.0
        assert chi2(p, q) >= 0.0


def test_kl_support_violation():
    with pytest.raises(ValueError, match="support"):
        kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_chi2_moment_identity_random():
    # independent formula pair: sum p^2/q - 1 against sum (p-q)^2/q
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p, q = random_pair(rng, int(rng.integers(2, 17)))
        assert abs((p * p / q).sum() - 1.0 - chi2(p, q)) <= 1e-12


def test_kl_tv_chi2_bound_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p, q = random_pair(rng, int(rng.integers(2, 17)))
        assert kl(p, q) <= 0.5 * (tv(p, q) + chi2(p, q)) + 1e-12


def test_nan_entry_rejected():
    p = np.array([0.5, np.nan, 0.5])
    q = np.array([0.2, 0.3, 0.5])
    for check in (entropy, lambda d: kl(d, q), lambda d: kl(q, d), lambda d: tv(d, q)):
        with pytest.raises(ValueError, match="non-finite probability nan"):
            check(p)
    with pytest.raises(ValueError, match="non-finite probability nan"):
        chi2(q, p)


def random_stacks(rng, n, k):
    pairs = [random_pair(rng, k) for _ in range(n)]
    return np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])


def assert_stack_matches_rows(p, q):
    for divergence in (kl, tv, chi2):
        got = divergence(p, q)
        want = np.array([divergence(a, b) for a, b in zip(p, q)])
        assert got.dtype == np.float64 and got.shape == (len(p),)
        assert got.tobytes() == want.tobytes(), divergence.__name__


@pytest.mark.parametrize("k", range(2, 17))
def test_divergence_stacks_match_rows(k):
    rng = np.random.default_rng(k)
    assert_stack_matches_rows(*random_stacks(rng, 64, k))


@pytest.mark.parametrize("k", [2, 3, 8, 9, 10, 16])
def test_divergence_stacks_with_zero_mass_match_rows(k):
    # zeros in p drop kl terms; zeros in both p and q drop chi2 terms
    rng = np.random.default_rng(100 + k)
    p, q = random_stacks(rng, 40, k)
    p[::2, 0] = 0.0
    p[1::4, -1] = 0.0
    q[1::4, -1] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    assert_stack_matches_rows(p, q)
    # the sums skip the dropped terms, as the boolean-indexed formulas do
    for a, b, got_kl, got_chi2 in zip(p, q, kl(p, q), chi2(p, q)):
        keep, both = a > 0.0, (a > 0.0) | (b > 0.0)
        assert got_kl == (a[keep] * np.log(a[keep] / b[keep])).sum()
        assert got_chi2 == (((a[both] - b[both]) ** 2) / b[both]).sum()


@pytest.mark.parametrize(
    "bad_row",
    [
        [0.6, 0.5, -0.1],  # negative
        [0.5, 0.3, 0.3],  # sums to 1.1
        [0.5, np.nan, 0.5],  # not finite
        [0.5, np.inf, 0.5],  # infinite
    ],
)
@pytest.mark.parametrize("divergence", [kl, tv, chi2])
def test_divergence_stack_bad_row_same_message(divergence, bad_row):
    p, q = random_stacks(np.random.default_rng(9), 6, 3)
    for stack in (p, q):
        original = stack[3].copy()
        stack[3] = bad_row
        with pytest.raises(ValueError) as single:
            divergence(p[3], q[3])
        for a, b in zip(layouts(p), layouts(q)):
            with pytest.raises(ValueError) as stacked:
                divergence(a, b)
            assert str(stacked.value) == str(single.value)
        stack[3] = original


def layouts(stack):
    """stack as C-ordered, column-major and strided (a view into a larger
    array) copies: the row reductions must not depend on the layout."""
    strided = np.zeros((2 * stack.shape[0], 3 * stack.shape[1]))[::2, ::3]
    strided[:] = stack
    copies = [np.ascontiguousarray(stack), np.asfortranarray(stack), strided]
    assert [c.flags.c_contiguous for c in copies] == [True, False, False]
    assert [c.flags.f_contiguous for c in copies] == [False, True, False]
    return copies


@pytest.mark.parametrize("divergence", [kl, chi2])
def test_divergence_stack_support_violation(divergence):
    p, q = random_stacks(np.random.default_rng(10), 5, 3)
    p[2], q[2] = [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="support violation"):
        divergence(p, q)
    assert tv(p, q)[2] == 0.5


@pytest.mark.parametrize("divergence", [kl, tv, chi2])
def test_divergence_stack_shape_mismatch(divergence):
    rng = np.random.default_rng(11)
    p, q = random_stacks(rng, 4, 3)
    with pytest.raises(ValueError, match=r"shapes differ: \(4, 3\) vs \(3, 3\)"):
        divergence(p, q[:3])
    with pytest.raises(ValueError, match=r"shapes differ: \(4, 3\) vs \(4, 5\)"):
        divergence(p, random_stacks(rng, 4, 5)[1])
    with pytest.raises(ValueError, match=r"shapes differ: \(3,\) vs \(2,\)"):
        divergence(p[0], np.array([0.5, 0.5]))


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_random_dist_stacks_contract(seed):
    stacks = _random_dist_stacks(np.random.default_rng(seed), 500)
    ks = [p.shape[1] for p, _ in stacks]
    assert ks == sorted(set(ks)) and 2 <= ks[0] and ks[-1] <= 16
    assert sum(len(p) for p, _ in stacks) == 500
    for p, q in stacks:
        k = p.shape[1]
        assert p.shape == q.shape
        assert (p >= 0.0).all() and (q >= 0.01 / k).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    again = _random_dist_stacks(np.random.default_rng(seed), 500)
    assert [(p.tobytes(), q.tobytes()) for p, q in again] == [
        (p.tobytes(), q.tobytes()) for p, q in stacks
    ]


@pytest.mark.parametrize("n", [1, 7, 8192])
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_two_mass_draws_contract(seed, n):
    ks, star_a, star_b = _two_mass_draws(np.random.default_rng(seed), n)
    assert ks.dtype == np.int64 and ks.shape == star_a.shape == star_b.shape == (n,)
    assert np.bincount(ks, minlength=17)[2:].sum() == n
    assert ((2 <= ks) & (ks <= 16)).all()
    for star in (star_a, star_b):
        assert ((1.0 / ks <= star) & (star < 1.0)).all()
    again = _two_mass_draws(np.random.default_rng(seed), n)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in (ks, star_a, star_b)]


def test_lemma1_equality_case():
    assert lemma1_check(0.7, 0.7, 5)


def test_lemma1_entropy_up_confidence_down():
    # direct evaluation via the two-mass entropy
    h_hi = two_point_entropy(0.6, 5)
    h_lo = two_point_entropy(0.9, 5)
    assert h_lo <= h_hi
    assert lemma1_check(0.9, 0.6, 5)


def test_lemma1_randomized_sweep():
    rng = np.random.default_rng(3)
    for _ in range(20_000):
        k = int(rng.integers(2, 17))
        assert lemma1_check(rng.uniform(1.0 / k, 1.0), rng.uniform(1.0 / k, 1.0), k)


def lemma1_oracle(star_a, star_b, k):
    # the implication on the distributions themselves: their entropy and
    # their max mass, with no use of the two-mass formula
    pa, pb = two_mass(star_a, k), two_mass(star_b, k)
    return not entropy(pa) <= entropy(pb) or pa.max() >= pb.max() - 1e-12


def test_lemma1_check_matches_distribution_oracle():
    rng = np.random.default_rng(12)
    for k in range(2, 17):
        ends = [1.0 / k, 1.0]
        star_a = np.concatenate([np.repeat(ends, 2), rng.uniform(1.0 / k, 1.0, 300)])
        star_b = np.concatenate([np.tile(ends, 2), rng.uniform(1.0 / k, 1.0, 300)])
        star_b[4:24] = star_a[4:24]  # equality case
        for a, b in zip(star_a, star_b):
            assert two_point_entropy(a, k) == pytest.approx(entropy(two_mass(a, k)), abs=1e-14)
            assert two_mass(a, k).max() == pytest.approx(a, rel=1e-15)
        want = [lemma1_oracle(a, b, k) for a, b in zip(star_a, star_b)]
        assert lemma1_check(star_a, star_b, k).tolist() == want
        assert lemma1_check(star_a, star_b, np.full(star_a.size, k)).tolist() == want


def test_chi2_gaussian_shift_zero():
    assert chi2_gaussian_shift(0.0, 1.0) == 0.0


def test_chi2_gaussian_small_shift_matches_fisher():
    delta, sigma = 0.01, 1.0
    ratio = chi2_gaussian_shift(delta, sigma) / (delta**2 * fisher_info_gaussian(sigma))
    assert abs(ratio - 1.0) <= 1e-4


def test_chi2_gaussian_quadrature_agreement():
    # the sweep's (delta, sigma) pairs; it allows 1e-8, the trapezoid grid does far better
    for delta, sigma in ((0.5, 1.0), (0.25, 0.5), (1.0, 2.0)):
        got = _chi2_gaussian_quadrature(delta, sigma)
        assert abs(got - chi2_gaussian_shift(delta, sigma)) <= 1e-12, (delta, sigma)


def test_chi2_fisher_ratio_monotone():
    ratios = [chi2_gaussian_shift(d, 1.0) / (d * d) for d in (0.5, 0.1, 0.01)]
    assert ratios[0] > ratios[1] > ratios[2] >= 1.0


def test_score_dist_tv_identical_and_disjoint():
    a = np.linspace(0, 1, 500)
    assert score_dist_tv(a, a.copy(), 20) == 0.0
    b = np.linspace(10, 11, 400)
    assert score_dist_tv(a, b, 10) == 1.0


def test_score_dist_tv_validation():
    with pytest.raises(ValueError):
        score_dist_tv(np.array([]), np.array([1.0]), 10)
    with pytest.raises(ValueError):
        score_dist_tv(np.array([1.0]), np.array([2.0]), 1)


# Each guard is written so that NaN fails it, also for direct callers that
# bypass the config's knob intervals.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: diff_atc_grad_logits(
                np.random.default_rng(0).normal(size=(8, 4)), ScoreKind.MAX_CONFIDENCE, 0.5, np.nan
            ),
            id="diff_atc_omega_nan",
        ),
        pytest.param(lambda: chi2_gaussian_shift(0.5, np.nan), id="chi2_gaussian_shift_sigma_nan"),
        pytest.param(lambda: fisher_info_gaussian(np.nan), id="fisher_info_sigma_nan"),
        pytest.param(
            lambda: corrupt(np.zeros((3, 2)), np.nan, np.random.default_rng(0)),
            id="corrupt_sigma_nan",
        ),
        pytest.param(lambda: analytic_gaussian_tv(3.0, -1.0), id="analytic_tv_sigma_negative"),
        pytest.param(lambda: analytic_gaussian_tv(3.0, 0.0), id="analytic_tv_sigma_zero"),
        pytest.param(lambda: score_dist_tv([np.nan, 1.0], [0.0, 1.0], 10), id="score_dist_tv_nan"),
        pytest.param(
            lambda: atc_threshold([np.nan, 0.5, 0.7], [True, False, True]), id="atc_threshold_nan"
        ),
        pytest.param(lambda: hard_atc([0.2, np.nan], 0.5), id="hard_atc_scores_nan"),
        pytest.param(lambda: hard_atc([0.2, 0.5], np.nan), id="hard_atc_delta_nan"),
    ],
)
def test_direct_callers_reject_nan_and_nonpositive_widths(call):
    with pytest.raises(ValueError):
        call()


def test_score_dist_tv_gaussian_analytic():
    rng = np.random.default_rng(4)
    a = rng.normal(0.0, 1.0, size=100_000)
    b = rng.normal(3.0, 1.0, size=100_000)
    expect = analytic_gaussian_tv(3.0, 1.0)
    assert expect == pytest.approx(erf(3.0 / (2.0 * math.sqrt(2.0))))
    assert abs(score_dist_tv(a, b, 100) - expect) <= 0.02


def test_verification_sweep_all_pass():
    # seeds 0-29, so that a tolerance edge under the random draws would show
    for seed in range(30):
        checks = run_verification_sweep(seed)
        assert [c.name for c in checks] == [
            "two_point_entropy_monotone",
            "chi2_moment_identity",
            "kl_tv_chi2_bound",
            "two_mass_entropy_confidence",
            "chi2_fisher_small_shift",
            "chi2_fisher_ratio_monotone",
            "chi2_gaussian_quadrature",
            "score_dist_tv_gaussian",
        ]
        assert [c.trials for c in checks] == [149985, 1000, 1000, 100000, 1, 3, 3, 1]
        for check in checks:
            assert check.passed, f"seed {seed}, {check.name}: {check.violations} violations"


# Rows of run_verification_sweep at seeds 0 and 7; any change to the random
# draws or the arithmetic shows here.
SWEEP_GOLDEN = {
    0: [
        ["two_point_entropy_monotone", 149985, 0, 0.0, True],
        ["chi2_moment_identity", 1000, 0, 2.1316282072803006e-14, True],
        ["kl_tv_chi2_bound", 1000, 0, 0.0, True],
        ["two_mass_entropy_confidence", 100000, 0, 0.0, True],
        ["chi2_fisher_small_shift", 1, 0, 5.0001666708432424e-05, True],
        ["chi2_fisher_ratio_monotone", 3, 0, 0.13610166675096602, True],
        ["chi2_gaussian_quadrature", 3, 0, 1.1102230246251565e-16, True],
        ["score_dist_tv_gaussian", 1, 0, 0.0015844025377160786, True],
    ],
    7: [
        ["two_point_entropy_monotone", 149985, 0, 0.0, True],
        ["chi2_moment_identity", 1000, 0, 3.552713678800501e-15, True],
        ["kl_tv_chi2_bound", 1000, 0, 0.0, True],
        ["two_mass_entropy_confidence", 100000, 0, 0.0, True],
        ["chi2_fisher_small_shift", 1, 0, 5.0001666708432424e-05, True],
        ["chi2_fisher_ratio_monotone", 3, 0, 0.13610166675096602, True],
        ["chi2_gaussian_quadrature", 3, 0, 1.1102230246251565e-16, True],
        ["score_dist_tv_gaussian", 1, 0, 0.0006355974622836991, True],
    ],
}


@pytest.mark.parametrize("seed", sorted(SWEEP_GOLDEN))
def test_verification_sweep_rows_golden(seed):
    # repr compares the floats bit for bit; float() only drops the numpy
    # scalar type from the repr
    rows = [c.to_row() for c in run_verification_sweep(seed)]
    got = [[name, trials, bad, float(worst), ok] for name, trials, bad, worst, ok in rows]
    assert repr(got) == repr(SWEEP_GOLDEN[seed])


def test_verification_sweep_rows_digest_seeds_0_to_20():
    # every row of seeds 0-20 bit for bit, beyond the two seeds spelled out
    # above: sha256 over the repr of each seed's rows, in seed order
    digest = hashlib.sha256()
    for seed in range(21):
        digest.update(repr([c.to_row() for c in run_verification_sweep(seed)]).encode())
    assert digest.hexdigest() == "1b662c11027f78cf9cf8ea61ccab4ae61e2ae191cccb8584a6606aa7b907187b"


def scalar_two_point_entropy(p_star, k):
    # the one-value-at-a-time formula the array path must reproduce
    rest = 1.0 - p_star
    h = 0.0
    if p_star > 0.0:
        h -= p_star * np.log(p_star)
    if rest > 0.0:
        h -= rest * np.log(rest / (k - 1))
    return float(h)


def test_two_point_entropy_array_matches_scalar():
    for k in range(2, 17):
        grid = np.concatenate([np.linspace(1.0 / k, 1.0, 997), [1.0 + 1e-13]])
        got = two_point_entropy(grid, k)
        want = np.array([scalar_two_point_entropy(p, k) for p in grid])
        assert got.tobytes() == want.tobytes()
        singles = np.array([two_point_entropy(float(p), k) for p in grid])
        assert singles.tobytes() == want.tobytes()


def test_scalar_inputs_give_python_scalars():
    # a scalar p_star runs as a one-entry array
    assert type(two_point_entropy(0.6, 5)) is float
    assert lemma1_check(0.9, 0.6, 5) is True
    assert lemma1_check(0.6, 0.9, np.int64(5)) is True


def test_two_point_entropy_per_entry_class_counts():
    # one call with a K per entry gives the bits of one call per K
    grids = [np.linspace(1.0 / k, 1.0, 97) for k in range(2, 17)]
    want = np.concatenate([two_point_entropy(g, k) for k, g in zip(range(2, 17), grids)])
    got = two_point_entropy(np.concatenate(grids), np.repeat(np.arange(2, 17), 97))
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="need K >= 2, got 1"):
        two_point_entropy(np.array([0.5, 0.5]), np.array([2, 1]))
    with pytest.raises(ValueError, match=r"got shape \(3,\) for \(2,\)"):
        two_point_entropy(np.array([0.5, 0.5]), np.array([2, 3, 4]))
    with pytest.raises(ValueError, match=r"got shape \(2,\) for \(\)"):
        two_point_entropy(0.5, np.array([2, 3]))


def test_two_point_entropy_array_out_of_range():
    with pytest.raises(ValueError, match=r"p_star must lie in \[1/K, 1\], got 0.1"):
        two_point_entropy(np.array([0.5, 0.1, 0.9]), 5)
    with pytest.raises(ValueError, match="p_star"):
        two_point_entropy(np.array([0.5, np.nan]), 5)


def test_lemma1_stack_matches_rows():
    # one call on vectors of pairs, a K per pair, gives the per-pair answers
    ks, star_a, star_b = _two_mass_draws(np.random.default_rng(6), 800)
    star_b[:20] = star_a[:20]  # equality case
    want = [lemma1_check(a, b, k) for a, b, k in zip(star_a, star_b, ks)]
    got = lemma1_check(star_a, star_b, ks)
    assert got.dtype == bool and got.shape == (800,)
    assert got.tolist() == want


@pytest.mark.parametrize(
    "bad_row",
    [
        (0.1, 0.5, 3),  # p_star below 1/K
        (1.5, 0.5, 3),  # p_star above 1
        (np.nan, 0.5, 3),  # not finite
        (0.5, np.inf, 3),  # infinite, in the second of the pair
        (0.5, 0.5, 1),  # K below 2
    ],
)
def test_lemma1_stack_bad_row_same_message(bad_row):
    # a bad pair among good ones raises the message its own check would
    ks, star_a, star_b = _two_mass_draws(np.random.default_rng(7), 6)
    star_a[3], star_b[3], ks[3] = bad_row
    with pytest.raises(ValueError) as single:
        lemma1_check(star_a[3], star_b[3], ks[3])
    with pytest.raises(ValueError) as stacked:
        lemma1_check(star_a, star_b, ks)
    assert str(stacked.value) == str(single.value)


def test_lemma1_stack_shape_mismatch():
    with pytest.raises(ValueError, match=r"shapes differ: \(4,\) vs \(5,\)"):
        lemma1_check(np.full(4, 0.5), np.full(5, 0.5), 3)
    with pytest.raises(ValueError, match=r"shapes differ: \(\) vs \(2,\)"):
        lemma1_check(0.5, np.full(2, 0.5), 3)
    with pytest.raises(ValueError, match=r"got shape \(5,\) for \(4,\)"):
        lemma1_check(np.full(4, 0.5), np.full(4, 0.5), np.full(5, 3))


def test_sweep_counts_nan_gaps_as_violations(monkeypatch):
    monkeypatch.setattr(theory, "kl", lambda p, q: np.full(len(p), np.nan))
    monkeypatch.setattr(theory, "_chi2_gaussian_quadrature", lambda delta, sigma: np.nan)
    rows = {c.name: c for c in run_verification_sweep(seed=0)}
    for name in ("kl_tv_chi2_bound", "chi2_gaussian_quadrature"):
        assert rows[name].violations == rows[name].trials > 0
        assert not rows[name].passed
        assert rows[name].to_row()[4] is False
        # max(0.0, nan) is 0.0, which would report every trial violated by 0
        assert math.isnan(rows[name].max_violation)


def test_sweep_max_violation_is_python_float():
    for check in run_verification_sweep(seed=1):
        assert type(check.max_violation) is float


def test_two_mass_sweep_reports_largest_confidence_rise(monkeypatch):
    # Count every pair whose max mass rises by more than 0.5 as a
    # violation; the row must give their number and the largest rise.
    draws = []

    def recording_draws(rng, n):
        out = _two_mass_draws(rng, n)
        draws.append(out)
        return out

    monkeypatch.setattr(theory, "_two_mass_draws", recording_draws)
    monkeypatch.setattr(theory, "lemma1_check", lambda star_a, star_b, ks: star_b - star_a <= 0.5)
    row = {c.name: c for c in run_verification_sweep(seed=3)}["two_mass_entropy_confidence"]
    ks, star_a, star_b = (np.concatenate(parts) for parts in zip(*draws))
    flagged = star_b - star_a > 0.5
    assert row.trials == ks.size == 100_000
    assert row.violations == flagged.sum() > 0
    assert row.max_violation == (star_b - star_a)[flagged].max()
    assert not row.passed


@pytest.mark.parametrize("chunk", [_TWO_MASS_CHUNK, 1000])
def test_two_mass_sweep_stacks_stay_within_chunk(monkeypatch, chunk):
    # Each lemma1_check call sees at most one block of draws, and every
    # trial is checked exactly once: the calls' arguments, in order, are
    # the draws themselves.
    draws, checked = [], []

    def recording_draws(rng, n):
        draws.append(_two_mass_draws(rng, n))
        return draws[-1]

    def recording_check(star_a, star_b, ks):
        checked.append((ks, star_a, star_b))
        return lemma1_check(star_a, star_b, ks)

    monkeypatch.setattr(theory, "_TWO_MASS_CHUNK", chunk)
    monkeypatch.setattr(theory, "_two_mass_draws", recording_draws)
    monkeypatch.setattr(theory, "lemma1_check", recording_check)
    row = {c.name: c for c in run_verification_sweep(seed=2)}["two_mass_entropy_confidence"]
    assert row.passed
    assert len(checked) == -(-100_000 // chunk)
    assert all(ks.shape == a.shape == b.shape and ks.size <= chunk for ks, a, b in checked)
    for got, want in zip(zip(*checked), zip(*draws)):
        assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
    assert sum(ks.size for ks, _, _ in checked) == row.trials == 100_000
