"""Brute-force checks of the divergence identities and inequalities behind
the temporal-stability analysis.

Natural logarithms throughout, so the log e factors of the bounds equal 1.
The entropy-confidence implication is checked only on two-mass
distributions: a max mass p_star and the remainder split uniformly over
the other K - 1 classes. It is false for arbitrary distributions, where
entropy does not determine the maximum mass. A two-mass distribution is
fixed by (p_star, K), so `lemma1_check` and the sweep work on those
parameters alone; tests/test_theory.py ties `two_point_entropy` to the
entropy of the distribution it stands for.

`kl`, `tv` and `chi2` take (n, K) stacks, and `two_point_entropy` and
`lemma1_check` vectors of p_star. Each has one code path, on arrays: a
single distribution or a scalar p_star runs as a one-entry array and
comes back as a float (a bool from `lemma1_check`). `run_verification_sweep`
draws its random trials as arrays too, and is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DIST_TOL = 1e-12
# Trials per block of the randomized two-mass check; the blocks fix the
# order of its random draws.
_TWO_MASS_CHUNK = 8192
# Grid points of the shifted-Gaussian chi-square quadrature: steps near sigma / 80.
_QUADRATURE_POINTS = 2001


def _validate_dist(p: np.ndarray, rows: bool = False) -> np.ndarray:
    """p as a float vector after checking that it is a distribution.

    With rows, p is a (n, K) stack and each row is checked the same way; a
    bad row raises the message its single-row check would.
    """
    q = np.asarray(p, dtype=float)
    if rows:
        if q.ndim != 2 or q.shape[1] < 1:
            raise ValueError(f"distribution stack must have shape (n, K), got {q.shape}")
        # a non-finite entry makes its row's sum non-finite, so the sum test
        # flags it too
        bad = (q.min(axis=1) < -_DIST_TOL) | ~(np.abs(q.sum(axis=1) - 1.0) <= 1e-9)
        for row in q[bad]:
            _validate_dist(row)
        return q
    if q.ndim != 1 or q.size < 1:
        raise ValueError(f"distribution must be a 1-d vector, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError(f"non-finite probability {q[~np.isfinite(q)][0]}")
    if q.min() < -_DIST_TOL:
        raise ValueError(f"negative probability {q.min()}")
    if abs(q.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {q.sum()}, not 1")
    return q


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with 0 log 0 := 0."""
    q = _validate_dist(p)
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return float(-terms.sum())


def two_point_entropy(p_star, k):
    """Entropy of (p*, remainder split over the other K-1 classes).

    k is one class count, or one per entry of p_star. An array p_star gives
    the array of entropies; a scalar gives a float.
    """
    ks = np.asarray(k)
    if ks.ndim and ks.shape != np.shape(p_star):
        raise ValueError(f"need one K per p_star, got shape {ks.shape} for {np.shape(p_star)}")
    if (ks < 2).any():
        raise ValueError(f"need K >= 2, got {ks[ks < 2].flat[0]}")
    p = np.atleast_1d(np.asarray(p_star, dtype=float))
    inside = (1.0 / k - 1e-12 <= p) & (p <= 1.0 + 1e-12)
    if not inside.all():
        raise ValueError(f"p_star must lie in [1/K, 1], got {p[~inside].flat[0]}")
    # p >= 1/K - 1e-12 > 0, so only the remainder term needs the 0 log 0
    # guard, at p = 1: the sweep's monotone grid ends there, though no random
    # draw reaches it; 0.0 - x gives +0.0 rather than -0.0 at p = 1
    rest = 1.0 - p
    positive = rest > 0.0
    h = 0.0 - p * np.log(p)
    h = h - np.where(positive, rest * np.log(np.where(positive, rest, 1.0) / (k - 1)), 0.0)
    return float(h[0]) if np.ndim(p_star) == 0 else h


def _check_support(p: np.ndarray, q: np.ndarray):
    if np.any((p > 0.0) & (q <= 0.0)):
        raise ValueError("support violation: p puts mass where q has none")


def _dist_stacks(p: np.ndarray, q: np.ndarray):
    """(p, q, single): p and q validated as equal-shape (n, K) stacks.

    Two vectors become one-row stacks and single is True; the callers then
    return the row's value as a float.
    """
    single = np.ndim(p) != 2
    pp, qq = _validate_dist(p, rows=not single), _validate_dist(q, rows=not single)
    if pp.shape != qq.shape:
        raise ValueError(f"distribution shapes differ: {pp.shape} vs {qq.shape}")
    if single:
        return pp[None], qq[None], True
    return pp, qq, False


def _masked_row_sums(terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row sums of terms over the entries where mask holds.

    A row with entries masked out sums its kept entries alone, as a 1-d
    boolean index would; summing zeros in their place can round differently.
    """
    sums = terms.sum(axis=1)
    for i in np.flatnonzero(~mask.all(axis=1)):
        sums[i] = terms[i][mask[i]].sum()
    return sums


def kl(p: np.ndarray, q: np.ndarray):
    """Kullback-Leibler divergence in nats; (n, K) stacks give one per row."""
    pp, qq, single = _dist_stacks(p, q)
    _check_support(pp, qq)
    mask = pp > 0.0
    terms = pp * np.log(np.where(mask, pp, 1.0) / np.where(mask, qq, 1.0))
    sums = _masked_row_sums(terms, mask)
    return float(sums[0]) if single else sums


def tv(p: np.ndarray, q: np.ndarray):
    """Total variation distance (half the L1 distance); stacks give one per row."""
    pp, qq, single = _dist_stacks(p, q)
    sums = 0.5 * np.abs(pp - qq).sum(axis=1)
    return float(sums[0]) if single else sums


def chi2(p: np.ndarray, q: np.ndarray):
    """Pearson chi-square divergence sum (p-q)^2 / q; stacks give one per row."""
    pp, qq, single = _dist_stacks(p, q)
    _check_support(pp, qq)
    mask = (pp > 0.0) | (qq > 0.0)
    sums = _masked_row_sums((pp - qq) ** 2 / np.where(mask, qq, 1.0), mask)
    return float(sums[0]) if single else sums


def lemma1_check(star_t, star_t1, k):
    """On two-mass distributions: entropy rising implies max confidence falling.

    Each pair is given by its max masses star_t, star_t1 and its class count
    k (one int, or one per pair). Arrays give one bool per pair; scalars a bool.
    """
    if np.shape(star_t) != np.shape(star_t1):
        raise ValueError(f"shapes differ: {np.shape(star_t)} vs {np.shape(star_t1)}")
    h_t = two_point_entropy(star_t, k)
    h_t1 = two_point_entropy(star_t1, k)
    holds = ~np.less_equal(h_t, h_t1) | np.greater_equal(star_t, star_t1 - 1e-12)
    return holds if np.ndim(holds) else bool(holds)


def chi2_gaussian_shift(delta: float, sigma: float) -> float:
    """Chi-square divergence between equal-variance Gaussians shifted by delta."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return float(np.expm1(delta**2 / sigma**2))


def fisher_info_gaussian(sigma: float) -> float:
    """Fisher information of a Gaussian location family."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return 1.0 / sigma**2


def _chi2_gaussian_quadrature(delta: float, sigma: float) -> float:
    """Trapezoid-rule integral of p^2/q - 1 for the shifted-Gaussian pair.

    p^2/q is a Gaussian bump of width sigma centred at 2 delta. On such a
    bump a uniform trapezoid grid converges faster than any power of its
    step, so what error is left comes from rounding the sum and from the
    tails beyond the window, 12 sigma - |delta| from the centre.
    """
    lo, hi = -12 * sigma + min(0.0, delta), 12 * sigma + max(0.0, delta)
    x = np.linspace(lo, hi, _QUADRATURE_POINTS)
    norm = sigma * np.sqrt(2 * np.pi)
    p = np.exp(-((x - delta) ** 2) / (2 * sigma**2)) / norm
    q = np.exp(-(x**2) / (2 * sigma**2)) / norm
    y = p * p / q
    value = (hi - lo) / (_QUADRATURE_POINTS - 1) * (y.sum() - 0.5 * (y[0] + y[-1]))
    return float(value - 1.0)


def score_dist_tv(scores_a: np.ndarray, scores_b: np.ndarray, bins: int) -> float:
    """Total variation between binned empirical score distributions.

    A diagnostic proxy for the covariate-vs-semantic score-distribution
    dissimilarity; the bin grid spans the pooled range of both samples.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("need nonempty score vectors")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("scores must be finite")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    ha, _ = np.histogram(a, bins=edges)
    hb, _ = np.histogram(b, bins=edges)
    return float(0.5 * np.abs(ha / a.size - hb / b.size).sum())


def analytic_gaussian_tv(mean_gap: float, sigma: float) -> float:
    """Closed-form TV between two equal-variance Gaussians."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return math.erf(abs(mean_gap) / (2.0 * sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class PropertyCheck:
    """One property of the sweep: its trials, how many of them violate it,
    and the largest violation. A trial counts as violated unless its gap is
    within tolerance, so a NaN gap is a violation; passed is violations == 0.
    The sweep takes max_violation with np.max, so a NaN gap shows there too,
    where Python's max would drop it.
    """

    name: str
    trials: int
    violations: int
    max_violation: float

    def __post_init__(self):
        # a numpy scalar would print as np.float64(...) in a repr of the rows
        object.__setattr__(self, "max_violation", float(self.max_violation))

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_row(self) -> list:
        return [self.name, self.trials, self.violations, self.max_violation, self.passed]


SWEEP_COLUMNS = ("property", "trials", "violations", "max_violation", "passed")


def _random_dist_stacks(rng, count: int):
    """count random distribution pairs, q bounded away from zero mass.

    Draws the pairs' class counts K in [2, 16] at once, then, for each K in
    ascending order, its (p, q) pairs with one Dirichlet(2) call; q becomes
    0.99 q + 0.01 / K. Returns [(p, q)], one pair of (n_K, K) stacks per K.
    """
    ks, counts = np.unique(rng.integers(2, 17, size=count), return_counts=True)
    stacks = []
    for k, n_k in zip(ks.tolist(), counts.tolist()):
        both = rng.dirichlet(np.full(k, 2.0), size=(n_k, 2))
        stacks.append((both[:, 0], 0.99 * both[:, 1] + 0.01 / k))
    return stacks


def _two_mass_draws(rng: np.random.Generator, n: int):
    """(ks, star_a, star_b): n int64 class counts K in [2, 16] and two
    vectors of p_star, each uniform on [1/K, 1)."""
    ks = rng.integers(2, 17, size=n)
    low = 1.0 / ks
    return ks, rng.uniform(low, 1.0), rng.uniform(low, 1.0)


def run_verification_sweep(seed: int = 0) -> list[PropertyCheck]:
    """All randomized and grid checks, one result row per property."""
    rng = np.random.default_rng(seed)
    results = []

    # Strict monotone decrease of the two-mass entropy over [1/K, 1].
    trials, violations, tops = 0, 0, []
    for k in range(2, 17):
        grid = np.linspace(1.0 / k, 1.0, 10_000)
        diffs = np.diff(two_point_entropy(grid, k))
        trials += diffs.size
        violations += int((~(diffs < 0.0)).sum())
        tops.append(diffs.max())
    results.append(
        PropertyCheck("two_point_entropy_monotone", trials, violations, np.max(tops, initial=0.0))
    )

    # chi-square as sum p^2/q - 1 agrees with the (p-q)^2/q form, and KL is
    # bounded by half of TV plus chi-square (nats); each over 1000 fresh pairs.
    pair_gaps = (
        ("chi2_moment_identity", lambda p, q: np.abs((p * p / q).sum(axis=1) - 1.0 - chi2(p, q))),
        ("kl_tv_chi2_bound", lambda p, q: kl(p, q) - 0.5 * (tv(p, q) + chi2(p, q))),
    )
    for name, gap_of in pair_gaps:
        gaps = np.concatenate([gap_of(p, q) for p, q in _random_dist_stacks(rng, 1000)])
        violations = int((~(gaps <= 1e-12)).sum())
        results.append(PropertyCheck(name, gaps.size, violations, np.max(gaps, initial=0.0)))

    # Entropy up implies max confidence down, over random two-mass pairs
    # checked on their parameters; the worst violation is the largest rise
    # in max confidence, which is p_star.
    trials, violations, rises = 100_000, 0, []
    for done in range(0, trials, _TWO_MASS_CHUNK):
        ks, star_a, star_b = _two_mass_draws(rng, min(_TWO_MASS_CHUNK, trials - done))
        failed = ~lemma1_check(star_a, star_b, ks)
        if failed.any():
            violations += int(failed.sum())
            rises.append((star_b - star_a)[failed].max())
    results.append(
        PropertyCheck(
            "two_mass_entropy_confidence", trials, violations, np.max(rises, initial=0.0)
        )
    )

    # chi-square over delta^2 times the Fisher information: within 1e-4 of 1
    # at the small shift 0.01, and falling towards 1 as the shift shrinks.
    ratios = [
        chi2_gaussian_shift(d, 1.0) / (d**2 * fisher_info_gaussian(1.0)) for d in (0.5, 0.1, 0.01)
    ]
    small_ok = 0.9999 <= ratios[-1] <= 1.0001
    results.append(
        PropertyCheck("chi2_fisher_small_shift", 1, int(not small_ok), abs(ratios[-1] - 1.0))
    )
    mono_ok = ratios[0] > ratios[1] > ratios[2] >= 1.0
    results.append(
        PropertyCheck(
            "chi2_fisher_ratio_monotone", len(ratios), int(not mono_ok), np.max(ratios) - 1.0
        )
    )

    # Closed form against numeric quadrature of the shifted-Gaussian integral.
    gaps = [
        abs(chi2_gaussian_shift(delta, sigma) - _chi2_gaussian_quadrature(delta, sigma))
        for delta, sigma in ((0.5, 1.0), (0.25, 0.5), (1.0, 2.0))
    ]
    violations = sum(not gap <= 1e-8 for gap in gaps)
    results.append(
        PropertyCheck("chi2_gaussian_quadrature", len(gaps), violations, np.max(gaps, initial=0.0))
    )

    # Binned empirical TV recovers the analytic Gaussian value.
    a = rng.normal(0.0, 1.0, size=100_000)
    b = rng.normal(3.0, 1.0, size=100_000)
    gap = abs(score_dist_tv(a, b, 100) - analytic_gaussian_tv(3.0, 1.0))
    results.append(PropertyCheck("score_dist_tv_gaussian", 1, int(not gap <= 0.02), gap))

    return results
