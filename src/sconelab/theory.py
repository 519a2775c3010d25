"""Brute-force checks of the divergence identities and inequalities behind
the temporal-stability analysis.

Natural logarithms throughout, so the log e factors of the bounds equal 1.
The entropy-confidence implication is checked only on two-mass
distributions (a dominant mass with the remainder split uniformly); it is
false for arbitrary distributions, where entropy does not determine the
maximum mass.

`run_verification_sweep` evaluates the two-mass lemma check and the entropy
grid as arrays: `two_point_entropy`, `_two_mass_decompose` and `lemma1_check`
also take stacks, and `_two_mass_draws` replays the scalar draw loop's PCG64
stream from raw words. Every row and the generator state the later checks
draw from are bit for bit those of the one-pair-at-a-time loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_DIST_TOL = 1e-12
_NOT_TWO_MASS = (
    "not a two-mass distribution (max mass plus uniform remainder); "
    "the entropy-confidence implication is only checked on that family"
)
# Trials per block of the randomized two-mass check: bounds its arrays.
_TWO_MASS_CHUNK = 8192


def _validate_dist(p: np.ndarray, rows: bool = False) -> np.ndarray:
    """p as a float vector after checking that it is a distribution.

    With rows, p is a (n, K) stack and each row is checked the same way; a
    bad row raises the message its single-row check would.
    """
    q = np.asarray(p, dtype=float)
    if rows:
        if q.ndim != 2 or q.shape[1] < 1:
            raise ValueError(f"distribution stack must have shape (n, K), got {q.shape}")
        bad = (q.min(axis=1) < -_DIST_TOL) | (np.abs(q.sum(axis=1) - 1.0) > 1e-9)
        for row in q[bad]:
            _validate_dist(row)
        return q
    if q.ndim != 1 or q.size < 1:
        raise ValueError(f"distribution must be a 1-d vector, got shape {q.shape}")
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


def two_point_entropy(p_star, k: int):
    """Entropy of (p*, remainder split over the other K-1 classes).

    An array p_star gives the array of entropies, elementwise equal to the
    scalar results.
    """
    if k < 2:
        raise ValueError(f"need K >= 2, got {k}")
    if isinstance(p_star, np.ndarray):
        inside = (1.0 / k - 1e-12 <= p_star) & (p_star <= 1.0 + 1e-12)
        if not inside.all():
            raise ValueError(f"p_star must lie in [1/K, 1], got {p_star[~inside].flat[0]}")
        # p_star >= 1/K - 1e-12 > 0, so only the remainder term needs the
        # 0 log 0 guard; 0.0 - x keeps the scalar path's +0.0 at p_star = 1
        rest = 1.0 - p_star
        positive = rest > 0.0
        h = 0.0 - p_star * np.log(p_star)
        return h - np.where(positive, rest * np.log(np.where(positive, rest, 1.0) / (k - 1)), 0.0)
    if not 1.0 / k - 1e-12 <= p_star <= 1.0 + 1e-12:
        raise ValueError(f"p_star must lie in [1/K, 1], got {p_star}")
    rest = 1.0 - p_star
    h = 0.0
    if p_star > 0.0:
        h -= p_star * np.log(p_star)
    if rest > 0.0:
        h -= rest * np.log(rest / (k - 1))
    return float(h)


def _check_support(p: np.ndarray, q: np.ndarray):
    if np.any((p > 0.0) & (q <= 0.0)):
        raise ValueError("support violation: p puts mass where q has none")


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence in nats."""
    pp, qq = _validate_dist(p), _validate_dist(q)
    _check_support(pp, qq)
    mask = pp > 0.0
    return float((pp[mask] * np.log(pp[mask] / qq[mask])).sum())


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (half the L1 distance)."""
    return float(0.5 * np.abs(_validate_dist(p) - _validate_dist(q)).sum())


def chi2(p: np.ndarray, q: np.ndarray) -> float:
    """Pearson chi-square divergence sum (p-q)^2 / q."""
    pp, qq = _validate_dist(p), _validate_dist(q)
    _check_support(pp, qq)
    mask = (pp > 0.0) | (qq > 0.0)
    return float((((pp[mask] - qq[mask]) ** 2) / qq[mask]).sum())


def _two_mass_decompose(p: np.ndarray, tol: float = 1e-9):
    """Return (p_star, K) if p is a two-mass distribution, else raise.

    A (n, K) stack gives the vector of the rows' p_star and raises if any
    row is not two-mass.
    """
    q = np.asarray(p, dtype=float)
    if q.ndim == 2:
        q = _validate_dist(q, rows=True)
        k = q.shape[1]
        if k < 2:
            raise ValueError("need K >= 2")
        index = np.arange(q.shape[0])
        star = q.argmax(axis=1)
        p_star = q[index, star]
        gap = np.abs(q - ((1.0 - p_star) / (k - 1))[:, None])
        gap[index, star] = 0.0
        if (gap.max(axis=1) > tol).any():
            raise ValueError(_NOT_TWO_MASS)
        return p_star, k
    q = _validate_dist(q)
    k = q.size
    if k < 2:
        raise ValueError("need K >= 2")
    star = int(np.argmax(q))
    rest = np.delete(q, star)
    expected = (1.0 - q[star]) / (k - 1)
    if np.abs(rest - expected).max() > tol:
        raise ValueError(_NOT_TWO_MASS)
    return float(q[star]), k


def lemma1_check(p_t: np.ndarray, p_t1: np.ndarray):
    """On two-mass distributions: entropy rising implies max confidence falling.

    Two (n, K) stacks give a bool array, one entry per row pair.
    """
    star_t, k_t = _two_mass_decompose(p_t)
    star_t1, k_t1 = _two_mass_decompose(p_t1)
    if k_t != k_t1:
        raise ValueError(f"class counts differ: {k_t} vs {k_t1}")
    h_t = two_point_entropy(star_t, k_t)
    h_t1 = two_point_entropy(star_t1, k_t1)
    if isinstance(h_t, np.ndarray) or isinstance(h_t1, np.ndarray):
        if np.shape(h_t) != np.shape(h_t1):
            raise ValueError(f"stack shapes differ: {np.shape(p_t)} vs {np.shape(p_t1)}")
        return ~(h_t <= h_t1) | (star_t >= star_t1 - 1e-12)
    if h_t <= h_t1:
        return star_t >= star_t1 - 1e-12
    return True


def chi2_gaussian_shift(delta: float, sigma: float) -> float:
    """Chi-square divergence between equal-variance Gaussians shifted by delta."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return float(np.expm1(delta**2 / sigma**2))


def fisher_info_gaussian(sigma: float) -> float:
    """Fisher information of a Gaussian location family."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return 1.0 / sigma**2


def _chi2_gaussian_quadrature(delta: float, sigma: float) -> float:
    """Numeric integral of p^2/q - 1 for the shifted-Gaussian pair."""
    # Imported here: scipy.integrate is a third of `import sconelab.cli`.
    from scipy import integrate

    def integrand(x):
        p = np.exp(-((x - delta) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        q = np.exp(-(x**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        return p * p / q

    lo, hi = -12 * sigma + min(0.0, delta), 12 * sigma + max(0.0, delta)
    value, _ = integrate.quad(integrand, lo, hi, limit=200)
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
    return float(erf(abs(mean_gap) / (2.0 * sigma * np.sqrt(2.0))))


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    trials: int
    violations: int
    max_violation: float
    passed: bool

    def __post_init__(self):
        # a numpy scalar would print as np.float64(...) in a repr of the rows
        object.__setattr__(self, "max_violation", float(self.max_violation))

    def to_row(self) -> list:
        return [self.name, self.trials, self.violations, self.max_violation, self.passed]


SWEEP_COLUMNS = ("property", "trials", "violations", "max_violation", "passed")


def _random_dist_pairs(rng, count: int, max_k: int = 16):
    """Random distribution pairs with q bounded away from zero mass."""
    for _ in range(count):
        k = int(rng.integers(2, max_k + 1))
        p = rng.dirichlet(np.full(k, 2.0))
        q = rng.dirichlet(np.full(k, 2.0))
        q = 0.99 * q + 0.01 / k
        yield p, q


def _two_mass_draws(rng: np.random.Generator, n: int):
    """(ks, star_a, star_b) of n iterations of the scalar loop

        k = rng.integers(2, 17); a = rng.uniform(1/k, 1); b = rng.uniform(1/k, 1)

    leaving rng in the state that loop leaves. For PCG64 the draws are
    rebuilt from raw 64-bit words: `integers` takes the low half of a fresh
    word, or the high half buffered by the previous one, as x and returns
    2 + (15x >> 32) (Lemire), rejecting only x == 0; `uniform` takes one word
    w to low + (1 - low) * (w >> 11) * 2**-53. Other bit generators, and the
    rare chunk with an x == 0, run the loop itself.
    """
    bit_gen = rng.bit_generator
    state = bit_gen.state
    if type(bit_gen) is np.random.PCG64:
        # iteration i finds the 32-bit buffer full when (buffered + i) is odd
        full = (state["has_uint32"] + np.arange(n)) % 2 == 1
        fresh = ~full
        width = np.where(full, 2, 3)
        start = np.cumsum(width) - width
        words = bit_gen.random_raw(int(width.sum()))
        # a full buffer holds the high half of the previous iteration's word,
        # or at i = 0 the state's uinteger
        source = words[np.maximum(start - 3 * full, 0)]
        x = np.where(full, source >> np.uint64(32), source & np.uint64(0xFFFFFFFF))
        if full[0]:
            x[0] = state["uinteger"]
        if x.all():
            after = bit_gen.state
            after["has_uint32"] = int(fresh[-1])
            if fresh.any():
                after["uinteger"] = int(words[start[fresh][-1]] >> np.uint64(32))
            bit_gen.state = after
            ks = (2 + ((x * np.uint64(15)) >> np.uint64(32))).astype(np.int64)
            low = 1.0 / ks
            unit = (words >> np.uint64(11)) * 2.0**-53
            a, b = unit[start + fresh], unit[start + fresh + 1]
            return ks, low + (1.0 - low) * a, low + (1.0 - low) * b
        bit_gen.state = state  # undo the raw draws; the loop redraws them
    draws = []
    for _ in range(n):
        k = int(rng.integers(2, 17))
        draws.append((k, rng.uniform(1.0 / k, 1.0), rng.uniform(1.0 / k, 1.0)))
    ks, star_a, star_b = zip(*draws)
    return np.array(ks, dtype=np.int64), np.array(star_a), np.array(star_b)


def _two_mass_rows(p_star: np.ndarray, k: int) -> np.ndarray:
    """Stack of two-mass distributions with mass p_star on class 0."""
    rows = np.repeat(((1.0 - p_star) / (k - 1))[:, None], k, axis=1)
    rows[:, 0] = p_star
    return rows


def run_verification_sweep(seed: int = 0) -> list[PropertyCheck]:
    """All randomized and grid checks, one result row per property."""
    rng = np.random.default_rng(seed)
    results = []

    # Strict monotone decrease of the two-mass entropy over [1/K, 1].
    trials, violations, worst = 0, 0, 0.0
    for k in range(2, 17):
        grid = np.linspace(1.0 / k, 1.0, 10_000)
        diffs = np.diff(two_point_entropy(grid, k))
        trials += diffs.size
        violations += int((diffs >= 0.0).sum())
        worst = max(worst, float(diffs.max()) if diffs.size else 0.0)
    results.append(
        PropertyCheck("two_point_entropy_monotone", trials, violations, max(0.0, worst), violations == 0)
    )

    # chi-square as sum p^2/q - 1 agrees with the (p-q)^2/q form.
    trials, violations, worst = 0, 0, 0.0
    for p, q in _random_dist_pairs(rng, 1000):
        gap = abs((p * p / q).sum() - 1.0 - chi2(p, q))
        trials += 1
        worst = max(worst, gap)
        if gap > 1e-12:
            violations += 1
    results.append(PropertyCheck("chi2_moment_identity", trials, violations, worst, violations == 0))

    # KL bounded by half of TV plus chi-square (nats).
    trials, violations, worst = 0, 0, 0.0
    for p, q in _random_dist_pairs(rng, 1000):
        gap = kl(p, q) - 0.5 * (tv(p, q) + chi2(p, q))
        trials += 1
        worst = max(worst, gap)
        if gap > 1e-12:
            violations += 1
    results.append(PropertyCheck("kl_tv_chi2_bound", trials, violations, worst, violations == 0))

    # Entropy up implies max confidence down, over random two-mass pairs;
    # the worst violation is the largest rise in max confidence.
    trials, violations, worst = 100_000, 0, 0.0
    for done in range(0, trials, _TWO_MASS_CHUNK):
        ks, star_a, star_b = _two_mass_draws(rng, min(_TWO_MASS_CHUNK, trials - done))
        for k in np.unique(ks).tolist():
            pick = ks == k
            pa, pb = _two_mass_rows(star_a[pick], k), _two_mass_rows(star_b[pick], k)
            failed = ~lemma1_check(pa, pb)
            if failed.any():
                violations += int(failed.sum())
                rise = pb.max(axis=1) - pa.max(axis=1)
                worst = max(worst, float(rise[failed].max()))
    results.append(
        PropertyCheck("two_mass_entropy_confidence", trials, violations, worst, violations == 0)
    )

    # Small-shift chi-square matches delta^2 times the Fisher information.
    ratio = chi2_gaussian_shift(0.01, 1.0) / (0.01**2 * fisher_info_gaussian(1.0))
    small_ok = 0.9999 <= ratio <= 1.0001
    results.append(
        PropertyCheck("chi2_fisher_small_shift", 1, int(not small_ok), abs(ratio - 1.0), small_ok)
    )

    ratios = [
        chi2_gaussian_shift(d, 1.0) / (d**2 * fisher_info_gaussian(1.0)) for d in (0.5, 0.1, 0.01)
    ]
    mono_ok = ratios[0] > ratios[1] > ratios[2] >= 1.0
    results.append(
        PropertyCheck(
            "chi2_fisher_ratio_monotone",
            len(ratios),
            int(not mono_ok),
            max(r - 1.0 for r in ratios),
            mono_ok,
        )
    )

    # Closed form against numeric quadrature of the shifted-Gaussian integral.
    trials, violations, worst = 0, 0, 0.0
    for delta, sigma in ((0.5, 1.0), (0.25, 0.5), (1.0, 2.0)):
        gap = abs(chi2_gaussian_shift(delta, sigma) - _chi2_gaussian_quadrature(delta, sigma))
        trials += 1
        worst = max(worst, gap)
        if gap > 1e-8:
            violations += 1
    results.append(
        PropertyCheck("chi2_gaussian_quadrature", trials, violations, worst, violations == 0)
    )

    # Binned empirical TV recovers the analytic Gaussian value.
    a = rng.normal(0.0, 1.0, size=100_000)
    b = rng.normal(3.0, 1.0, size=100_000)
    gap = abs(score_dist_tv(a, b, 100) - analytic_gaussian_tv(3.0, 1.0))
    results.append(PropertyCheck("score_dist_tv_gaussian", 1, int(gap > 0.02), gap, gap <= 0.02))

    return results
