"""Confidence scoring: max-softmax and negative-entropy scores, threshold
fitting, hard and sigmoid-smoothed threshold-count estimates, and the
per-mode temporal state the drift penalty compares against.

Negative-entropy scores are affinely rescaled to [0, 1] before any
smoothing or drift comparison so the smoothing width, drift tolerance and
drift cap share one scale across score kinds; the rescaling is monotone so
threshold semantics are unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .model import log_softmax


class ScoreKind(enum.Enum):
    MAX_CONFIDENCE = "max_confidence"
    NEG_ENTROPY = "neg_entropy"


@dataclass
class TemporalState:
    """Per-mode carry-over between timesteps.

    prev_in_score / prev_cov_score are the probe scores stored at the end
    of the previous timestep (absent until one completes). history collects
    (t, loss, weight, d_id, d_cov) tuples, one per temporal-loss evaluation.
    """

    mode: str  # "atc" or "ac"
    prev_in_score: float | None = None
    prev_cov_score: float | None = None
    history: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("atc", "ac"):
            raise ValueError(f"mode must be 'atc' or 'ac', got {self.mode!r}")


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError(f"probs must be [n, K>=2], got shape {p.shape}")
    if p.min() < -1e-12:
        raise ValueError(f"negative probability entry: {p.min()}")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if bad.any():
        raise ValueError(f"row {int(np.argmax(bad))} sums to {sums[bad][0]}, not 1")
    return p


def confidence_scores(probs: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """Raw per-row score: row max, or sum p log p (0 log 0 := 0)."""
    p = _validate_probs(probs)
    if kind is ScoreKind.MAX_CONFIDENCE:
        return p.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=1)


def unit_scores(probs: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """Scores mapped monotonically into [0, 1]."""
    raw = confidence_scores(probs, kind)
    if kind is ScoreKind.MAX_CONFIDENCE:
        return raw
    k = np.asarray(probs).shape[1]
    return (raw + np.log(k)) / np.log(k)


def unit_scores_grad_logits(logits: np.ndarray, kind: ScoreKind):
    """Unit-interval scores of softmax(logits) and their logits gradient.

    For the row max the gradient is the softmax Jacobian row of the argmax
    entry; ties are broken by the lowest class index (measure zero under
    random logits). For negative entropy, ds/dz_j = p_j (log p_j - r) / log K.
    """
    logp = log_softmax(np.asarray(logits, dtype=float))
    p = np.exp(logp)
    n, k = p.shape
    if kind is ScoreKind.MAX_CONFIDENCE:
        star = np.argmax(p, axis=1)
        s = p[np.arange(n), star]
        grad = -p * s[:, None]
        grad[np.arange(n), star] += s
        return s, grad
    r = (p * np.where(p > 0.0, logp, 0.0)).sum(axis=1)
    grad = p * (np.where(p > 0.0, logp, 0.0) - r[:, None]) / np.log(k)
    s = (r + np.log(k)) / np.log(k)
    return s, grad


def atc_threshold(val_scores: np.ndarray, val_correct: np.ndarray) -> float:
    """Threshold whose sub-threshold fraction best matches the error rate.

    Candidates are midpoints between adjacent sorted scores plus -inf/+inf
    sentinels; ties go to the smallest candidate.
    """
    s = np.sort(np.asarray(val_scores, dtype=float))
    correct = np.asarray(val_correct, dtype=bool)
    n = s.size
    if n == 0 or correct.size != n:
        raise ValueError("need equal-length, nonempty score and correctness vectors")
    err_rate = float((~correct).mean())
    candidates = np.concatenate([[-np.inf], (s[:-1] + s[1:]) / 2.0, [np.inf]])
    frac_below = np.searchsorted(s, candidates, side="left") / n
    return float(candidates[int(np.argmin(np.abs(frac_below - err_rate)))])


def hard_atc(scores: np.ndarray, delta: float) -> float:
    """Counting fraction of scores strictly below delta."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("empty score vector")
    return float((s < delta).mean())


def diff_atc(probs: np.ndarray, kind: ScoreKind, delta: float, omega: float) -> float:
    """Sigmoid-smoothed sub-threshold fraction: mean sigmoid((delta - s)/omega)."""
    if omega <= 0.0:
        raise ValueError(f"smoothing width omega must be > 0, got {omega}")
    s = unit_scores(probs, kind)
    return float(expit((delta - s) / omega).mean())


def diff_atc_grad_logits(logits: np.ndarray, kind: ScoreKind, delta: float, omega: float):
    """diff_atc on softmax(logits) plus its gradient w.r.t. the logits."""
    if omega <= 0.0:
        raise ValueError(f"smoothing width omega must be > 0, got {omega}")
    s, ds_dz = unit_scores_grad_logits(logits, kind)
    n = s.size
    sig = expit((delta - s) / omega)
    dval_ds = -sig * (1.0 - sig) / (omega * n)
    return float(sig.mean()), dval_ds[:, None] * ds_dz


def diff_ac(probs: np.ndarray) -> float:
    """Mean max-softmax confidence of the batch."""
    p = _validate_probs(probs)
    return float(p.max(axis=1).mean())


def diff_ac_grad_logits(logits: np.ndarray):
    """diff_ac on softmax(logits) plus its gradient w.r.t. the logits."""
    s, ds_dz = unit_scores_grad_logits(logits, ScoreKind.MAX_CONFIDENCE)
    return float(s.mean()), ds_dz / s.size
