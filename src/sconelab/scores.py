"""Confidence scoring from logits: max-softmax and negative-entropy scores
and their logits gradients, threshold fitting, and hard and sigmoid-smoothed
threshold-count estimates. The anchor that drift is measured against is
scored by the trainer from RunState's probes, not kept here.

Every score goes through unit_scores_grad_logits, so the anchor, the
probe scores whose drift from it is measured, the fitted ATC threshold and
the record use one formula and agree bit for bit at equal logits.

Negative-entropy scores are affinely rescaled to [0, 1] before any
smoothing or drift comparison so the smoothing width, drift tolerance and
drift cap share one scale across score kinds; the rescaling is monotone so
threshold semantics are unchanged.
"""

from __future__ import annotations

import enum

import numpy as np

from .model import log_softmax_energy, sigmoid


class ScoreKind(enum.Enum):
    MAX_CONFIDENCE = "max_confidence"
    NEG_ENTROPY = "neg_entropy"


def unit_scores_grad_logits(logits: np.ndarray, kind: ScoreKind):
    """Unit-interval scores of softmax(logits) and their logits gradient.

    For the row max the gradient is the softmax Jacobian row of the argmax
    entry; ties are broken by the lowest class index (measure zero under
    random logits). For negative entropy, ds/dz_j = p_j (log p_j - r) / log K.
    """
    logp, _ = log_softmax_energy(logits)
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
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    err_rate = float((~correct).mean())
    candidates = np.concatenate([[-np.inf], (s[:-1] + s[1:]) / 2.0, [np.inf]])
    frac_below = np.searchsorted(s, candidates, side="left") / n
    return float(candidates[int(np.argmin(np.abs(frac_below - err_rate)))])


def hard_atc(scores: np.ndarray, delta: float) -> float:
    """Counting fraction of scores strictly below delta; delta may be
    infinite, as atc_threshold's sentinels are, but not NaN."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("empty score vector")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if np.isnan(delta):
        raise ValueError(f"threshold delta must not be NaN, got {delta}")
    return float((s < delta).mean())


def diff_atc_grad_logits(logits: np.ndarray, kind: ScoreKind, delta: float, omega: float):
    """Smoothed ATC, mean sigmoid((delta - s)/omega) over the unit scores s,
    and its gradient w.r.t. the logits."""
    if not omega > 0.0:
        raise ValueError(f"smoothing width omega must be > 0, got {omega}")
    s, ds_dz = unit_scores_grad_logits(logits, kind)
    n = s.size
    sig = sigmoid((delta - s) / omega)
    dval_ds = -sig * (1.0 - sig) / (omega * n)
    return float(sig.mean()), dval_ds[:, None] * ds_dz


def diff_ac_grad_logits(logits: np.ndarray):
    """AC, the mean max-softmax confidence, and its gradient w.r.t. the logits."""
    s, ds_dz = unit_scores_grad_logits(logits, ScoreKind.MAX_CONFIDENCE)
    return float(s.mean()), ds_dz / s.size
