"""Threshold detector, FPR-at-TPR, accuracies, and per-timestep records.

Detection thresholds the negated energy (higher means more
in-distribution), the quantity the energy margins train, with no learned
parameter of its own, so the reported detection metrics stay comparable
across methods and epochs. The record's fpr95 and threshold
are fpr_at_tpr's, refit on each timestep's ID test split. The record's ATC
and AC values are scored from the test logits by the same formula as the
trainer's probe scores, ATC under the threshold delta that the trainer
fits on the timestep's own validation split with the same model.

The record dataclasses are the only schema: CSV_COLUMNS is the
MetricsRecord fields other than `loss`, then loss_<name> for each
LossBreakdown field, so a new column is one new field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .losses import LossBreakdown
from .model import ModelParams, energy, forward
from .scores import ScoreKind, diff_ac_grad_logits, hard_atc, unit_scores_grad_logits
from .stream import TimestepSplits

@dataclass(frozen=True)
class MetricsRecord:
    """Held-out metrics and training loss of one timestep.

    `loss` is the mean over the minibatches of the timestep's last epoch
    only; earlier epochs of the timestep leave no trace in the record.
    """

    t: int
    id_acc: float
    ood_acc: float
    fpr95: float
    lambda_threshold: float
    atc_in: float
    atc_cov: float
    ac_in: float
    ac_cov: float
    drift_d_id: float
    drift_d_cov: float
    loss: LossBreakdown

    def to_row(self) -> list:
        """Values in CSV_COLUMNS order."""
        return [getattr(self, name) for name in _RECORD_FIELDS] + [
            getattr(self.loss, name) for name in _LOSS_FIELDS
        ]

    def to_json(self) -> str:
        return json.dumps(dict(zip(CSV_COLUMNS, self.to_row())), sort_keys=True)


_RECORD_FIELDS = tuple(f.name for f in fields(MetricsRecord) if f.name != "loss")
_LOSS_FIELDS = tuple(f.name for f in fields(LossBreakdown))
# The record's own fields, then loss_<name> for each LossBreakdown field.
CSV_COLUMNS = _RECORD_FIELDS + tuple(f"loss_{name}" for name in _LOSS_FIELDS)


def fit_threshold(id_detection_scores: np.ndarray, target_tpr: float = 0.95) -> float:
    """Largest threshold that keeps at least target_tpr of the ID scores
    strictly above it.

    Candidates are the ID order statistics; if none qualifies (ties at the
    bottom, or target_tpr = 1), the threshold steps one ulp below the
    minimum score so every ID sample is accepted.
    """
    s = np.sort(np.asarray(id_detection_scores, dtype=float))
    n = s.size
    if n < 20:
        raise ValueError(f"need at least 20 ID scores to fit a threshold, got {n}")
    # np.unique would import numpy.ma; a tied candidate repeats its own TPR
    tpr_at = (n - np.searchsorted(s, s, side="right")) / n
    feasible = s[tpr_at >= target_tpr]
    if feasible.size == 0:
        return float(np.nextafter(s[0], -np.inf))
    return float(feasible.max())


def fpr_at_tpr(
    id_scores: np.ndarray, ood_scores: np.ndarray, target_tpr: float = 0.95
) -> tuple[float, float]:
    """Fraction of OOD scores above the ID-fitted detector threshold;
    returns (fpr, threshold)."""
    ood = np.asarray(ood_scores, dtype=float)
    if ood.size == 0 or np.asarray(id_scores).size == 0:
        raise ValueError("need nonempty ID and OOD score vectors")
    lam = fit_threshold(id_scores, target_tpr)
    return float((ood > lam).mean()), lam


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; ties resolve to the lowest class index."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels)
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"got {z.shape[0]} logit rows for {y.shape[0]} labels")
    return float((np.argmax(z, axis=1) == y).mean())


def evaluate_timestep(
    params: ModelParams,
    splits: TimestepSplits,
    score_kind: ScoreKind,
    delta: float,
    drift: tuple[float, float],
    breakdown: LossBreakdown,
) -> MetricsRecord:
    """Assemble the timestep's record from held-out test splits.

    drift is the (d_id, d_cov) the timestep's last epoch measured. The test
    splits come from substreams of their own, so they share no rows with the
    training data; the covariate rows are scored against the ID labels.
    """
    logits_id = forward(params, splits.test_id_x)
    logits_cov = forward(params, splits.test_cov_x)
    logits_sem = forward(params, splits.test_sem_x)

    fpr, lam = fpr_at_tpr(-energy(logits_id), -energy(logits_sem))

    return MetricsRecord(
        t=splits.t,
        id_acc=accuracy(logits_id, splits.test_id_y),
        ood_acc=accuracy(logits_cov, splits.test_id_y),
        fpr95=fpr,
        lambda_threshold=lam,
        atc_in=hard_atc(unit_scores_grad_logits(logits_id, score_kind)[0], delta),
        atc_cov=hard_atc(unit_scores_grad_logits(logits_cov, score_kind)[0], delta),
        ac_in=diff_ac_grad_logits(logits_id)[0],
        ac_cov=diff_ac_grad_logits(logits_cov)[0],
        drift_d_id=drift[0],
        drift_d_cov=drift[1],
        loss=breakdown,
    )
