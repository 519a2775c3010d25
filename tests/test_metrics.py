from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconelab.losses import Hyperparams, LossBreakdown, total_loss
from sconelab.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    accuracy,
    evaluate_timestep,
    fit_threshold,
    fpr_at_tpr,
)
from sconelab.model import init_params
from sconelab.scores import ScoreKind
from sconelab.stream import (
    StreamConfig,
    make_snapshot,
    make_timestep_splits,
    sample_labeled,
    substream,
)


def brute_force_fit_threshold(id_scores, target_tpr):
    """Rank scan over every candidate: keep the largest threshold whose
    strictly-greater fraction meets the target; otherwise step below min."""
    scores = list(id_scores)
    n = len(scores)
    best = None
    for cand in scores:
        kept = sum(1 for s in scores if s > cand)
        if kept / n >= target_tpr and (best is None or cand > best):
            best = cand
    if best is None:
        return float(np.nextafter(min(scores), -np.inf))
    return float(best)


def brute_force_fpr(id_scores, ood_scores, target_tpr):
    lam = brute_force_fit_threshold(id_scores, target_tpr)
    return sum(1 for s in ood_scores if s > lam) / len(ood_scores)


def test_fit_threshold_rank_example():
    scores = np.arange(1.0, 101.0)
    assert fit_threshold(scores, 0.95) == 5.0
    assert fit_threshold(scores, 0.95) == brute_force_fit_threshold(scores, 0.95)


def test_fit_threshold_tie_steps_below():
    scores = np.full(50, 3.25)
    lam = fit_threshold(scores, 0.95)
    assert lam == np.nextafter(3.25, -np.inf)
    assert (scores > lam).mean() == 1.0


def test_fit_threshold_full_acceptance():
    scores = np.arange(1.0, 41.0)
    lam = fit_threshold(scores, 1.0)
    assert lam < scores.min()
    assert (scores > lam).mean() == 1.0


def test_fit_threshold_requires_enough_scores():
    with pytest.raises(ValueError, match="at least 20"):
        fit_threshold(np.arange(10.0))


def test_fit_threshold_realized_tpr_property():
    r = np.random.default_rng(0)
    for _ in range(200):
        n = int(r.integers(20, 400))
        scores = r.normal(size=n)
        if np.unique(scores).size < n:
            continue
        lam = fit_threshold(scores, 0.95)
        tpr = (scores > lam).mean()
        assert tpr >= 0.95
        assert tpr - 0.95 <= 1.0 / n + 1e-12


def test_fit_threshold_matches_brute_force_randomized():
    r = np.random.default_rng(1)
    for _ in range(100):
        n = int(r.integers(20, 120))
        scores = np.round(r.normal(size=n), int(r.integers(0, 3)))  # force some ties
        assert fit_threshold(scores, 0.95) == brute_force_fit_threshold(scores, 0.95)


def test_fpr_perfect_separation():
    id_scores = np.linspace(10, 20, 50)
    ood = np.linspace(0, 5, 30)
    assert fpr_at_tpr(id_scores, ood)[0] == 0.0


def test_fpr_shared_multiset_gives_target_complement():
    r = np.random.default_rng(2)
    id_scores = r.normal(size=100)
    ood = r.permutation(id_scores)
    got = fpr_at_tpr(id_scores, ood, 0.95)[0]
    assert got == pytest.approx(0.95)
    assert got == pytest.approx(brute_force_fpr(id_scores, ood, 0.95))


def test_fpr_total_confusion():
    id_scores = np.linspace(0, 1, 40)
    ood = np.linspace(5, 6, 25)
    assert fpr_at_tpr(id_scores, ood)[0] == 1.0


def test_fpr_empty_inputs_rejected():
    with pytest.raises(ValueError):
        fpr_at_tpr(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        fpr_at_tpr(np.arange(25.0), np.array([]))


def test_fpr_matches_brute_force_randomized():
    r = np.random.default_rng(3)
    for _ in range(200):
        n = int(r.integers(20, 150))
        m = int(r.integers(1, 150))
        id_scores = np.round(r.normal(size=n), 2)
        ood = np.round(r.normal(0.5, 1.2, size=m), 2)
        assert fpr_at_tpr(id_scores, ood, 0.95) == (
            brute_force_fpr(id_scores, ood, 0.95),
            brute_force_fit_threshold(id_scores, 0.95),
        )


@given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_fpr_invariant_under_increasing_transform(scale, shift):
    r = np.random.default_rng(4)
    id_scores = r.normal(size=60)
    ood = r.normal(0.5, 1.0, size=40)
    base = fpr_at_tpr(id_scores, ood)[0]
    # strictly increasing map applied jointly to both score sets
    transformed = fpr_at_tpr(np.tanh(scale * id_scores + shift), np.tanh(scale * ood + shift))[0]
    assert base == transformed


def test_accuracy_one_hot_and_tie_break():
    labels = np.array([0, 1, 2])
    one_hot = np.eye(3)[labels]
    assert accuracy(one_hot, labels) == 1.0
    zeros = np.zeros((4, 3))
    assert accuracy(zeros, np.zeros(4, dtype=int)) == 1.0  # lowest-index tie-break
    assert accuracy(zeros, np.ones(4, dtype=int)) == 0.0


def test_accuracy_matches_scalar_loop_oracle():
    r = np.random.default_rng(5)
    logits = r.normal(size=(64, 5))
    labels = r.integers(0, 5, size=64)
    hits = 0
    for i in range(64):
        best, best_j = -np.inf, None
        for j in range(5):
            if logits[i, j] > best:
                best, best_j = logits[i, j], j
        hits += best_j == labels[i]
    assert accuracy(logits, labels) == hits / 64


SEED = 11


def _splits(t=1, test_size=120):
    cfg = StreamConfig(num_timesteps=3, num_classes=4, input_dim=5, samples_per_split=256)
    return cfg, make_timestep_splits(cfg, SEED, t, probe_size=64, val_size=64, test_size=test_size)


def _zero_loss():
    return total_loss(Hyperparams(), 0.0, 0.0, 0.0, 0.0, 0.0)


def test_evaluate_zero_weight_model_hits_class_prior():
    cfg, splits = _splits()
    params = init_params(5, 4, hidden_sizes=(6,), rng=np.random.default_rng(0))
    for i in range(len(params.layer_weights)):
        params.layer_weights[i][:] = 0.0
    record = evaluate_timestep(
        params, splits, ScoreKind.MAX_CONFIDENCE, 0.5, (0.0, 0.0), _zero_loss()
    )
    # all-zero logits predict class 0 on a balanced split: accuracy = 1/K
    assert record.id_acc == pytest.approx(1.0 / 4.0)


def test_evaluate_semantic_equals_id_gives_target_complement_fpr():
    cfg, splits = _splits(test_size=2000)
    params = init_params(5, 4, hidden_sizes=(8,), rng=np.random.default_rng(1))
    # make the semantic test set a fresh draw from the ID distribution
    splits.test_sem_x, _ = sample_labeled(make_snapshot(cfg, SEED, splits.t), 2000, substream(123, 77))
    record = evaluate_timestep(
        params, splits, ScoreKind.MAX_CONFIDENCE, 0.5, (0.0, 0.0), _zero_loss()
    )
    assert record.fpr95 == pytest.approx(0.95, abs=0.03)


def test_evaluate_loss_breakdown_reconstructs():
    cfg, splits = _splits()
    hp = Hyperparams(lambda_out=0.5, lambda_in=2.0)
    bd = total_loss(hp, 1.1, 0.4, 0.3, 0.02, 1.2)
    params = init_params(5, 4, rng=np.random.default_rng(2))
    record = evaluate_timestep(
        params, splits, ScoreKind.MAX_CONFIDENCE, 0.5, (0.0, 0.0), bd
    )
    loss = record.loss
    rebuilt = loss.ce + hp.lambda_in * loss.l_in + hp.lambda_out * loss.l_out + loss.l_temp
    assert abs(rebuilt - loss.total) <= 1e-12


def test_record_serialization_round_trip():
    import json

    cfg, splits = _splits()
    params = init_params(5, 4, rng=np.random.default_rng(4))
    record = evaluate_timestep(
        params, splits, ScoreKind.MAX_CONFIDENCE, 0.5, (0.0, 0.0), _zero_loss()
    )
    row = record.to_row()
    assert len(row) == 17
    parsed = json.loads(record.to_json())
    assert parsed["t"] == splits.t
    assert parsed["id_acc"] == record.id_acc


def test_record_columns_follow_the_dataclass_fields():
    loss = LossBreakdown(*(100.0 + i for i in range(len(fields(LossBreakdown)))))
    own = [f.name for f in fields(MetricsRecord) if f.name != "loss"]
    record = MetricsRecord(*range(len(own)), loss=loss)
    assert CSV_COLUMNS[0] == "t"  # summary.csv drops it and averages the rest
    assert dict(zip(CSV_COLUMNS, record.to_row())) == {
        **{name: getattr(record, name) for name in own},
        **{f"loss_{f.name}": getattr(loss, f.name) for f in fields(LossBreakdown)},
    }
