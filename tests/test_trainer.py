import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from sconelab import metrics as metrics_mod
from sconelab import model as model_mod
from sconelab import trainer as trainer_mod
from sconelab.losses import Hyperparams, LossBreakdown, total_loss
from sconelab.metrics import evaluate_timestep, fit_threshold, fpr_at_tpr
from sconelab.model import OptimizerConfig, energy, forward, init_params
from sconelab.scores import ScoreKind, hard_atc, unit_scores_grad_logits
from sconelab.stream import StreamConfig, substream
from sconelab.trainer import (
    RunConfig,
    RunState,
    _mean_breakdown,
    _minibatch_loss_grads,
    initialize,
    run_stream,
    train_timestep,
)


def small_cfg(method="temp_scone_atc", seed=0, **kwargs):
    stream = kwargs.pop(
        "stream",
        StreamConfig(num_timesteps=3, num_classes=4, input_dim=5, samples_per_split=384),
    )
    defaults = dict(
        stream=stream,
        optimizer=OptimizerConfig(base_lr=0.01, batch_size=128),
        hyper=Hyperparams(),
        method=method,
        epochs_per_timestep=3,
        probe_size=96,
        seed=seed,
        hidden_sizes=(16, 16),
        val_size=96,
        test_size=256,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def params_equal(a, b):
    return all(
        np.array_equal(wa, wb)
        for (_, wa), (_, wb) in zip(a.named_arrays(), b.named_arrays())
    )


def _probes(splits):
    return splits.probe_in, splits.probe_cov


def _fresh_setup(cfg, t=1):
    splits = trainer_mod._splits(cfg, t)
    params = init_params(
        cfg.stream.input_dim, cfg.stream.num_classes, cfg.hidden_sizes, substream(cfg.seed, 1)
    )
    return splits, params


def test_mean_breakdown_is_fieldwise_mean_and_total_of_the_means():
    hp = Hyperparams(lambda_out=0.7)
    r = np.random.default_rng(1)
    # five distinct terms per part, so a term read from the wrong field shows
    parts = [total_loss(hp, *r.uniform(0.01, 2.0, size=5).tolist()) for _ in range(3)]
    mean = _mean_breakdown(parts, hp)
    terms = [f.name for f in fields(LossBreakdown)][:-1]
    expected = [float(np.mean([getattr(p, name) for p in parts])) for name in terms]
    assert [getattr(mean, name) for name in terms] == expected
    assert mean.total == total_loss(hp, *expected).total
    # these draws round differently, so the mean of the totals would not pass
    assert mean.total != np.mean([p.total for p in parts])


def test_temporal_loss_constant_within_epoch(monkeypatch):
    cfg = small_cfg(epochs_per_timestep=4)
    splits, params = _fresh_setup(cfg)
    state = RunState(params.copy(), params.zeros_like(), _probes(splits), delta=0.5)
    values = []
    temporal_loss_grad = trainer_mod.temporal_loss_grad

    def spy(*args):
        out = temporal_loss_grad(*args)
        values.append(out[0])
        return out

    monkeypatch.setattr(trainer_mod, "temporal_loss_grad", spy)
    record = train_timestep(state, splits, cfg)
    assert len(values) == 4  # one temporal evaluation per epoch
    assert record.loss.l_temp == pytest.approx(values[-1])


@pytest.mark.parametrize(
    "method,kind",
    [
        ("temp_scone_atc", ScoreKind.MAX_CONFIDENCE),
        ("temp_scone_atc", ScoreKind.NEG_ENTROPY),
        ("temp_scone_ac", ScoreKind.MAX_CONFIDENCE),
        ("temp_scone_ac", ScoreKind.NEG_ENTROPY),
    ],
)
def test_stored_probe_scores_equal_epoch_term_scores(monkeypatch, method, kind):
    """The anchor a timestep scores from the probes it is handed is, bit for
    bit, what its first epoch's temporal term computes from the same
    parameters and probes, so an unchanged model measures a drift of
    exactly 0.0. Checked from every parameter set of a trained run's trace."""
    cfg = small_cfg(method=method, score_kind=kind, epochs_per_timestep=10)
    trace = []
    run_stream(cfg, param_trace=trace)
    splits, _ = _fresh_setup(cfg, t=2)
    seen = []
    measure = trainer_mod.drift

    def spy(anchor, s_in, s_cov):
        out = measure(anchor, s_in, s_cov)
        seen.append((anchor, (s_in, s_cov), out))
        return out

    monkeypatch.setattr(trainer_mod, "drift", spy)
    replay = replace(cfg, epochs_per_timestep=1)
    for trained in trace:
        delta = trainer_mod._fit_delta(trained, splits, kind)
        state = RunState(trained.copy(), trained.zeros_like(), _probes(splits), delta)
        train_timestep(state, splits, replay)
        anchor, scores, drift = seen[-1]
        assert anchor == scores
        assert drift == (0.0, 0.0)


@pytest.mark.parametrize("method", ["temp_scone_atc", "temp_scone_ac"])
def test_epoch_temporal_term_inactive_within_tolerance(method):
    cfg = small_cfg(method=method)
    hp = cfg.hyper
    splits, params = _fresh_setup(cfg)
    kind = cfg.score_kind
    delta = trainer_mod._fit_delta(params, splits, kind)
    s_in = trainer_mod._probe_score(params, splits.probe_in, cfg, delta)[0]

    def term(drift):
        # the ID score fell by drift; the covariate score fell, which is no drift
        prev_scores = (s_in + drift, 2.0)
        return trainer_mod._epoch_temporal_term(params, splits, prev_scores, cfg, delta)

    l_temp, w_temp, d_id, d_cov, g_temp = term(0.5 * hp.epsilon)
    assert d_id > 0.0 and d_cov == 0.0 and d_id <= hp.epsilon
    assert l_temp == w_temp == 0.0 and g_temp is None
    l_temp, _, _, _, g_temp = term(2.0 * hp.epsilon)
    assert l_temp > 0.0 and np.isfinite(g_temp.vec).all()


def test_run_state_hand_off(monkeypatch):
    """What each timestep leaves in RunState for the next one, and how the
    next one reads it."""
    cfg = small_cfg(epochs_per_timestep=1)
    kind = cfg.score_kind
    splits_0, params = _fresh_setup(cfg, t=0)
    state = RunState(params, params.zeros_like())
    train_timestep(state, splits_0, cfg)
    # t = 0 fits delta on its final params and leaves its own probes
    delta_0 = trainer_mod._fit_delta(state.params, splits_0, kind)
    assert state.delta == delta_0
    assert all(a is b for a, b in zip(state.probes, _probes(splits_0)))

    # t = 1 scores those probes once, with the params it starts from, under
    # delta_0: that anchor is what its epoch term measures drift against
    anchor = tuple(
        trainer_mod._probe_score(state.params, probe, cfg, delta_0)[0] for probe in state.probes
    )
    seen = []
    drift = trainer_mod.drift

    def spy(*args):
        seen.append(args[0])
        return drift(*args)

    monkeypatch.setattr(trainer_mod, "drift", spy)
    splits_1, _ = _fresh_setup(cfg, t=1)
    record = train_timestep(state, splits_1, cfg)
    assert seen == [anchor]
    assert all(a is b for a, b in zip(state.probes, _probes(splits_1)))
    # t = 1 fits its own delta on its final params, and its record uses it
    assert state.delta == trainer_mod._fit_delta(state.params, splits_1, kind) != delta_0
    drift = (record.drift_d_id, record.drift_d_cov)
    expected = evaluate_timestep(state.params, splits_1, kind, state.delta, drift, record.loss)
    stale = evaluate_timestep(state.params, splits_1, kind, delta_0, drift, record.loss)
    assert record == expected
    assert (stale.atc_in, stale.atc_cov) != (record.atc_in, record.atc_cov)


def test_record_atc_uses_the_delta_fitted_on_its_own_model():
    """Each record's ATC columns are hard_atc of its test scores under the
    delta fitted on its own timestep's validation split, by the params the
    timestep finished with."""
    cfg = small_cfg()
    kind = cfg.score_kind
    trace = []
    records = run_stream(cfg, param_trace=trace)
    for t, (record, params) in enumerate(zip(records, trace)):
        splits = trainer_mod._splits(cfg, t)
        delta = trainer_mod._fit_delta(params, splits, kind)
        atc = [
            hard_atc(unit_scores_grad_logits(forward(params, x), kind)[0], delta)
            for x in (splits.test_id_x, splits.test_cov_x)
        ]
        assert [record.atc_in, record.atc_cov] == atc, t


def test_record_detection_fields_are_fpr_at_tpr():
    """A trained timestep's fpr95 and lambda_threshold are what fpr_at_tpr
    and fit_threshold give for -energy of its test logits."""
    cfg = small_cfg()
    trace = []
    records = run_stream(cfg, param_trace=trace)
    for t in (1, 2):
        splits = trainer_mod._splits(cfg, t)
        id_scores = -energy(forward(trace[t], splits.test_id_x))
        sem_scores = -energy(forward(trace[t], splits.test_sem_x))
        record = records[t]
        assert (record.fpr95, record.lambda_threshold) == fpr_at_tpr(id_scores, sem_scores)
        assert record.lambda_threshold == fit_threshold(id_scores)


def test_scone_reduction_bitwise_identical():
    hyper = Hyperparams(lambda_base=0.0)
    trace_a, trace_b = [], []
    recs_a = run_stream(small_cfg(method="scone", hyper=hyper), param_trace=trace_a)
    recs_b = run_stream(small_cfg(method="temp_scone_atc", hyper=hyper), param_trace=trace_b)
    assert len(trace_a) == len(trace_b) == 3
    for pa, pb in zip(trace_a, trace_b):
        assert params_equal(pa, pb)
    for ra, rb in zip(recs_a, recs_b):
        assert ra == rb


def test_temporal_weight_changes_trajectory():
    """On small_cfg the temporal term fires at t = 1, past delta_max, so at
    the capped weight 2 * lambda_base, and moves temp_scone_atc off scone's
    trajectory from there on. Both train the same timestep 0."""
    traces = {"scone": [], "temp_scone_atc": []}
    records = {m: run_stream(small_cfg(method=m), param_trace=traces[m]) for m in traces}
    scone, temp = records["scone"], records["temp_scone_atc"]
    assert [r.loss.l_temp for r in scone] == [r.loss.w_temp for r in scone] == [0.0] * 3
    assert temp[1].loss.l_temp == pytest.approx(0.706, abs=5e-4)
    assert temp[1].loss.w_temp == 2.0 * small_cfg().hyper.lambda_base
    same = [params_equal(a, b) for a, b in zip(traces["scone"], traces["temp_scone_atc"])]
    assert same == [True, False, False]
    assert scone[0] == temp[0]
    assert scone[1] != temp[1] and scone[2] != temp[2]


def test_run_stream_single_timestep_is_ce_only():
    cfg = small_cfg(stream=StreamConfig(num_timesteps=1, num_classes=4, input_dim=5, samples_per_split=384))
    records = run_stream(cfg)
    assert len(records) == 1
    loss = records[0].loss
    assert loss.l_in == 0.0 and loss.l_out == 0.0 and loss.l_temp == 0.0
    assert loss.total == loss.ce


def test_initialize_stores_no_probe_scores(monkeypatch):
    """Timestep 0 scores no probe: it leaves its probe batches, and each
    run_stream's timestep 1 scores them under its own method."""
    calls = []
    probe_score = trainer_mod._probe_score

    def spy(*args):
        calls.append(args)
        return probe_score(*args)

    monkeypatch.setattr(trainer_mod, "_probe_score", spy)
    cfg = small_cfg()
    init = initialize(cfg)
    assert calls == []
    probes_0 = _probes(trainer_mod._splits(cfg, 0))
    assert all(np.array_equal(a, b) for a, b in zip(init.state.probes, probes_0))


@pytest.mark.parametrize("method", trainer_mod.METHODS)
def test_run_scores_each_probe_batch_it_reads(monkeypatch, method):
    """Every trained timestep scores the two probes it was handed once, for
    its anchor, and its own two in every epoch; no timestep scores probes
    that nothing reads."""
    cfg = small_cfg(method=method)
    calls = []
    probe_score = trainer_mod._probe_score

    def spy(*args):
        calls.append(args)
        return probe_score(*args)

    monkeypatch.setattr(trainer_mod, "_probe_score", spy)
    run_stream(cfg)
    timesteps, epochs = cfg.stream.num_timesteps, cfg.epochs_per_timestep
    assert len(calls) == (timesteps - 1) * 2 * (epochs + 1)


@pytest.mark.parametrize("method", ["temp_scone_atc", "temp_scone_ac", "scone"])
def test_unchanged_model_measures_zero_drift_on_its_own_anchor(monkeypatch, method):
    """Timestep 2 replays timestep 1's splits, so its first epoch scores the
    very probes its anchor came from, with the model that finished them:
    the drift is exactly 0.0, also though timestep 1 fitted a new delta."""
    cfg = small_cfg(method=method)
    splits = trainer_mod._splits
    monkeypatch.setattr(trainer_mod, "_splits", lambda c, t: splits(c, min(t, 1)))
    seen = []
    drift = trainer_mod.drift

    def spy(*args):
        out = drift(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(trainer_mod, "drift", spy)
    run_stream(cfg)
    assert len(seen) == 2 * cfg.epochs_per_timestep
    assert seen[cfg.epochs_per_timestep] == (0.0, 0.0)  # timestep 2, first epoch


def test_only_penalized_methods_compute_the_penalty(monkeypatch):
    """temporal_loss_grad runs once per epoch of every trained timestep for
    the two temporal methods and never for scone, whose record still holds
    the drift its last epoch measured."""
    cfg = small_cfg()
    calls = []
    temporal_loss_grad = trainer_mod.temporal_loss_grad

    def spy(*args):
        calls.append(args)
        return temporal_loss_grad(*args)

    monkeypatch.setattr(trainer_mod, "temporal_loss_grad", spy)
    counts = {}
    for method in trainer_mod.METHODS:
        calls.clear()
        run_stream(small_cfg(method=method))
        counts[method] = len(calls)
    per_run = (cfg.stream.num_timesteps - 1) * cfg.epochs_per_timestep
    assert counts == {"scone": 0, "temp_scone_atc": per_run, "temp_scone_ac": per_run}

    drifts = []
    drift = trainer_mod.drift

    def drift_spy(*args):
        drifts.append(drift(*args))
        return drifts[-1]

    monkeypatch.setattr(trainer_mod, "drift", drift_spy)
    records = run_stream(small_cfg(method="scone"))
    assert len(drifts) == per_run
    measured = [(r.drift_d_id, r.drift_d_cov) for r in records[1:]]
    epochs = cfg.epochs_per_timestep
    assert measured == drifts[epochs - 1 :: epochs]
    assert any(d != (0.0, 0.0) for d in measured)


@pytest.mark.parametrize("change", [dict(seed=1), dict(hidden_sizes=(16, 8))])
def test_run_stream_rejects_initialization_of_another_config(change):
    init = initialize(small_cfg(method="scone"))
    with pytest.raises(ValueError, match="another config"):
        run_stream(small_cfg(**change), init=init)


@pytest.mark.parametrize("method", trainer_mod.METHODS)
def test_run_stream_leaves_initialization_unchanged(method):
    # sgd_step writes in place, so the run must train copies of the init's arrays
    init = initialize(small_cfg())
    start = init.state
    params, momentum = start.params.vec.tobytes(), start.momentum.vec.tobytes()
    probes, delta = start.probes, start.delta
    trace = []
    run_stream(small_cfg(method), param_trace=trace, init=init)
    assert init.state is start
    assert start.params.vec.tobytes() == params
    assert start.momentum.vec.tobytes() == momentum
    assert start.probes is probes and start.delta == delta
    assert trace[-1].vec.tobytes() != params


def test_run_config_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"seed must be in \[0, inf\), got -1"):
        small_cfg(seed=-1)


def test_run_stream_deterministic():
    recs_a = run_stream(small_cfg(seed=5))
    recs_b = run_stream(small_cfg(seed=5))
    assert recs_a == recs_b
    assert [r.to_json() for r in recs_a] == [r.to_json() for r in recs_b]


def test_distinct_regime_trains_at_base_lr(monkeypatch):
    stream = StreamConfig(
        num_timesteps=3, num_classes=4, input_dim=5, samples_per_split=384, regime="distinct"
    )
    cfg = small_cfg(stream=stream)
    seen = {}  # timestep -> base_lr of every optimizer sgd_step received
    make_splits, step = trainer_mod.make_timestep_splits, trainer_mod.sgd_step

    def splits_spy(stream_cfg, seed, t, *args):
        seen[t] = set()
        return make_splits(stream_cfg, seed, t, *args)

    def step_spy(*args):
        seen[max(seen)].add(args[-1].base_lr)
        return step(*args)

    monkeypatch.setattr(trainer_mod, "make_timestep_splits", splits_spy)
    monkeypatch.setattr(trainer_mod, "sgd_step", step_spy)
    records = run_stream(cfg)
    assert len(records) == 3
    base = cfg.optimizer.base_lr
    # every timestep, also each fresh distinct domain from t = 2 on
    assert seen == {0: {base}, 1: {base}, 2: {base}}


def test_separable_snapshot_trains_to_high_accuracy():
    accs = []
    for seed in range(3):
        stream = StreamConfig(
            num_timesteps=2,
            num_classes=4,
            input_dim=5,
            samples_per_split=768,
            class_cov_scale=0.2,
            drift_angle_per_step=0.0,
            corruption_sigma=0.2,
        )
        cfg = small_cfg(stream=stream, seed=seed, epochs_per_timestep=10)
        accs.append(run_stream(cfg)[-1].id_acc)
    assert np.median(accs) >= 0.95


@pytest.mark.parametrize("bad_batch", ["id", "wild"])
def test_minibatch_loss_grads_rejects_nonfinite_logits(bad_batch):
    r = np.random.default_rng(3)
    params = init_params(5, 4, hidden_sizes=(8,), rng=r)
    x = r.normal(size=(6, 5))
    wild = r.normal(size=(6, 5))
    (x if bad_batch == "id" else wild)[2, 1] = np.nan
    with pytest.raises(ValueError, match="logits must be finite"):
        _minibatch_loss_grads(params, x, r.integers(0, 4, size=6), wild, Hyperparams())


def test_ce_only_config_trains_cross_entropy_alone():
    """lambda_out = lambda_in = 0 is the CE-only baseline: the minibatch
    gradient is plain cross-entropy's, and the hinges are recorded but add
    nothing to the total."""
    hp = Hyperparams(lambda_out=0.0, lambda_in=0.0)
    r = np.random.default_rng(4)
    params = init_params(5, 4, hidden_sizes=(8,), rng=r)
    x, y = r.normal(size=(6, 5)), r.integers(0, 4, size=6)
    terms, grads = _minibatch_loss_grads(params, x, y, r.normal(size=(6, 5)), hp)
    (ce,), ce_grads = trainer_mod._ce_loss_grads(params, x, y)
    assert terms[0] == ce and terms[1] > 0.0
    assert grads.vec.tobytes() == ce_grads.vec.tobytes()

    cfg = small_cfg(method="scone", hyper=hp)
    splits, params = _fresh_setup(cfg)
    state = RunState(params, params.zeros_like(), _probes(splits), delta=0.5)
    record = train_timestep(state, splits, cfg)
    assert record.loss.l_in > 0.0  # the ID hinge is unmet, yet adds nothing
    assert record.loss.total == record.loss.ce


def test_trained_timestep_runs_no_forward_pass_on_its_training_split(monkeypatch):
    """After t = 0, whole-split forward passes fit delta on the validation
    split (_fit_delta) and score the record (evaluate_timestep); none runs
    on the training split."""
    cfg = small_cfg()
    splits, params = _fresh_setup(cfg)
    state = RunState(params, params.zeros_like(), _probes(splits), delta=0.5)
    calls = []  # (calling function, rows) of every forward pass

    def spy(p, x):
        calls.append((sys._getframe(1).f_code.co_name, x))
        return model_mod.forward(p, x)

    monkeypatch.setattr(trainer_mod, "forward", spy)
    monkeypatch.setattr(metrics_mod, "forward", spy)
    train_timestep(state, splits, cfg)
    expected = [("_fit_delta", splits.val_x), ("evaluate_timestep", splits.test_id_x)]
    expected += [("evaluate_timestep", splits.test_cov_x), ("evaluate_timestep", splits.test_sem_x)]
    assert [name for name, _ in calls] == [name for name, _ in expected]
    assert all(x is rows for (_, x), (_, rows) in zip(calls, expected))


@pytest.mark.parametrize("regime", ["dynamic", "distinct"])
def test_default_run_detects_ood(regime):
    """The default experiment's energy detector beats the FPR95 of 0.11 that
    thresholding the true ID density reaches without wild data: the wild
    data does the work. Mean over t >= 1, scone, seed 0."""
    cfg = RunConfig(stream=StreamConfig(regime=regime), method="scone", seed=0)
    records = run_stream(cfg)[1:]
    assert np.mean([r.fpr95 for r in records]) < 0.11


needs_openblas = pytest.mark.skipif(
    model_mod._OPENBLAS_THREADS is None, reason="numpy's OpenBLAS thread functions not found"
)


@pytest.fixture
def blas_threads():
    """OpenBLAS getter, with the count set to 2 for the test and reset after."""
    get, set_ = model_mod._OPENBLAS_THREADS
    original = get()
    set_(2)
    yield get
    set_(original)


@needs_openblas
def test_run_stream_trains_on_one_blas_thread_and_restores(monkeypatch, blas_threads):
    caller = blas_threads()
    seen = []
    make_splits = trainer_mod.make_timestep_splits

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return make_splits(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "make_timestep_splits", spy)
    run_stream(small_cfg())
    assert seen == [1, 1, 1]
    assert blas_threads() == caller


@needs_openblas
def test_run_stream_restores_blas_threads_on_error(monkeypatch, blas_threads):
    caller = blas_threads()

    def boom(*args, **kwargs):
        assert blas_threads() == 1
        raise RuntimeError("boom")

    monkeypatch.setattr(trainer_mod, "make_timestep_splits", boom)
    with pytest.raises(RuntimeError, match="boom"):
        run_stream(small_cfg())
    assert blas_threads() == caller


def test_run_stream_records_same_without_openblas(monkeypatch):
    pinned = run_stream(small_cfg(method="temp_scone_ac", seed=2))
    monkeypatch.setattr(model_mod, "_OPENBLAS_THREADS", None)
    unpinned = run_stream(small_cfg(method="temp_scone_ac", seed=2))
    assert [r.to_json() for r in unpinned] == [r.to_json() for r in pinned]
