import numpy as np
import pytest

from sconelab import model as model_mod
from sconelab import trainer as trainer_mod
from sconelab.losses import Hyperparams, loss_in_grad, update_multipliers
from sconelab.metrics import evaluate_timestep
from sconelab.model import OptimizerConfig, energy, forward, init_params
from sconelab.scores import ScoreKind
from sconelab.stream import StreamConfig, substream
from sconelab.trainer import (
    RunConfig,
    RunState,
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
    same = all(
        np.array_equal(wa, wb)
        for (_, wa), (_, wb) in zip(a.named_arrays(), b.named_arrays())
    )
    return same and a.g_weight == b.g_weight and a.g_bias == b.g_bias


def _fresh_setup(cfg, t=1):
    splits = trainer_mod._splits(cfg, t)
    params = init_params(
        cfg.stream.input_dim, cfg.stream.num_classes, cfg.hidden_sizes, substream(cfg.seed, 1)
    )
    return splits, params


def test_train_timestep_zero_epochs_is_identity():
    cfg = small_cfg(epochs_per_timestep=0)
    splits, params = _fresh_setup(cfg)
    state = RunState(params.copy(), params.zeros_like(), prev_scores=(0.5, 0.5), delta=0.5)
    record = train_timestep(state, splits, cfg)
    assert params_equal(state.params, params)
    assert record.t == splits.t
    assert record.loss.total == 0.0


def test_temporal_loss_constant_within_epoch(monkeypatch):
    cfg = small_cfg(epochs_per_timestep=4)
    splits, params = _fresh_setup(cfg)
    state = RunState(params.copy(), params.zeros_like(), prev_scores=(0.9, 0.1), delta=0.5)
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
    """The scores stored after a timestep are, bit for bit, those the epoch
    temporal term computes from the same parameters and probes, so an
    unchanged model measures a drift of exactly 0.0. Checked from every
    parameter set of a trained run's trace."""
    cfg = small_cfg(method=method, score_kind=kind, epochs_per_timestep=10)
    hp = cfg.effective_hyper()
    trace = []
    run_stream(cfg, param_trace=trace)
    splits, _ = _fresh_setup(cfg, t=2)
    seen = []
    temporal_loss_grad = trainer_mod.temporal_loss_grad

    def spy(prev_scores, s_in, s_cov, hp):
        seen.append((s_in, s_cov))
        return temporal_loss_grad(prev_scores, s_in, s_cov, hp)

    monkeypatch.setattr(trainer_mod, "temporal_loss_grad", spy)
    for trained in trace:
        state = RunState(
            trained.copy(),
            trained.zeros_like(),
            prev_scores=(0.0, 1.0),  # scores lie in [0, 1], so no drift fires
            delta=trainer_mod._fit_delta(trained, splits, kind),
        )
        train_timestep(state, splits, cfg)
        _, _, d_id, d_cov, _ = trainer_mod._epoch_temporal_term(
            state.params, splits, state.prev_scores, hp, cfg.mode, kind, state.delta
        )
        assert seen[-1] == state.prev_scores
        assert d_id == 0.0 and d_cov == 0.0


@pytest.mark.parametrize("method", ["temp_scone_atc", "temp_scone_ac"])
def test_epoch_temporal_term_inactive_within_tolerance(method):
    cfg = small_cfg(method=method)
    hp = cfg.effective_hyper()
    splits, params = _fresh_setup(cfg)
    kind = cfg.score_kind
    delta = trainer_mod._fit_delta(params, splits, kind)
    s_in = trainer_mod._probe_score(params, splits.probe_in, cfg.mode, kind, delta, hp.omega)[0]

    def term(drift):
        # the ID score fell by drift; the covariate score fell, which is no drift
        prev_scores = (s_in + drift, 2.0)
        return trainer_mod._epoch_temporal_term(
            params, splits, prev_scores, hp, cfg.mode, kind, delta
        )

    l_temp, w_temp, d_id, d_cov, g_temp = term(0.5 * hp.epsilon)
    assert d_id > 0.0 and d_cov == 0.0 and d_id <= hp.epsilon
    assert l_temp == w_temp == 0.0 and g_temp is None
    l_temp, _, _, _, g_temp = term(2.0 * hp.epsilon)
    assert l_temp > 0.0 and np.isfinite(g_temp.vec).all()


def test_run_state_hand_off():
    """What each timestep leaves in RunState for the next one."""
    cfg = small_cfg(epochs_per_timestep=1, refit_delta=True)
    hp, kind = cfg.effective_hyper(), cfg.score_kind
    splits_0, params = _fresh_setup(cfg, t=0)
    state = RunState(params, params.zeros_like())
    train_timestep(state, splits_0, cfg)
    # t = 0 fits delta on its final params, stores no probe scores and
    # leaves the multiplier alone
    delta_0 = trainer_mod._fit_delta(state.params, splits_0, kind)
    assert state.delta == delta_0
    assert state.prev_scores is None
    assert state.lambda_in_mult == 0.0
    # run_stream stores the t = 0 probe scores of its own mode
    probes_0 = (splits_0.probe_in, splits_0.probe_cov)
    state.prev_scores = trainer_mod._stored_scores(state.params, probes_0, cfg, state.delta)
    assert state.prev_scores == tuple(
        trainer_mod._probe_score(state.params, probe, cfg.mode, kind, delta_0, hp.omega)[0]
        for probe in probes_0
    )

    splits_1, _ = _fresh_setup(cfg, t=1)
    record = train_timestep(state, splits_1, cfg)
    # one epoch: one dual-ascent step on the full-split l_in of the final params
    l_in = loss_in_grad(energy(forward(state.params, splits_1.train_x)), state.params, hp.eta)[0]
    assert state.lambda_in_mult == update_multipliers(0.0, l_in, hp) > 0.0
    # refit_delta moves delta after the record, which still uses t = 0's delta
    assert state.delta == trainer_mod._fit_delta(state.params, splits_1, kind) != delta_0
    drift = (record.drift_d_id, record.drift_d_cov)
    expected = evaluate_timestep(state.params, splits_1, kind, delta_0, drift, record.loss)
    refit = evaluate_timestep(state.params, splits_1, kind, state.delta, drift, record.loss)
    assert record == expected
    assert (refit.atc_in, refit.atc_cov) != (record.atc_in, record.atc_cov)

    # t = 2 steps on from the multiplier t = 1 left
    lambda_1 = state.lambda_in_mult
    splits_2, _ = _fresh_setup(cfg, t=2)
    train_timestep(state, splits_2, cfg)
    l_in = loss_in_grad(energy(forward(state.params, splits_2.train_x)), state.params, hp.eta)[0]
    assert state.lambda_in_mult == update_multipliers(lambda_1, l_in, hp)
    assert state.lambda_in_mult != update_multipliers(0.0, l_in, hp)


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
    # sanity: with a nonzero temporal weight the two methods may not collapse
    recs_scone = run_stream(small_cfg(method="scone"))
    recs_temp = run_stream(small_cfg(method="temp_scone_atc"))
    assert len(recs_scone) == len(recs_temp) == 3


def test_run_stream_single_timestep_is_ce_only():
    cfg = small_cfg(stream=StreamConfig(num_timesteps=1, num_classes=4, input_dim=5, samples_per_split=384))
    records = run_stream(cfg)
    assert len(records) == 1
    loss = records[0].loss
    assert loss.l_out == 0.0 and loss.alm_in == 0.0 and loss.l_temp == 0.0
    assert loss.total == loss.ce


def test_initialize_stores_no_probe_scores(monkeypatch):
    """Timestep 0 scores no probe: each run_stream stores its own mode's."""
    calls = []
    probe_score = trainer_mod._probe_score

    def spy(*args):
        calls.append(args)
        return probe_score(*args)

    monkeypatch.setattr(trainer_mod, "_probe_score", spy)
    init = initialize(small_cfg())
    assert calls == []
    # the spy sees the calls run_stream makes from the init
    trainer_mod._stored_scores(init.params, init.probes, init.cfg, init.delta)
    assert len(calls) == 2


@pytest.mark.parametrize("change", [dict(seed=1), dict(hidden_sizes=(16, 8))])
def test_run_stream_rejects_initialization_of_another_config(change):
    init = initialize(small_cfg(method="scone"))
    with pytest.raises(ValueError, match="another config"):
        run_stream(small_cfg(**change), init=init)


@pytest.mark.parametrize("method", trainer_mod.METHODS)
def test_run_stream_leaves_initialization_unchanged(method):
    # sgd_step writes in place, so the run must train copies of the init's arrays
    init = initialize(small_cfg())
    params, momentum = init.params.vec.tobytes(), init.momentum.vec.tobytes()
    trace = []
    run_stream(small_cfg(method), param_trace=trace, init=init)
    assert init.params.vec.tobytes() == params
    assert init.momentum.vec.tobytes() == momentum
    assert trace[-1].vec.tobytes() != params


def test_run_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="negative seed -1"):
        small_cfg(seed=-1)


def test_run_stream_deterministic():
    recs_a = run_stream(small_cfg(seed=5))
    recs_b = run_stream(small_cfg(seed=5))
    assert recs_a == recs_b
    assert [r.to_json() for r in recs_a] == [r.to_json() for r in recs_b]


def test_distinct_regime_scales_learning_rate_after_init(monkeypatch):
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
    assert seen == {0: {base}, 1: {base}, 2: {base * trainer_mod.DISTINCT_LR_BOOST}}
    assert max(seen[2]) > base  # a boost, not a no-op factor


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
            corruption_sigma_schedule=0.2,
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
        _minibatch_loss_grads(params, x, r.integers(0, 4, size=6), wild, 0.0, Hyperparams())


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
