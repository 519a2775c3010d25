from dataclasses import replace

import numpy as np
import pytest

from sconelab import model as model_mod
from sconelab import trainer as trainer_mod
from sconelab.losses import Hyperparams, MultiplierState
from sconelab.model import OptimizerConfig, cross_entropy, forward, init_params
from sconelab.scores import TemporalState
from sconelab.stream import StreamConfig, make_timestep_splits, substream
from sconelab.trainer import (
    RunConfig,
    _minibatch_loss_grads,
    mix_batches,
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


def test_mix_batches_degenerate_is_permutation():
    rng = substream(0, 50)
    ids = np.arange(12.0).reshape(6, 2)
    empty = np.zeros((0, 2))
    out = mix_batches(ids, empty, empty, rng)
    assert out.shape == ids.shape
    assert np.array_equal(np.sort(out, axis=0), np.sort(ids, axis=0))


def test_mix_batches_partition_and_multiset():
    rng = substream(1, 50)
    a = np.arange(10.0).reshape(5, 2)
    b = 100.0 + np.arange(6.0).reshape(3, 2)
    c = 200.0 + np.arange(4.0).reshape(2, 2)
    out = mix_batches(a, b, c, rng)
    assert out.shape[0] == 5 + 3 + 2
    # multiset-equality oracle: lexicographic row sort on both sides
    combined = np.concatenate([a, b, c])
    key = lambda arr: arr[np.lexsort(arr.T[::-1])]
    assert np.array_equal(key(out), key(combined))


def _fresh_setup(cfg, t=1):
    stream_cfg = replace(cfg.stream, seed=cfg.seed)
    splits = make_timestep_splits(stream_cfg, t, cfg.probe_size, cfg.val_size, cfg.test_size)
    params = init_params(
        stream_cfg.input_dim, stream_cfg.num_classes, cfg.hidden_sizes, substream(cfg.seed, 1)
    )
    return splits, params


def test_train_timestep_zero_epochs_is_identity():
    cfg = small_cfg(epochs_per_timestep=0)
    splits, params = _fresh_setup(cfg)
    state = TemporalState("atc", prev_in_score=0.5, prev_cov_score=0.5)
    out, _, mult, state, record = train_timestep(
        params.copy(),
        params.zeros_like(),
        splits,
        cfg,
        cfg.optimizer,
        cfg.hyper,
        MultiplierState(),
        state,
        delta=0.5,
    )
    assert params_equal(out, params)
    assert record.t == splits.t
    assert record.loss.total == 0.0


def test_baseline_ce_frozen_before_updates():
    cfg = small_cfg(epochs_per_timestep=2)
    splits, params = _fresh_setup(cfg)
    incoming_ce, _ = cross_entropy(forward(params, splits.train_x), splits.train_y)
    _, _, mult, _, _ = train_timestep(
        params.copy(),
        params.zeros_like(),
        splits,
        cfg,
        cfg.optimizer,
        cfg.hyper,
        MultiplierState(),
        TemporalState("atc", prev_in_score=0.5, prev_cov_score=0.5),
        delta=0.5,
    )
    assert mult.baseline_ce == pytest.approx(incoming_ce, abs=1e-15)


def test_temporal_loss_constant_within_epoch():
    cfg = small_cfg(epochs_per_timestep=4)
    splits, params = _fresh_setup(cfg)
    state = TemporalState("atc", prev_in_score=0.9, prev_cov_score=0.1)
    _, _, _, state, record = train_timestep(
        params.copy(),
        params.zeros_like(),
        splits,
        cfg,
        cfg.optimizer,
        cfg.hyper,
        MultiplierState(),
        state,
        delta=0.5,
    )
    entries = [e for e in state.history if e[0] == splits.t]
    assert len(entries) == 4  # one temporal evaluation per epoch
    assert record.loss.l_temp == pytest.approx(entries[-1][1])


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


def test_run_stream_deterministic():
    recs_a = run_stream(small_cfg(seed=5))
    recs_b = run_stream(small_cfg(seed=5))
    assert recs_a == recs_b
    assert [r.to_json() for r in recs_a] == [r.to_json() for r in recs_b]


def test_distinct_regime_scales_learning_rate_after_init():
    # structurally: distinct runs complete and differ from dynamic ones
    stream = StreamConfig(
        num_timesteps=2, num_classes=4, input_dim=5, samples_per_split=384, regime="distinct"
    )
    records = run_stream(small_cfg(stream=stream))
    assert len(records) == 2


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
        _minibatch_loss_grads(
            params, x, r.integers(0, 4, size=6), wild, MultiplierState(), Hyperparams()
        )


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
