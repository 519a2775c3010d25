"""Sequential open-world training over a drifting stream.

Timestep 0 trains with cross-entropy only and serves as initialization;
later timesteps add the energy losses, the augmented-Lagrangian constraint
and the temporal penalty. The temporal term is evaluated once per epoch on
fixed probe subsets; its value stays constant across the epoch's
minibatches and its parameter gradient is folded into every minibatch step
scaled by 1/(#minibatches). Multipliers are updated by dual ascent after
each epoch from full-split losses. Model, multipliers and temporal state
all carry forward across timesteps.

The plain energy-margin baseline ("scone") runs the identical code path
with the temporal weight forced to zero, which keeps its trajectory
bitwise comparable to the temporally regularized variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .losses import (
    Hyperparams,
    LossBreakdown,
    MultiplierState,
    alm_in,
    alm_in_grad,
    loss_in,
    loss_in_grad,
    loss_out_grad,
    temporal_loss_grad,
    total_loss,
    update_multipliers,
)
from .metrics import MetricsRecord, evaluate_timestep
from .model import (
    ModelParams,
    OptimizerConfig,
    backward_from_logits,
    cross_entropy,
    cross_entropy_from_log_softmax,
    energy,
    forward,
    forward_cached,
    init_params,
    log_softmax_energy,
    sgd_step,
    single_blas_thread,
    softmax,
)
from .scores import (
    ScoreKind,
    TemporalState,
    atc_threshold,
    diff_ac,
    diff_ac_grad_logits,
    diff_atc,
    diff_atc_grad_logits,
    unit_scores,
)
from .stream import (
    PURPOSE_EPOCH,
    PURPOSE_INIT,
    REGIME_DISTINCT,
    StreamConfig,
    TimestepSplits,
    make_timestep_splits,
    substream,
)

METHOD_SCONE = "scone"
METHOD_TEMP_ATC = "temp_scone_atc"
METHOD_TEMP_AC = "temp_scone_ac"
METHODS = (METHOD_SCONE, METHOD_TEMP_ATC, METHOD_TEMP_AC)


@dataclass
class RunConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper: Hyperparams = field(default_factory=Hyperparams)
    method: str = METHOD_TEMP_ATC
    epochs_per_timestep: int = 10
    probe_size: int = 512
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (64, 64)
    score_kind: ScoreKind = ScoreKind.MAX_CONFIDENCE
    refit_delta: bool = False
    val_size: int = 512
    test_size: int = 1024

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.epochs_per_timestep < 0:
            raise ValueError("epochs_per_timestep must be >= 0")
        if self.probe_size < 1 or self.val_size < 20 or self.test_size < 20:
            raise ValueError("probe/val/test sizes too small")

    @property
    def mode(self) -> str:
        return "ac" if self.method == METHOD_TEMP_AC else "atc"

    def effective_hyper(self) -> Hyperparams:
        """The baseline method ignores the temporal weight."""
        if self.method == METHOD_SCONE:
            return replace(self.hyper, lambda_base=0.0)
        return self.hyper


def mix_batches(id_batch, cov_batch, sem_batch, rng: np.random.Generator) -> np.ndarray:
    """Concatenate per-source feature batches and apply a seeded permutation."""
    parts = [np.asarray(b, dtype=float) for b in (id_batch, cov_batch, sem_batch)]
    pool = np.concatenate(parts, axis=0)
    return pool[rng.permutation(pool.shape[0])]


def _accumulate(target: ModelParams, other: ModelParams):
    for i in range(len(target.layer_weights)):
        target.layer_weights[i] += other.layer_weights[i]
        target.layer_biases[i] += other.layer_biases[i]
    target.g_weight += other.g_weight
    target.g_bias += other.g_bias


def _probe_scores(params, splits, mode, kind, delta, omega):
    probs_in = softmax(forward(params, splits.probe_in))
    probs_cov = softmax(forward(params, splits.probe_cov))
    if mode == "atc":
        return diff_atc(probs_in, kind, delta, omega), diff_atc(probs_cov, kind, delta, omega)
    return diff_ac(probs_in), diff_ac(probs_cov)


def _epoch_temporal_term(params, splits, state, hp, mode, kind, delta, t):
    """Epoch-constant temporal loss, weight, drifts and parameter gradient."""
    logits_in, acts_in = forward_cached(params, splits.probe_in)
    logits_cov, acts_cov = forward_cached(params, splits.probe_cov)
    if mode == "atc":
        s_in, dz_in = diff_atc_grad_logits(logits_in, kind, delta, hp.omega)
        s_cov, dz_cov = diff_atc_grad_logits(logits_cov, kind, delta, hp.omega)
    else:
        s_in, dz_in = diff_ac_grad_logits(logits_in)
        s_cov, dz_cov = diff_ac_grad_logits(logits_cov)
    l_temp, w_temp, d_id, d_cov, dl_dsin, dl_dscov = temporal_loss_grad(
        state, s_in, s_cov, hp, t
    )
    parts = [
        backward_from_logits(params, acts, dl * dz)
        for dl, acts, dz in ((dl_dsin, acts_in, dz_in), (dl_dscov, acts_cov, dz_cov))
        if dl != 0.0
    ]
    if not parts:
        return l_temp, w_temp, d_id, d_cov, params.zeros_like()
    for other in parts[1:]:
        _accumulate(parts[0], other)
    return l_temp, w_temp, d_id, d_cov, parts[0]


def _minibatch_loss_grads(params, xb, yb, wild_b, mult: MultiplierState, hp: Hyperparams):
    """Per-minibatch objective pieces and their parameter gradient.

    The ID batch feeds cross-entropy and the constrained in-distribution
    energy term; the wild batch feeds the out-energy term. Energy gradients
    chain through dE/dz = -softmax(z). Each batch takes its log-softmax and
    energy from one log-partition, and softmax = exp(log-softmax) serves
    both the cross-entropy gradient and the energy chain.
    """
    logits_id, acts_id = forward_cached(params, xb)
    logp_id, e_id = log_softmax_energy(logits_id)
    probs_id = np.exp(logp_id)
    l_in_v, dlin_de, dlin_dgw, dlin_dgb = loss_in_grad(e_id, params, hp.eta)
    alm_v = alm_in(l_in_v, mult, hp)
    w_alm = alm_in_grad(l_in_v, mult, hp)
    # taken before cross_entropy_from_log_softmax turns probs_id into its gradient
    dz_energy = (w_alm * dlin_de)[:, None] * probs_id
    ce, dz_id = cross_entropy_from_log_softmax(logp_id, probs_id, yb)
    dz_id -= dz_energy
    grads = backward_from_logits(params, acts_id, dz_id)
    grads.g_weight = w_alm * dlin_dgw
    grads.g_bias = w_alm * dlin_dgb

    logits_w, acts_w = forward_cached(params, wild_b)
    logp_w, e_w = log_softmax_energy(logits_w)
    l_out_v, dlout_de, dlout_dgw, dlout_dgb = loss_out_grad(e_w, params, hp.eta)
    dz_w = np.exp(logp_w, out=logp_w)
    dz_w *= (-(hp.lambda_out * dlout_de))[:, None]
    _accumulate(grads, backward_from_logits(params, acts_w, dz_w))
    grads.g_weight += hp.lambda_out * dlout_dgw
    grads.g_bias += hp.lambda_out * dlout_dgb
    return ce, l_in_v, l_out_v, alm_v, grads


def _mean_breakdown(parts: list[LossBreakdown], hp: Hyperparams) -> LossBreakdown:
    if not parts:
        return total_loss(0.0, 0.0, 0.0, 0.0, hp)
    return total_loss(
        float(np.mean([p.ce for p in parts])),
        float(np.mean([p.l_out for p in parts])),
        float(np.mean([p.alm_in for p in parts])),
        float(np.mean([p.l_temp for p in parts])),
        hp,
        l_in_value=float(np.mean([p.l_in for p in parts])),
        w_temp=float(np.mean([p.w_temp for p in parts])),
    )


def _fit_delta(params, splits, kind: ScoreKind) -> float:
    logits = forward(params, splits.val_x)
    scores = unit_scores(softmax(logits), kind)
    correct = np.argmax(logits, axis=1) == splits.val_y
    return atc_threshold(scores, correct)


def train_timestep(
    params: ModelParams,
    momentum: ModelParams,
    splits: TimestepSplits,
    cfg: RunConfig,
    optimizer: OptimizerConfig,
    hp: Hyperparams,
    mult_state: MultiplierState,
    temporal_state: TemporalState,
    delta: float,
):
    """One wild timestep of the full objective.

    Returns (params, momentum, mult_state, temporal_state, record). The
    baseline classification loss is frozen from a full pass before any
    update; probe scores stored for the next timestep are computed with the
    final parameters.
    """
    x, y = splits.train_x, splits.train_y
    n = x.shape[0]
    batch = min(optimizer.batch_size, n)
    steps_per_epoch = max(1, n // batch)
    total_steps = max(1, cfg.epochs_per_timestep * steps_per_epoch)

    ce_base, _ = cross_entropy(forward(params, x), y)
    mult_state = replace(mult_state, baseline_ce=ce_base)

    sources = splits.wild.source_features()
    rng = substream(cfg.seed, PURPOSE_EPOCH, splits.t)
    kind = cfg.score_kind
    last_epoch_parts: list[LossBreakdown] = []

    for epoch in range(cfg.epochs_per_timestep):
        l_temp, w_temp, d_id, d_cov, g_temp = _epoch_temporal_term(
            params, splits, temporal_state, hp, cfg.mode, kind, delta, splits.t
        )
        temporal_state.history.append((splits.t, l_temp, w_temp, d_id, d_cov))
        temporal_active = l_temp != 0.0
        if temporal_active:
            # the per-minibatch share, the same scaled vector at every step
            g_temp_step = g_temp.unflatten(g_temp.flatten() * (1.0 / steps_per_epoch))

        perm = rng.permutation(n)
        wild_pool = mix_batches(*sources, rng=rng)
        wild_batch = max(1, wild_pool.shape[0] // steps_per_epoch)
        epoch_parts = []
        for b in range(steps_per_epoch):
            rows = perm[b * batch : (b + 1) * batch]
            wb = wild_pool[b * wild_batch : (b + 1) * wild_batch]
            ce, l_in_v, l_out_v, alm_v, grads = _minibatch_loss_grads(
                params, x[rows], y[rows], wb, mult_state, hp
            )
            if temporal_active:
                _accumulate(grads, g_temp_step)
            epoch_parts.append(
                total_loss(ce, l_out_v, alm_v, l_temp, hp, l_in_value=l_in_v, w_temp=w_temp)
            )
            params, momentum = sgd_step(
                params, grads, momentum, epoch * steps_per_epoch + b, total_steps, optimizer
            )
        last_epoch_parts = epoch_parts

        logits_full = forward(params, x)
        ce_full, _ = cross_entropy(logits_full, y)
        l_in_full = loss_in(energy(logits_full), params, hp.eta)
        mult_state = update_multipliers(mult_state, l_in_full, ce_full, hp)

    s_in, s_cov = _probe_scores(params, splits, cfg.mode, kind, delta, hp.omega)
    temporal_state.prev_in_score = s_in
    temporal_state.prev_cov_score = s_cov

    record = evaluate_timestep(
        params, splits, hp, temporal_state, kind, delta, _mean_breakdown(last_epoch_parts, hp)
    )
    return params, momentum, mult_state, temporal_state, record


def _train_ce_only(params, momentum, splits, cfg: RunConfig, optimizer: OptimizerConfig, hp):
    """Timestep-0 initialization: plain cross-entropy on the ID train split."""
    x, y = splits.train_x, splits.train_y
    n = x.shape[0]
    batch = min(optimizer.batch_size, n)
    steps_per_epoch = max(1, n // batch)
    total_steps = max(1, cfg.epochs_per_timestep * steps_per_epoch)
    rng = substream(cfg.seed, PURPOSE_EPOCH, splits.t)
    last_ce = []
    for epoch in range(cfg.epochs_per_timestep):
        perm = rng.permutation(n)
        epoch_ce = []
        for b in range(steps_per_epoch):
            rows = perm[b * batch : (b + 1) * batch]
            logits, acts = forward_cached(params, x[rows])
            ce, dz = cross_entropy(logits, y[rows])
            grads = backward_from_logits(params, acts, dz)
            params, momentum = sgd_step(
                params, grads, momentum, epoch * steps_per_epoch + b, total_steps, optimizer
            )
            epoch_ce.append(ce)
        last_ce = epoch_ce
    breakdown = total_loss(float(np.mean(last_ce)) if last_ce else 0.0, 0.0, 0.0, 0.0, hp)
    return params, momentum, breakdown


def run_stream(cfg: RunConfig, param_trace: list | None = None) -> list[MetricsRecord]:
    """Train sequentially over all timesteps and return one record per t.

    When param_trace is a list, a copy of the parameters is appended after
    every timestep (used by trajectory-equality tests). Training runs on one
    BLAS thread; the caller's thread count is restored on return.
    """
    with single_blas_thread():
        stream_cfg = replace(cfg.stream, seed=cfg.seed)
        hp = cfg.effective_hyper()
        params = init_params(
            stream_cfg.input_dim,
            stream_cfg.num_classes,
            cfg.hidden_sizes,
            substream(cfg.seed, PURPOSE_INIT),
        )
        momentum = params.zeros_like()
        temporal_state = TemporalState(cfg.mode)
        mult_state = MultiplierState()
        delta = hp.delta
        late_optimizer = cfg.optimizer
        if stream_cfg.regime == REGIME_DISTINCT:
            late_optimizer = replace(cfg.optimizer, base_lr=cfg.optimizer.base_lr * 5.0)

        records: list[MetricsRecord] = []
        for t in range(stream_cfg.num_timesteps):
            # The first wild pass revisits the initialization domain at the base
            # rate; the boosted rate kicks in with the first fresh domain (t >= 2).
            optimizer = late_optimizer if t >= 2 else cfg.optimizer
            splits = make_timestep_splits(
                stream_cfg, t, cfg.probe_size, cfg.val_size, cfg.test_size
            )
            if t == 0:
                params, momentum, breakdown = _train_ce_only(
                    params, momentum, splits, cfg, cfg.optimizer, hp
                )
                delta = _fit_delta(params, splits, cfg.score_kind)
                s_in, s_cov = _probe_scores(
                    params, splits, cfg.mode, cfg.score_kind, delta, hp.omega
                )
                temporal_state.prev_in_score = s_in
                temporal_state.prev_cov_score = s_cov
                record = evaluate_timestep(
                    params, splits, hp, temporal_state, cfg.score_kind, delta, breakdown
                )
            else:
                params, momentum, mult_state, temporal_state, record = train_timestep(
                    params,
                    momentum,
                    splits,
                    cfg,
                    optimizer,
                    hp,
                    mult_state,
                    temporal_state,
                    delta,
                )
                if cfg.refit_delta:
                    delta = _fit_delta(params, splits, cfg.score_kind)
            records.append(record)
            if param_trace is not None:
                param_trace.append(params.copy())
        return records
