"""Sequential open-world training over a drifting stream.

Timestep 0 trains with cross-entropy only and serves as initialization;
later timesteps add the energy losses, the augmented-Lagrangian constraint
and the temporal penalty. Both run through train_timestep's one epoch
loop. The temporal term is evaluated once per epoch on fixed probe
subsets; its value stays constant across the epoch's minibatches and its
parameter gradient is folded into every minibatch step scaled by
1/(#minibatches). The probe scores stored at the end of a timestep, which
the next timestep's drift is measured against, come from the same helper
and logits formula as the epoch term. The ID-energy multiplier is updated
by dual ascent after each epoch from the full-split ID energy loss.

One RunState carries a run from one timestep to the next: the model and
its momentum, the multiplier, the stored probe scores and the ATC
threshold delta. train_timestep updates it in place and returns the
timestep's record.

Timestep 0 reads no method-specific field, so initialize trains it once
into a frozen Initialization and run_stream starts any method of the same
config from it: `sconelab compare` trains each seed's timestep 0 once and
shares it across the grid's methods. run_stream without an init trains
its own through the same initialize.

The plain energy-margin baseline ("scone") runs the identical code path
with the temporal weight forced to zero, which keeps its trajectory
bitwise comparable to the temporally regularized variants.

In the distinct regime every timestep from t = 2 on draws a fresh domain
geometry (t = 1 revisits the initialization domain), which the inherited
model must relearn within one timestep's budget; those timesteps train at
DISTINCT_LR_BOOST times base_lr. No config key reaches the factor; the
distinct-regime golden trajectory pins it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .losses import (
    Hyperparams,
    LossBreakdown,
    alm_in,
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
)
from .scores import (
    ScoreKind,
    atc_threshold,
    diff_ac_grad_logits,
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

DISTINCT_LR_BOOST = 5.0


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
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.seed < 0:
            raise ValueError(f"negative seed {self.seed}; seeds must be >= 0")

    @property
    def mode(self) -> str:
        return "ac" if self.method == METHOD_TEMP_AC else "atc"

    def effective_hyper(self) -> Hyperparams:
        """The baseline method ignores the temporal weight."""
        if self.method == METHOD_SCONE:
            return replace(self.hyper, lambda_base=0.0)
        return self.hyper


@dataclass
class RunState:
    """What one timestep hands to the next, updated in place by train_timestep.

    prev_scores holds the (ID, covariate) probe scores of the last finished
    timestep and delta the ATC threshold. Timestep 0 fits delta only;
    run_stream stores its own mode's scores from Initialization.probes.
    """

    params: ModelParams
    momentum: ModelParams
    lambda_in_mult: float = 0.0
    prev_scores: tuple[float, float] | None = None
    delta: float | None = None


@dataclass(frozen=True, eq=False)
class Initialization:
    """Timestep 0 of a run, as initialize trained it under cfg.

    params, momentum and delta are the state after t = 0, record its
    MetricsRecord and probes its (ID, covariate) probe batches. Nothing in
    it depends on cfg.method, so run_stream starts every method of cfg
    from one Initialization; it copies params and momentum and never
    writes to the arrays held here. Two are equal only if they are the
    same object.
    """

    cfg: RunConfig
    params: ModelParams
    momentum: ModelParams
    delta: float
    record: MetricsRecord
    probes: tuple[np.ndarray, np.ndarray]


def _probe_score(params, probe, mode, kind, delta, omega):
    """The mode's score of one probe batch: (score, dscore/dlogits, activations).

    Both the epoch temporal term and the scores stored for the next
    timestep come from here, so an unchanged model measures zero drift.
    """
    logits, acts = forward_cached(params, probe)
    if mode == "atc":
        return (*diff_atc_grad_logits(logits, kind, delta, omega), acts)
    return (*diff_ac_grad_logits(logits), acts)


def _stored_scores(params, probes, cfg: RunConfig, delta) -> tuple[float, float]:
    """The (ID, covariate) probe scores a finished timestep hands to the next."""
    return tuple(
        _probe_score(params, probe, cfg.mode, cfg.score_kind, delta, cfg.hyper.omega)[0]
        for probe in probes
    )


def _epoch_temporal_term(params, splits, prev_scores, hp, mode, kind, delta):
    """Epoch-constant temporal loss, weight, drifts and gradient (None if no term fires)."""
    s_in, dz_in, acts_in = _probe_score(params, splits.probe_in, mode, kind, delta, hp.omega)
    s_cov, dz_cov, acts_cov = _probe_score(params, splits.probe_cov, mode, kind, delta, hp.omega)
    l_temp, w_temp, d_id, d_cov, dl_dsin, dl_dscov = temporal_loss_grad(
        prev_scores, s_in, s_cov, hp
    )
    parts = [
        backward_from_logits(params, acts, dl * dz)
        for dl, acts, dz in ((dl_dsin, acts_in, dz_in), (dl_dscov, acts_cov, dz_cov))
        if dl != 0.0
    ]
    if not parts:
        return l_temp, w_temp, d_id, d_cov, None
    for other in parts[1:]:
        parts[0].vec += other.vec
    return l_temp, w_temp, d_id, d_cov, parts[0]


def _minibatch_loss_grads(params, xb, yb, wild_b, lambda_in_mult: float, hp: Hyperparams):
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
    alm_v, w_alm = alm_in(l_in_v, lambda_in_mult, hp)
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
    grads.vec += backward_from_logits(params, acts_w, dz_w).vec
    grads.g_weight += hp.lambda_out * dlout_dgw
    grads.g_bias += hp.lambda_out * dlout_dgb
    return ce, l_in_v, l_out_v, alm_v, grads


def _mean_breakdown(parts: list[LossBreakdown], hp: Hyperparams) -> LossBreakdown:
    """Each term's mean over the minibatches; the total is total_loss of the
    means, not the mean of the totals."""
    m = {
        f.name: float(np.mean([getattr(p, f.name) for p in parts])) if parts else 0.0
        for f in fields(LossBreakdown)
        if f.name != "total"
    }
    return total_loss(
        m["ce"], m["l_out"], m["alm_in"], m["l_temp"], hp, l_in_value=m["l_in"], w_temp=m["w_temp"]
    )


def _fit_delta(params, splits, kind: ScoreKind) -> float:
    logits = forward(params, splits.val_x)
    scores = unit_scores(logits, kind)
    correct = np.argmax(logits, axis=1) == splits.val_y
    return atc_threshold(scores, correct)


def _ce_loss_grads(params, xb, yb):
    """Timestep-0 objective: plain cross-entropy on the ID batch."""
    logits, acts = forward_cached(params, xb)
    ce, dz = cross_entropy(logits, yb)
    return ce, backward_from_logits(params, acts, dz)


def train_timestep(state: RunState, splits: TimestepSplits, cfg: RunConfig) -> MetricsRecord:
    """One timestep of training; updates state in place and returns the record.

    Timestep 0 is initialization: cross-entropy only, with no wild batches,
    temporal term or dual ascent; delta is fit on its validation split and
    no probe scores are stored. Later timesteps train the full objective,
    store the final parameters' probe scores for the next timestep, and
    refit delta after the record when cfg.refit_delta is set, so both the
    scores and the record use the delta from before the refit.
    """
    hp = cfg.effective_hyper()
    optimizer = cfg.optimizer
    if cfg.stream.regime == REGIME_DISTINCT and splits.t >= 2:
        optimizer = replace(optimizer, base_lr=optimizer.base_lr * DISTINCT_LR_BOOST)
    params = state.params
    x, y = splits.train_x, splits.train_y
    n = x.shape[0]
    batch = min(optimizer.batch_size, n)
    steps_per_epoch = max(1, n // batch)
    total_steps = max(1, cfg.epochs_per_timestep * steps_per_epoch)

    wild = splits.t > 0
    n_wild = splits.wild.features.shape[0]
    rng = substream(cfg.seed, PURPOSE_EPOCH, splits.t)
    kind = cfg.score_kind
    last_epoch_parts: list[LossBreakdown] = []
    d_id = d_cov = 0.0

    for epoch in range(cfg.epochs_per_timestep):
        l_temp = w_temp = 0.0
        temporal_active = False
        if wild:
            l_temp, w_temp, d_id, d_cov, g_temp = _epoch_temporal_term(
                params, splits, state.prev_scores, hp, cfg.mode, kind, state.delta
            )
            temporal_active = l_temp != 0.0
            if temporal_active:
                # the per-minibatch share, the same scaled vector at every step
                g_temp_step = g_temp.vec * (1.0 / steps_per_epoch)

        perm = rng.permutation(n)
        if wild:
            wild_pool = splits.wild.features[rng.permutation(n_wild)]
            wild_batch = max(1, n_wild // steps_per_epoch)
        epoch_parts = []
        for b in range(steps_per_epoch):
            rows = perm[b * batch : (b + 1) * batch]
            if wild:
                wb = wild_pool[b * wild_batch : (b + 1) * wild_batch]
                ce, l_in_v, l_out_v, alm_v, grads = _minibatch_loss_grads(
                    params, x[rows], y[rows], wb, state.lambda_in_mult, hp
                )
                if temporal_active:
                    grads.vec += g_temp_step
            else:
                ce, grads = _ce_loss_grads(params, x[rows], y[rows])
                l_in_v = l_out_v = alm_v = 0.0
            epoch_parts.append(
                total_loss(ce, l_out_v, alm_v, l_temp, hp, l_in_value=l_in_v, w_temp=w_temp)
            )
            sgd_step(
                params, grads, state.momentum, epoch * steps_per_epoch + b, total_steps, optimizer
            )
        last_epoch_parts = epoch_parts

        if wild:
            l_in_full = loss_in_grad(energy(forward(params, x)), params, hp.eta)[0]
            state.lambda_in_mult = update_multipliers(state.lambda_in_mult, l_in_full, hp)

    if wild:
        probes = (splits.probe_in, splits.probe_cov)
        state.prev_scores = _stored_scores(params, probes, cfg, state.delta)
    else:
        state.delta = _fit_delta(params, splits, kind)
    record = evaluate_timestep(
        params, splits, kind, state.delta, (d_id, d_cov), _mean_breakdown(last_epoch_parts, hp)
    )
    if wild and cfg.refit_delta:
        state.delta = _fit_delta(params, splits, kind)
    return record


def _splits(cfg: RunConfig, t: int) -> TimestepSplits:
    return make_timestep_splits(
        cfg.stream, cfg.seed, t, cfg.probe_size, cfg.val_size, cfg.test_size
    )


def initialize(cfg: RunConfig) -> Initialization:
    """Train timestep 0 of cfg's run, on one BLAS thread, from its seeded init."""
    with single_blas_thread():
        dims = (cfg.stream.input_dim, cfg.stream.num_classes, cfg.hidden_sizes)
        params = init_params(*dims, substream(cfg.seed, PURPOSE_INIT))
        state = RunState(params=params, momentum=params.zeros_like())
        splits = _splits(cfg, 0)
        record = train_timestep(state, splits, cfg)
        probes = (splits.probe_in, splits.probe_cov)
        return Initialization(cfg, state.params, state.momentum, state.delta, record, probes)


def run_stream(
    cfg: RunConfig, param_trace: list | None = None, init: Initialization | None = None
) -> list[MetricsRecord]:
    """Train sequentially over all timesteps and return one record per t.

    Timestep 0 comes from init, which initialize(cfg) trains when none is
    given; an init must have been trained under cfg up to its method, else
    ValueError. The run stores its own mode's probe scores from the init's
    probes and delta. When param_trace is a list, a copy of the parameters
    is appended after every timestep (used by trajectory-equality tests).
    Training runs on one BLAS thread; the caller's thread count is restored
    on return.
    """
    if init is None:
        init = initialize(cfg)
    elif replace(init.cfg, method=cfg.method) != cfg:
        raise ValueError("init was trained under another config than this run, beyond its method")
    with single_blas_thread():
        state = RunState(init.params.copy(), init.momentum.copy(), delta=init.delta)
        state.prev_scores = _stored_scores(state.params, init.probes, cfg, init.delta)
        records = [init.record]
        if param_trace is not None:
            param_trace.append(init.params.copy())
        for t in range(1, cfg.stream.num_timesteps):
            records.append(train_timestep(state, _splits(cfg, t), cfg))
            if param_trace is not None:
                param_trace.append(state.params.copy())
        return records
