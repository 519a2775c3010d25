"""Sequential open-world training over a drifting stream.

Timestep 0 trains with cross-entropy only and serves as initialization;
later timesteps add the two energy hinges, each at its fixed weight, and
the temporal term. Both run through train_timestep's one epoch loop.
The temporal term is evaluated once per epoch on fixed probe
subsets. Its drift is measured against the anchor: the previous
timestep's probes, scored once at the start of the timestep by the
incoming model under the current delta, with the same helper and logits
formula as the epoch term. Its penalty, for a method that trains one,
stays constant across the epoch's minibatches and its parameter gradient
is folded into every minibatch step scaled by 1/(#minibatches). Apart
from these probe passes, a timestep runs whole-split forward passes only
to score its record and, under refit_delta, to refit delta.

One RunState carries a run from one timestep to the next: the model and
its momentum, the previous timestep's probe batches and the ATC
threshold delta. None of it depends on the method. train_timestep
updates it in place and returns the timestep's record.

Timestep 0 reads no method-specific field, so initialize trains it once
into a frozen Initialization and run_stream starts any method of the same
config from it: `sconelab compare` trains each seed's timestep 0 once and
shares it across the grid's methods. run_stream without an init trains
its own through the same initialize.

METHOD_TABLE defines each method: the probe score its drift is measured
in, and whether its drift penalty trains. "scone", the plain
energy-margin baseline, measures ATC drift and trains no penalty.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .knobs import check_knobs, knob
from .losses import (
    Hyperparams,
    LossBreakdown,
    drift,
    loss_in_grad,
    loss_out_grad,
    temporal_loss_grad,
    total_loss,
)
from .metrics import MetricsRecord, evaluate_timestep
from .model import (
    ModelParams,
    OptimizerConfig,
    backward_from_logits,
    cross_entropy,
    cross_entropy_from_log_softmax,
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
    unit_scores_grad_logits,
)
from .stream import (
    PURPOSE_EPOCH,
    PURPOSE_INIT,
    StreamConfig,
    TimestepSplits,
    make_timestep_splits,
    substream,
)


def _atc(logits, cfg: RunConfig, delta):
    return diff_atc_grad_logits(logits, cfg.score_kind, delta, cfg.hyper.omega)


# One row per method: (score, penalized). score(logits, cfg, delta) gives the
# probe score drift is measured in, (score, dscore/dlogits).
METHOD_TABLE = {
    "scone": (_atc, False),
    "temp_scone_atc": (_atc, True),
    "temp_scone_ac": (lambda logits, cfg, delta: diff_ac_grad_logits(logits), True),
}
METHODS = tuple(METHOD_TABLE)
METHOD_TEMP_ATC = "temp_scone_atc"


@dataclass
class RunConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper: Hyperparams = field(default_factory=Hyperparams)
    method: str = METHOD_TEMP_ATC
    epochs_per_timestep: int = knob(10, "[1, inf)")
    probe_size: int = knob(512, "[1, inf)")
    seed: int = knob(0, "[0, inf)")
    hidden_sizes: tuple[int, ...] = knob((64, 64), "[1, inf)")
    score_kind: ScoreKind = ScoreKind.MAX_CONFIDENCE
    refit_delta: bool = False
    val_size: int = knob(512, "[20, inf)")
    test_size: int = knob(1024, "[20, inf)")

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_knobs(self)


@dataclass
class RunState:
    """What one timestep hands to the next, updated in place by train_timestep.

    probes holds the (ID, covariate) probe batches of the last finished
    timestep and delta the ATC threshold; both are None before timestep 0.
    The next timestep scores the probes itself, with its incoming params
    and delta, so nothing here depends on the method. The hinges' weights
    are fixed knobs of Hyperparams, so no loss weight is carried from one
    timestep to the next.
    """

    params: ModelParams
    momentum: ModelParams
    probes: tuple[np.ndarray, np.ndarray] | None = None
    delta: float | None = None


@dataclass(frozen=True, eq=False)
class Initialization:
    """Timestep 0 of a run, as initialize trained it under cfg.

    state is the RunState after t = 0 and record its MetricsRecord. Nothing
    in it depends on cfg.method, so run_stream starts every method of cfg
    from one Initialization; it trains copies of state's params and
    momentum and never writes to the arrays held here. Two are equal only
    if they are the same object.
    """

    cfg: RunConfig
    state: RunState
    record: MetricsRecord


def _probe_score(params, probe, cfg: RunConfig, delta):
    """The score METHOD_TABLE names for cfg.method, of one probe batch:
    (score, dscore/dlogits, activations).

    Both the epoch temporal term and the anchor it is measured against come
    from here, under the same delta, so an unchanged model measures zero
    drift on its own probes.
    """
    logits, acts = forward_cached(params, probe)
    return (*METHOD_TABLE[cfg.method][0](logits, cfg, delta), acts)


def _epoch_temporal_term(params, splits, anchor, cfg: RunConfig, delta):
    """(l_temp, w_temp, d_id, d_cov, gradient or None) of one epoch: the
    drift from anchor always, the penalty only for a penalized method."""
    s_in, dz_in, acts_in = _probe_score(params, splits.probe_in, cfg, delta)
    s_cov, dz_cov, acts_cov = _probe_score(params, splits.probe_cov, cfg, delta)
    d_id, d_cov = drift(anchor, s_in, s_cov)
    if not METHOD_TABLE[cfg.method][1]:
        return 0.0, 0.0, d_id, d_cov, None
    l_temp, w_temp, dl_dsin, dl_dscov = temporal_loss_grad(d_id, d_cov, cfg.hyper)
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


def _minibatch_loss_grads(params, xb, yb, wild_b, hp: Hyperparams):
    """Per-minibatch objective terms and their parameter gradient: (terms,
    grads), terms being (ce, l_in, l_out) in LossBreakdown's order.

    The ID batch feeds cross-entropy and the ID hinge, at the fixed weight
    lambda_in; the wild batch feeds the wild hinge, at lambda_out. Energy
    gradients chain through dE/dz = -softmax(z). Each batch takes its
    log-softmax and energy from one log-partition, and softmax =
    exp(log-softmax) serves both the cross-entropy gradient and the energy
    chain.
    """
    logits_id, acts_id = forward_cached(params, xb)
    logp_id, e_id = log_softmax_energy(logits_id)
    probs_id = np.exp(logp_id)
    l_in_v, dlin_de = loss_in_grad(e_id, hp)
    # taken before cross_entropy_from_log_softmax turns probs_id into its gradient
    dz_energy = (hp.lambda_in * dlin_de)[:, None] * probs_id
    ce, dz_id = cross_entropy_from_log_softmax(logp_id, probs_id, yb)
    dz_id -= dz_energy
    grads = backward_from_logits(params, acts_id, dz_id)

    logits_w, acts_w = forward_cached(params, wild_b)
    logp_w, e_w = log_softmax_energy(logits_w)
    l_out_v, dlout_de = loss_out_grad(e_w, hp)
    dz_w = np.exp(logp_w, out=logp_w)
    dz_w *= (-(hp.lambda_out * dlout_de))[:, None]
    grads.vec += backward_from_logits(params, acts_w, dz_w).vec
    return (ce, l_in_v, l_out_v), grads


def _mean_breakdown(parts: list[LossBreakdown], hp: Hyperparams) -> LossBreakdown:
    """Each term's mean over the minibatches; the total is total_loss of the
    means, not the mean of the totals."""
    means = [float(np.mean(column)) for column in zip(*(astuple(p)[:-1] for p in parts))]
    return total_loss(hp, *means)


def _fit_delta(params, splits, kind: ScoreKind) -> float:
    logits = forward(params, splits.val_x)
    scores = unit_scores_grad_logits(logits, kind)[0]
    correct = np.argmax(logits, axis=1) == splits.val_y
    return atc_threshold(scores, correct)


def _ce_loss_grads(params, xb, yb):
    """Timestep-0 objective, plain cross-entropy on the ID batch: ((ce,), grads)."""
    logits, acts = forward_cached(params, xb)
    ce, dz = cross_entropy(logits, yb)
    return (ce,), backward_from_logits(params, acts, dz)


def train_timestep(state: RunState, splits: TimestepSplits, cfg: RunConfig) -> MetricsRecord:
    """One timestep of training; updates state in place and returns the record.

    Timestep 0 is initialization: cross-entropy only, with no wild batches
    or temporal term; delta is fit on its validation split. Later timesteps
    first score state.probes, the previous timestep's probes, with the
    incoming params under state.delta: that anchor is what every epoch's
    temporal term measures drift against. They then train the full
    objective, and refit delta after the record when cfg.refit_delta is
    set, so the record uses the delta the timestep trained under. Every
    timestep ends by leaving its own probes in state for the next one.
    """
    hp = cfg.hyper
    params = state.params
    x, y = splits.train_x, splits.train_y
    n = x.shape[0]
    batch = min(cfg.optimizer.batch_size, n)
    steps_per_epoch = n // batch
    total_steps = cfg.epochs_per_timestep * steps_per_epoch

    wild = splits.t > 0
    n_wild = splits.wild.features.shape[0]
    rng = substream(cfg.seed, PURPOSE_EPOCH, splits.t)
    kind = cfg.score_kind
    d_id = d_cov = 0.0
    if wild:
        anchor = tuple(_probe_score(params, probe, cfg, state.delta)[0] for probe in state.probes)

    for epoch in range(cfg.epochs_per_timestep):
        l_temp = w_temp = 0.0
        temporal_active = False
        if wild:
            l_temp, w_temp, d_id, d_cov, g_temp = _epoch_temporal_term(
                params, splits, anchor, cfg, state.delta
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
                terms, grads = _minibatch_loss_grads(params, x[rows], y[rows], wb, hp)
                if temporal_active:
                    grads.vec += g_temp_step
            else:
                terms, grads = _ce_loss_grads(params, x[rows], y[rows])
            epoch_parts.append(total_loss(hp, *terms, l_temp=l_temp, w_temp=w_temp))
            step_index = epoch * steps_per_epoch + b
            sgd_step(params, grads, state.momentum, step_index, total_steps, cfg.optimizer)

    if not wild:
        state.delta = _fit_delta(params, splits, kind)
    record = evaluate_timestep(
        params, splits, kind, state.delta, (d_id, d_cov), _mean_breakdown(epoch_parts, hp)
    )
    if wild and cfg.refit_delta:
        state.delta = _fit_delta(params, splits, kind)
    state.probes = (splits.probe_in, splits.probe_cov)
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
        record = train_timestep(state, _splits(cfg, 0), cfg)
        return Initialization(cfg, state, record)


def run_stream(
    cfg: RunConfig, param_trace: list | None = None, init: Initialization | None = None
) -> list[MetricsRecord]:
    """Train sequentially over all timesteps and return one record per t.

    Timestep 0 comes from init, which initialize(cfg) trains when none is
    given; an init must have been trained under cfg up to its method, else
    ValueError. The run trains copies of the init state's params and
    momentum, and its timestep 1 scores the init's probes under its own
    method. When param_trace is a list, a copy of the parameters
    is appended after every timestep (used by trajectory-equality tests).
    Training runs on one BLAS thread; the caller's thread count is restored
    on return.
    """
    if init is None:
        init = initialize(cfg)
    elif replace(init.cfg, method=cfg.method) != cfg:
        raise ValueError("init was trained under another config than this run, beyond its method")
    with single_blas_thread():
        start = init.state
        state = replace(start, params=start.params.copy(), momentum=start.momentum.copy())
        records = [init.record]
        if param_trace is not None:
            param_trace.append(start.params.copy())
        for t in range(1, cfg.stream.num_timesteps):
            records.append(train_timestep(state, _splits(cfg, t), cfg))
            if param_trace is not None:
                param_trace.append(state.params.copy())
        return records
