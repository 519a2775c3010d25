"""Synthetic drifting wild-data streams.

Each timestep owns an in-distribution domain (K Gaussian blobs whose means
sit on a circle of radius 4 in the first two coordinates), a covariate-
shifted variant (the same blobs plus isotropic Gaussian corruption), and a
semantic outlier domain (K held-out blobs on a radius-8 circle). The
"dynamic" regime rotates the ID means by a fixed angle per timestep and
ramps the corruption level; the "distinct" regime redraws the geometry
independently per timestep.

Wild batches are per-sample i.i.d. mixtures of the three sources, handed
to training as one unlabeled pool whose rows are grouped by source; the
trainer permutes it every epoch. Every draw is deterministic in the run's
seed, which RunConfig passes in, and in the timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knobs import check_knobs, knob

ID_RADIUS = 4.0
SEM_RADIUS = 8.0

REGIME_DYNAMIC = "dynamic"
REGIME_DISTINCT = "distinct"

PROV_ID = 0
PROV_COV = 1
PROV_SEM = 2

# Purpose tags for deterministic substreams.
PURPOSE_INIT = 1
PURPOSE_TRAIN = 2
PURPOSE_WILD = 3
PURPOSE_PROBE_IN = 4
PURPOSE_PROBE_COV = 5
PURPOSE_VAL = 6
PURPOSE_TEST_ID = 7
PURPOSE_TEST_COV = 8
PURPOSE_TEST_SEM = 9
PURPOSE_EPOCH = 10
PURPOSE_SNAPSHOT = 11

_SEPARATION_RETRIES = 50


def substream(seed: int, purpose: int, t: int = 0) -> np.random.Generator:
    """Independent deterministic generator for (seed, purpose, t)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(purpose), int(t)]))


@dataclass
class StreamConfig:
    """Stream geometry and drift schedules.

    pi_cov, pi_sem and corruption_sigma are per-timestep schedules, kept as
    given and resolved by schedule(name): a scalar is broadcast over the
    timesteps, and None takes the default, which for corruption_sigma is a
    linear 0 -> 1 ramp in the dynamic regime and a constant 0.5 in the
    distinct regime. So dataclasses.replace of the regime or the timestep
    count gives the config built fresh with those values.
    """

    num_timesteps: int = knob(10, "[1, inf)")
    num_classes: int = knob(6, "[2, inf)")
    input_dim: int = knob(8, "[2, inf)")
    regime: str = REGIME_DYNAMIC
    pi_cov: tuple[float, ...] | None = knob(None, "[0, inf)")
    pi_sem: tuple[float, ...] | None = knob(None, "[0, inf)")
    corruption_sigma: tuple[float, ...] | None = knob(None, "[0, inf)")
    drift_angle_per_step: float = knob(0.1, "(-inf, inf)")
    samples_per_split: int = knob(2048, "[1, inf)")
    class_cov_scale: float = knob(1.0, "(0, inf)")

    def __post_init__(self):
        check_knobs(self)
        if self.regime not in (REGIME_DYNAMIC, REGIME_DISTINCT):
            raise ValueError(f"regime must be dynamic or distinct, got {self.regime!r}")
        self.schedule("corruption_sigma")  # checks its length
        for pc, ps in zip(self.schedule("pi_cov"), self.schedule("pi_sem")):
            if not pc + ps < 1.0:
                raise ValueError(f"mixture weights must satisfy pi_cov + pi_sem < 1, got {pc}, {ps}")

    def schedule(self, name: str) -> tuple[float, ...]:
        """The per-timestep values of the schedule field `name`."""
        value = getattr(self, name)
        if value is None:
            dynamic = self.regime == REGIME_DYNAMIC
            ramp = np.linspace(0.0, 1.0, self.num_timesteps) if dynamic else 0.5
            value = {"pi_cov": 0.3, "pi_sem": 0.2, "corruption_sigma": ramp}[name]
        return _as_schedule(value, self.num_timesteps, name)


def _as_schedule(value, t_count: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * t_count
    sched = tuple(float(v) for v in value)
    if len(sched) != t_count:
        raise ValueError(f"{name} schedule has length {len(sched)}, expected {t_count}")
    return sched


@dataclass
class DomainSnapshot:
    t: int
    id_class_means: np.ndarray  # [K, d]
    sem_class_means: np.ndarray  # [K', d]
    class_cov_scale: float
    corruption_sigma: float

    def min_separation(self) -> float:
        diff = self.id_class_means[:, None, :] - self.sem_class_means[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).min())

    def separated(self) -> bool:
        """Every semantic mean at least 3 class standard deviations from every ID mean."""
        return self.min_separation() >= 3.0 * self.class_cov_scale


@dataclass
class WildBatch:
    """Unlabeled mixture sample whose rows are grouped by source, so
    provenance is non-decreasing; training reads features only."""

    features: np.ndarray
    provenance: np.ndarray  # int tags PROV_ID / PROV_COV / PROV_SEM


def _circle_means(k: int, radius: float, phase: float, dim: int) -> np.ndarray:
    angles = phase + 2.0 * np.pi * np.arange(k) / k
    means = np.zeros((k, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def make_snapshot(cfg: StreamConfig, seed: int, t: int) -> DomainSnapshot:
    """Domain geometry at timestep t, deterministic in (seed, t)."""
    if not 0 <= t < cfg.num_timesteps:
        raise ValueError(f"timestep {t} out of range [0, {cfg.num_timesteps})")
    k, d = cfg.num_classes, cfg.input_dim
    if cfg.regime == REGIME_DYNAMIC:
        phases = [(t * cfg.drift_angle_per_step, np.pi / k)]
    else:
        # The initialization timestep shares the first wild domain (the stream's
        # first real domain is also the init data); fresh domains start at t=2.
        rng = substream(seed, PURPOSE_SNAPSHOT, max(t, 1))
        phases = (
            (rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 2.0 * np.pi))
            for _ in range(_SEPARATION_RETRIES)
        )
    for id_phase, sem_phase in phases:
        snap = DomainSnapshot(
            t,
            _circle_means(k, ID_RADIUS, id_phase, d),
            _circle_means(k, SEM_RADIUS, sem_phase, d),
            cfg.class_cov_scale,
            cfg.schedule("corruption_sigma")[t],
        )
        if snap.separated():
            return snap
    raise ValueError(
        f"semantic means too close to ID means: {snap.min_separation():.3f} "
        f"< 3 * class_cov_scale (class_cov_scale = {cfg.class_cov_scale})"
    )


def _blobs(means: np.ndarray, idx: np.ndarray, scale: float, rng: np.random.Generator):
    """One isotropic Gaussian draw around means[i] for each i in idx."""
    return means[idx] + scale * rng.standard_normal((len(idx), means.shape[1]))


def sample_labeled(snap: DomainSnapshot, n: int, rng: np.random.Generator):
    """Balanced labeled draws around the ID class means."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    labels = np.arange(n) % snap.id_class_means.shape[0]
    return _blobs(snap.id_class_means, labels, snap.class_cov_scale, rng), labels


def corrupt(features: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise per coordinate; sigma=0 is the identity."""
    if not sigma >= 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    x = np.asarray(features, dtype=float)
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.shape)


def sample_wild(
    snap: DomainSnapshot, m: int, pi_cov: float, pi_sem: float, rng: np.random.Generator
) -> WildBatch:
    """Per-sample i.i.d. mixture of ID, covariate-shifted and semantic draws,
    its rows grouped by source in that order."""
    if pi_cov < 0 or pi_sem < 0 or pi_cov + pi_sem >= 1.0:
        raise ValueError(f"invalid mixture weights pi_cov={pi_cov}, pi_sem={pi_sem}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    tags = rng.choice(3, size=m, p=(1.0 - pi_cov - pi_sem, pi_cov, pi_sem))
    counts = np.bincount(tags, minlength=3)
    draws = []
    for tag, count in zip((PROV_ID, PROV_COV, PROV_SEM), counts):
        if count == 0:
            continue
        means = snap.sem_class_means if tag == PROV_SEM else snap.id_class_means
        draw = _blobs(means, rng.integers(0, len(means), size=count), snap.class_cov_scale, rng)
        if tag == PROV_COV:
            draw = corrupt(draw, snap.corruption_sigma, rng)
        draws.append(draw)
    return WildBatch(np.concatenate(draws), np.repeat([PROV_ID, PROV_COV, PROV_SEM], counts))


@dataclass
class TimestepSplits:
    """All per-timestep data a training/evaluation pass needs. Every split
    draws from its own substream; the covariate test rows are the ID test
    rows corrupted, so they share test_id_y."""

    t: int
    train_x: np.ndarray
    train_y: np.ndarray
    wild: WildBatch
    probe_in: np.ndarray
    probe_cov: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_id_x: np.ndarray
    test_id_y: np.ndarray
    test_cov_x: np.ndarray
    test_sem_x: np.ndarray


def make_timestep_splits(
    cfg: StreamConfig, seed: int, t: int, probe_size: int, val_size: int, test_size: int
) -> TimestepSplits:
    """Generate every split of timestep t from independent substreams of seed."""
    snap = make_snapshot(cfg, seed, t)
    n = cfg.samples_per_split
    pi_cov = cfg.schedule("pi_cov")[t]
    pi_sem = cfg.schedule("pi_sem")[t]

    train_x, train_y = sample_labeled(snap, n, substream(seed, PURPOSE_TRAIN, t))
    wild = sample_wild(snap, n, pi_cov, pi_sem, substream(seed, PURPOSE_WILD, t))
    probe_in, _ = sample_labeled(snap, probe_size, substream(seed, PURPOSE_PROBE_IN, t))
    rng_probe_cov = substream(seed, PURPOSE_PROBE_COV, t)
    probe_cov_base, _ = sample_labeled(snap, probe_size, rng_probe_cov)
    probe_cov = corrupt(probe_cov_base, snap.corruption_sigma, rng_probe_cov)
    val_x, val_y = sample_labeled(snap, val_size, substream(seed, PURPOSE_VAL, t))
    test_id_x, test_id_y = sample_labeled(snap, test_size, substream(seed, PURPOSE_TEST_ID, t))
    test_cov_x = corrupt(
        test_id_x, snap.corruption_sigma, substream(seed, PURPOSE_TEST_COV, t)
    )
    rng_sem = substream(seed, PURPOSE_TEST_SEM, t)
    sem_idx = rng_sem.integers(0, snap.sem_class_means.shape[0], size=test_size)
    test_sem_x = _blobs(snap.sem_class_means, sem_idx, snap.class_cov_scale, rng_sem)

    return TimestepSplits(
        t=t,
        train_x=train_x,
        train_y=train_y,
        wild=wild,
        probe_in=probe_in,
        probe_cov=probe_cov,
        val_x=val_x,
        val_y=val_y,
        test_id_x=test_id_x,
        test_id_y=test_id_y,
        test_cov_x=test_cov_x,
        test_sem_x=test_sem_x,
    )
