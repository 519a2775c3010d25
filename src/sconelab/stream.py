"""Synthetic drifting wild-data streams.

Each timestep owns an in-distribution domain (K Gaussian blobs whose means
sit on a circle of radius 4 in the first two coordinates), a covariate-
shifted variant (the same blobs plus isotropic Gaussian corruption), and a
semantic outlier domain (K held-out blobs on a radius-8 circle). The
"dynamic" regime rotates the ID means by a fixed angle per timestep and
ramps the corruption level; the "distinct" regime redraws the geometry
independently per timestep.

Wild batches are per-sample i.i.d. mixtures of the three sources. Each
row carries a provenance tag and no label; training code receives the
label-free feature arrays of each source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    Scalar pi_cov / pi_sem / corruption entries are broadcast to per-t
    schedules; omitted corruption defaults to a linear 0 -> 1 ramp in the
    dynamic regime and a constant 0.5 in the distinct regime.
    """

    num_timesteps: int = 10
    num_classes: int = 6
    input_dim: int = 8
    regime: str = REGIME_DYNAMIC
    pi_cov_schedule: tuple[float, ...] | None = None
    pi_sem_schedule: tuple[float, ...] | None = None
    corruption_sigma_schedule: tuple[float, ...] | None = None
    drift_angle_per_step: float = 0.1
    samples_per_split: int = 2048
    class_cov_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_timesteps < 1:
            raise ValueError(f"num_timesteps must be >= 1, got {self.num_timesteps}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_dim < 2:
            raise ValueError(f"input_dim must be >= 2, got {self.input_dim}")
        if self.regime not in (REGIME_DYNAMIC, REGIME_DISTINCT):
            raise ValueError(f"regime must be dynamic or distinct, got {self.regime!r}")
        # written as `not ok` so that NaN fails each check
        if not 0.0 < self.class_cov_scale < np.inf:
            raise ValueError(f"class_cov_scale must be > 0 and finite, got {self.class_cov_scale}")
        if not np.isfinite(self.drift_angle_per_step):
            raise ValueError(
                f"drift_angle_per_step must be finite, got {self.drift_angle_per_step}"
            )
        if self.samples_per_split < 1:
            raise ValueError("samples_per_split must be positive")
        t_count = self.num_timesteps
        self.pi_cov_schedule = _as_schedule(
            0.3 if self.pi_cov_schedule is None else self.pi_cov_schedule, t_count, "pi_cov"
        )
        self.pi_sem_schedule = _as_schedule(
            0.2 if self.pi_sem_schedule is None else self.pi_sem_schedule, t_count, "pi_sem"
        )
        if self.corruption_sigma_schedule is None:
            if self.regime == REGIME_DYNAMIC:
                ramp = np.linspace(0.0, 1.0, t_count) if t_count > 1 else np.array([0.0])
                self.corruption_sigma_schedule = tuple(float(s) for s in ramp)
            else:
                self.corruption_sigma_schedule = (0.5,) * t_count
        else:
            self.corruption_sigma_schedule = _as_schedule(
                self.corruption_sigma_schedule, t_count, "corruption_sigma"
            )
        for name in ("pi_cov_schedule", "pi_sem_schedule"):
            if not all(p >= 0.0 for p in getattr(self, name)):
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for pc, ps in zip(self.pi_cov_schedule, self.pi_sem_schedule):
            if not pc + ps < 1.0:
                raise ValueError(f"mixture weights must satisfy pi_cov + pi_sem < 1, got {pc}, {ps}")
        if not all(0.0 <= s < np.inf for s in self.corruption_sigma_schedule):
            raise ValueError(
                "corruption_sigma_schedule must be >= 0 and finite, "
                f"got {self.corruption_sigma_schedule}"
            )


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

    def validate(self):
        if self.min_separation() < 3.0 * self.class_cov_scale:
            raise ValueError(
                f"semantic means too close to ID means: {self.min_separation():.3f} "
                f"< {3.0 * self.class_cov_scale:.3f}"
            )


@dataclass
class WildBatch:
    """Provenance-tagged, unlabeled mixture sample; training code consumes
    source_features()."""

    features: np.ndarray
    provenance: np.ndarray  # int tags PROV_ID / PROV_COV / PROV_SEM

    def source_features(self):
        """Label-free per-source feature arrays (id, cov, sem)."""
        return (
            self.features[self.provenance == PROV_ID],
            self.features[self.provenance == PROV_COV],
            self.features[self.provenance == PROV_SEM],
        )


def _circle_means(k: int, radius: float, phase: float, dim: int) -> np.ndarray:
    angles = phase + 2.0 * np.pi * np.arange(k) / k
    means = np.zeros((k, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def make_snapshot(cfg: StreamConfig, t: int) -> DomainSnapshot:
    """Domain geometry at timestep t, deterministic in (cfg.seed, t)."""
    if not 0 <= t < cfg.num_timesteps:
        raise ValueError(f"timestep {t} out of range [0, {cfg.num_timesteps})")
    k, d = cfg.num_classes, cfg.input_dim
    sigma = cfg.corruption_sigma_schedule[t]
    if cfg.regime == REGIME_DYNAMIC:
        id_means = _circle_means(k, ID_RADIUS, t * cfg.drift_angle_per_step, d)
        sem_means = _circle_means(k, SEM_RADIUS, np.pi / k, d)
        snap = DomainSnapshot(t, id_means, sem_means, cfg.class_cov_scale, sigma)
        snap.validate()
        return snap
    # The initialization timestep shares the first wild domain (the stream's
    # first real domain is also the init data); fresh domains start at t=2.
    rng = substream(cfg.seed, PURPOSE_SNAPSHOT, max(t, 1))
    for _ in range(_SEPARATION_RETRIES):
        id_means = _circle_means(k, ID_RADIUS, rng.uniform(0.0, 2.0 * np.pi), d)
        sem_means = _circle_means(k, SEM_RADIUS, rng.uniform(0.0, 2.0 * np.pi), d)
        snap = DomainSnapshot(t, id_means, sem_means, cfg.class_cov_scale, sigma)
        if snap.min_separation() >= 3.0 * cfg.class_cov_scale:
            return snap
    snap.validate()  # raises with the last draw's separation
    return snap


def sample_labeled(snap: DomainSnapshot, n: int, rng: np.random.Generator):
    """Balanced labeled draws around the ID class means."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    k = snap.id_class_means.shape[0]
    labels = np.arange(n) % k
    features = snap.id_class_means[labels] + snap.class_cov_scale * rng.standard_normal(
        (n, snap.id_class_means.shape[1])
    )
    return features, labels


def corrupt(features: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise per coordinate; sigma=0 is the identity."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    x = np.asarray(features, dtype=float)
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.shape)


def sample_wild(
    snap: DomainSnapshot, m: int, pi_cov: float, pi_sem: float, rng: np.random.Generator
) -> WildBatch:
    """Per-sample i.i.d. mixture of ID, covariate-shifted and semantic draws."""
    if pi_cov < 0 or pi_sem < 0 or pi_cov + pi_sem >= 1.0:
        raise ValueError(f"invalid mixture weights pi_cov={pi_cov}, pi_sem={pi_sem}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    k, d = snap.id_class_means.shape
    k_sem = snap.sem_class_means.shape[0]
    tags = rng.choice(3, size=m, p=(1.0 - pi_cov - pi_sem, pi_cov, pi_sem))
    features = np.zeros((m, d))

    for tag in (PROV_ID, PROV_COV, PROV_SEM):
        mask = tags == tag
        count = int(mask.sum())
        if count == 0:
            continue
        if tag == PROV_SEM:
            idx = rng.integers(0, k_sem, size=count)
            features[mask] = snap.sem_class_means[idx] + snap.class_cov_scale * rng.standard_normal(
                (count, d)
            )
        else:
            lab = rng.integers(0, k, size=count)
            draw = snap.id_class_means[lab] + snap.class_cov_scale * rng.standard_normal(
                (count, d)
            )
            if tag == PROV_COV:
                draw = corrupt(draw, snap.corruption_sigma, rng)
            features[mask] = draw
    return WildBatch(features, tags)


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
    cfg: StreamConfig, t: int, probe_size: int, val_size: int, test_size: int
) -> TimestepSplits:
    """Generate every split of timestep t from independent substreams."""
    snap = make_snapshot(cfg, t)
    n = cfg.samples_per_split
    pi_cov = cfg.pi_cov_schedule[t]
    pi_sem = cfg.pi_sem_schedule[t]

    train_x, train_y = sample_labeled(snap, n, substream(cfg.seed, PURPOSE_TRAIN, t))
    wild = sample_wild(snap, n, pi_cov, pi_sem, substream(cfg.seed, PURPOSE_WILD, t))
    probe_in, _ = sample_labeled(snap, probe_size, substream(cfg.seed, PURPOSE_PROBE_IN, t))
    rng_probe_cov = substream(cfg.seed, PURPOSE_PROBE_COV, t)
    probe_cov_base, _ = sample_labeled(snap, probe_size, rng_probe_cov)
    probe_cov = corrupt(probe_cov_base, snap.corruption_sigma, rng_probe_cov)
    val_x, val_y = sample_labeled(snap, val_size, substream(cfg.seed, PURPOSE_VAL, t))
    test_id_x, test_id_y = sample_labeled(snap, test_size, substream(cfg.seed, PURPOSE_TEST_ID, t))
    test_cov_x = corrupt(
        test_id_x, snap.corruption_sigma, substream(cfg.seed, PURPOSE_TEST_COV, t)
    )
    rng_sem = substream(cfg.seed, PURPOSE_TEST_SEM, t)
    sem_idx = rng_sem.integers(0, snap.sem_class_means.shape[0], size=test_size)
    test_sem_x = snap.sem_class_means[sem_idx] + snap.class_cov_scale * rng_sem.standard_normal(
        (test_size, cfg.input_dim)
    )

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
