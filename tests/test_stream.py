from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from sconelab.stream import (
    PROV_ID,
    PROV_SEM,
    DomainSnapshot,
    StreamConfig,
    corrupt,
    make_snapshot,
    make_timestep_splits,
    sample_labeled,
    sample_wild,
    substream,
)


def cfg(**kwargs):
    defaults = dict(num_timesteps=5, num_classes=4, input_dim=6)
    defaults.update(kwargs)
    return StreamConfig(**defaults)


def test_zero_drift_snapshots_identical():
    c = cfg(drift_angle_per_step=0.0, corruption_sigma=0.3)
    snaps = [make_snapshot(c, 0, t) for t in range(5)]
    for snap in snaps[1:]:
        assert np.array_equal(snap.id_class_means, snaps[0].id_class_means)
        assert np.array_equal(snap.sem_class_means, snaps[0].sem_class_means)


def test_full_rotation_periodicity():
    t_count = 8
    c = cfg(num_timesteps=t_count + 1, drift_angle_per_step=2.0 * np.pi / t_count)
    first = make_snapshot(c, 0, 0)
    wrapped = make_snapshot(c, 0, t_count)
    assert np.abs(wrapped.id_class_means - first.id_class_means).max() <= 1e-9


def test_snapshot_rejects_out_of_range_t():
    with pytest.raises(ValueError, match="out of range"):
        make_snapshot(cfg(), 0, 5)


def test_distinct_consecutive_timesteps_uncorrelated():
    # Monte-Carlo estimate of independence across seeds. Fresh domains start
    # at t=1 (t=0 shares the first domain as initialization data), so the
    # consecutive pairs checked are (1,2) and (2,3).
    cols = {t: [] for t in (1, 2, 3)}
    c = cfg(regime="distinct")
    for seed in range(1000):
        for t in cols:
            cols[t].append(make_snapshot(c, seed, t).id_class_means[0, 0])
    assert -0.1 <= np.corrcoef(cols[1], cols[2])[0, 1] <= 0.1
    assert -0.1 <= np.corrcoef(cols[2], cols[3])[0, 1] <= 0.1


def test_distinct_init_timestep_shares_first_domain():
    c = cfg(regime="distinct")
    means = [make_snapshot(c, 3, t).id_class_means for t in range(3)]
    assert np.array_equal(means[0], means[1])
    assert not np.array_equal(means[1], means[2])


def test_semantic_separation_invariant():
    for regime in ("dynamic", "distinct"):
        c = cfg(regime=regime, class_cov_scale=1.2)
        for seed in range(20):
            for t in range(c.num_timesteps):
                snap = make_snapshot(c, seed, t)
                assert snap.min_separation() >= 3.0 * c.class_cov_scale


def test_snapshot_rejects_unseparable_geometry():
    # no draw can put the radius-4 and radius-8 circles 15 apart
    for regime in ("dynamic", "distinct"):
        with pytest.raises(ValueError, match="too close"):
            make_snapshot(cfg(regime=regime, class_cov_scale=5.0), 0, 2)


def test_snapshot_deterministic_in_seed_and_t():
    one = make_snapshot(cfg(regime="distinct"), 7, 3)
    two = make_snapshot(cfg(regime="distinct"), 7, 3)
    assert np.array_equal(one.id_class_means, two.id_class_means)


def test_sample_labeled_degenerate_scale_hits_means():
    snap = DomainSnapshot(
        t=0,
        id_class_means=np.arange(8.0).reshape(2, 4),
        sem_class_means=np.full((2, 4), 50.0),
        class_cov_scale=0.0,
        corruption_sigma=0.0,
    )
    features, labels = sample_labeled(snap, 6, substream(0, 99))
    assert np.array_equal(features, snap.id_class_means[labels])


def test_sample_labeled_exact_balance():
    snap = make_snapshot(cfg(), 0, 0)
    _, labels = sample_labeled(snap, 4 * 25, substream(0, 98))
    counts = np.bincount(labels, minlength=4)
    assert np.array_equal(counts, np.full(4, 25))


def test_sample_labeled_class_means_converge():
    # law of large numbers: per-class mean within 5*sigma/sqrt(n_class)
    snap = make_snapshot(cfg(), 0, 0)
    n = 100_000
    features, labels = sample_labeled(snap, n, substream(0, 97))
    for k in range(4):
        rows = features[labels == k]
        bound = 5.0 * snap.class_cov_scale / np.sqrt(rows.shape[0])
        assert np.abs(rows.mean(axis=0) - snap.id_class_means[k]).max() <= bound


def test_corrupt_zero_sigma_is_identity():
    x = np.arange(12.0).reshape(3, 4)
    out = corrupt(x, 0.0, substream(0, 96))
    assert np.array_equal(out, x)
    assert out is not x


def test_corrupt_moment_check():
    x = np.zeros((1_000_000, 1))
    noise = corrupt(x, 0.5, substream(0, 95)) - x
    assert abs(noise.std() - 0.5) <= 0.01


def test_corrupt_gaussian_additivity():
    # corrupting twice with s1, s2 matches once with sqrt(s1^2 + s2^2)
    x = np.zeros((40_000, 1))
    twice = corrupt(corrupt(x, 0.3, substream(1, 94)), 0.4, substream(2, 94))
    once = corrupt(x, 0.5, substream(3, 94))
    result = stats.ks_2samp(twice.ravel(), once.ravel())
    assert result.pvalue > 0.01


def test_sample_wild_degenerate_mixture_is_all_id():
    snap = make_snapshot(cfg(), 0, 0)
    batch = sample_wild(snap, 500, 0.0, 0.0, substream(0, 93))
    assert (batch.provenance == PROV_ID).all()


def test_sample_wild_semantic_fraction_concentrates():
    snap = make_snapshot(cfg(), 0, 0)
    m = 100_000
    pi_cov = 0.3
    pi_sem = 1.0 - pi_cov - 1e-9
    batch = sample_wild(snap, m, pi_cov, pi_sem, substream(0, 92))
    frac = (batch.provenance == PROV_SEM).mean()
    assert abs(frac - pi_sem) <= 3.0 * np.sqrt(pi_sem * (1 - pi_sem) / m)


def test_sample_wild_counts_partition():
    """The pool's rows come grouped by source, ID then covariate then
    semantic, as many of each as the tag draw made."""
    snap = make_snapshot(cfg(), 0, 0)
    batch = sample_wild(snap, 777, 0.25, 0.15, substream(0, 91))
    assert (np.diff(batch.provenance) >= 0).all()
    tags = substream(0, 91).choice(3, size=777, p=(1.0 - 0.25 - 0.15, 0.25, 0.15))
    counts = np.bincount(batch.provenance, minlength=3)
    assert counts.sum() == 777 and counts.min() > 0
    assert np.array_equal(counts, np.bincount(tags, minlength=3))


def test_source_features_are_label_free_views():
    """The pool is features only, and each row sits in the block of its source."""
    # with no spread and no corruption every row sits on a mean of its source
    snap = DomainSnapshot(
        t=0,
        id_class_means=np.arange(8.0).reshape(2, 4),
        sem_class_means=np.full((2, 4), 50.0),
        class_cov_scale=0.0,
        corruption_sigma=0.0,
    )
    batch = sample_wild(snap, 300, 0.3, 0.2, substream(0, 88))
    assert batch.features.shape == (300, 4)  # features only
    is_sem = (batch.features == 50.0).all(axis=1)
    assert is_sem.any() and np.array_equal(is_sem, batch.provenance == PROV_SEM)
    id_rows = {row.tobytes() for row in snap.id_class_means}
    assert all(row.tobytes() in id_rows for row in batch.features[~is_sem])


def test_sample_wild_rejects_bad_weights():
    snap = make_snapshot(cfg(), 0, 0)
    with pytest.raises(ValueError, match="mixture"):
        sample_wild(snap, 10, 0.6, 0.5, substream(0, 90))


def test_stream_config_schedule_validation():
    with pytest.raises(ValueError, match="length"):
        cfg(pi_cov=(0.1, 0.2))
    with pytest.raises(ValueError, match="pi_cov"):
        cfg(pi_cov=0.7, pi_sem=0.4)
    for name in ("pi_cov", "pi_sem", "corruption_sigma"):
        for bad in (np.nan, np.inf, -0.1):
            with pytest.raises(ValueError, match=rf"{name} must be in \[0, inf\)"):
                cfg(**{name: bad})
            with pytest.raises(ValueError, match=rf"{name} must be in \[0, inf\)"):
                cfg(**{name: (0.1, 0.1, bad, 0.1, 0.1)})
    c = cfg(regime="dynamic")
    assert c.schedule("corruption_sigma")[0] == 0.0
    assert c.schedule("corruption_sigma")[-1] == 1.0
    assert len(c.schedule("pi_cov")) == 5


@pytest.mark.parametrize("given", [{}, dict(pi_cov=0.1, corruption_sigma=0.25)])
def test_stream_config_replace_equals_fresh_config(given):
    """A schedule is kept as given, so replacing the regime or the timestep
    count gives the config built fresh with those values, schedules and all."""
    base = StreamConfig(**given)
    for change in (
        dict(regime="distinct"),
        dict(regime="dynamic"),
        dict(num_timesteps=5),
        dict(num_timesteps=1),
        dict(regime="distinct", num_timesteps=3),
    ):
        replaced, fresh = replace(base, **change), StreamConfig(**given, **change)
        assert replaced == fresh
        for name in ("pi_cov", "pi_sem", "corruption_sigma"):
            assert replaced.schedule(name) == fresh.schedule(name)
    # the regime's own default ramp, not the one the base config resolved
    assert replace(StreamConfig(), regime="distinct").schedule("corruption_sigma") == (0.5,) * 10


def test_timestep_splits_deterministic_and_disjoint_ids():
    c = cfg()
    one = make_timestep_splits(c, 0, 2, probe_size=64, val_size=64, test_size=128)
    two = make_timestep_splits(c, 0, 2, probe_size=64, val_size=64, test_size=128)
    assert np.array_equal(one.train_x, two.train_x)
    assert np.array_equal(one.wild.features, two.wild.features)
    assert np.array_equal(one.test_sem_x, two.test_sem_x)
    # no held-out test row repeats a row the timestep trains on
    trained = {row.tobytes() for row in np.concatenate([one.train_x, one.wild.features])}
    for test_x in (one.test_id_x, one.test_cov_x, one.test_sem_x):
        assert not any(row.tobytes() in trained for row in test_x)


def test_dynamic_consecutive_means_bounded_by_rotation_chord():
    c = cfg(drift_angle_per_step=0.25)
    bound = 2.0 * 4.0 * np.sin(0.25 / 2.0) + 1e-12
    for t in range(c.num_timesteps - 1):
        a = make_snapshot(c, 0, t).id_class_means
        b = make_snapshot(c, 0, t + 1).id_class_means
        dist = np.sqrt(((a - b) ** 2).sum(axis=1)).max()
        assert dist <= bound
