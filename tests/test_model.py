import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sconelab import model
from sconelab.model import (
    FORWARD_BLOCK_ROWS,
    ModelParams,
    OptimizerConfig,
    backward_from_logits,
    cross_entropy,
    energy,
    forward,
    forward_cached,
    init_params,
    learning_rate,
    log_softmax_energy,
    sgd_step,
    sigmoid,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_zero_params_give_zero_logits():
    params = ModelParams(
        [np.zeros((3, 4)), np.zeros((4, 5))], [np.zeros(4), np.zeros(5)]
    )
    out = forward(params, rng().normal(size=(7, 3)))
    assert np.array_equal(out, np.zeros((7, 5)))


def test_identity_linear_layer():
    params = ModelParams([np.eye(4)], [np.zeros(4)])
    e1 = np.zeros((1, 4))
    e1[0, 0] = 1.0
    assert np.array_equal(forward(params, e1), e1)


def test_forward_matches_straight_line_oracle():
    # independent reimplementation: explicit per-sample loops
    r = rng(1)
    params = init_params(5, 3, hidden_sizes=(6, 4), rng=r)
    x = r.normal(size=(8, 5))
    got = forward(params, x)
    for i in range(8):
        h = x[i]
        for w, b in zip(params.layer_weights[:-1], params.layer_biases[:-1]):
            h = np.tanh(h @ w + b)
        expect = h @ params.layer_weights[-1] + params.layer_biases[-1]
        assert np.abs(got[i] - expect).max() <= 1e-12


def test_forward_dimension_mismatch_names_dims():
    params = init_params(5, 3, rng=rng())
    with pytest.raises(ValueError, match="expects 5, got 4"):
        forward(params, np.zeros((2, 4)))


def test_sigmoid_within_4_ulp_of_expit():
    g = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-1e3, 1e3, 400_001), g.normal(0.0, 10.0, 100_000)])
    want = expit(x)
    assert (np.abs(sigmoid(x) - want) <= 4 * np.spacing(want)).all()


def test_sigmoid_exact_at_infinities_and_silent_on_overflow():
    big = np.finfo(float).max
    x = np.array([-np.inf, -big, -1e3, -745.2, -709.8, 0.0, 709.8, 1e3, big, np.inf])
    with warnings.catch_warnings():
        # as under python -W error::RuntimeWarning
        warnings.simplefilter("error", RuntimeWarning)
        got = sigmoid(x)
        scalars = [sigmoid(v) for v in (-np.inf, -1e3, np.inf)]
    assert got[[0, 1, 2]].tolist() == [0.0, 0.0, 0.0]
    assert got[[5, 7, 8, 9]].tolist() == [0.5, 1.0, 1.0, 1.0]
    assert scalars == [0.0, 0.0, 1.0]


def test_energy_uniform_logits():
    e = energy(np.zeros((3, 10)))
    assert np.allclose(e, -math.log(10.0), atol=1e-12)


def test_energy_direct_two_logits():
    # high-precision direct evaluation of -log(e^5 + e^0)
    expect = -math.log(math.exp(5.0) + 1.0)
    assert abs(energy(np.array([[5.0, 0.0]]))[0] - expect) <= 1e-12


def test_energy_shift_identity_exact():
    z = rng(2).normal(size=(4, 6))
    assert np.allclose(energy(z + 3.0) - energy(z), -3.0, atol=1e-12)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_energy_shift_identity_large_shifts(c):
    z = rng(3).normal(size=(5, 4))
    assert np.abs(energy(z + c) - (energy(z) - c)).max() <= 1e-9


def test_energy_rejects_nonfinite():
    with pytest.raises(ValueError):
        energy(np.array([[np.inf, 0.0]]))


def test_cross_entropy_uniform_prediction():
    loss, _ = cross_entropy(np.zeros((6, 10)), np.arange(6) % 10)
    assert abs(loss - math.log(10.0)) <= 1e-12


def test_cross_entropy_confident_prediction():
    z = np.full((4, 5), -30.0)
    y = np.array([0, 2, 3, 1])
    z[np.arange(4), y] = 30.0
    loss, _ = cross_entropy(z, y)
    assert loss <= 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="labels"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_cross_entropy_gradient_matches_finite_differences():
    r = rng(4)
    z = r.normal(size=(5, 4))
    y = r.integers(0, 4, size=5)
    _, grad = cross_entropy(z, y)
    step = 1e-4
    for i in range(5):
        for j in range(4):
            up, dn = z.copy(), z.copy()
            up[i, j] += step
            dn[i, j] -= step
            num = (cross_entropy(up, y)[0] - cross_entropy(dn, y)[0]) / (2 * step)
            assert abs(grad[i, j] - num) / max(abs(num), abs(grad[i, j]), 1e-8) <= 1e-5


def test_sgd_zero_gradient_is_fixed_point():
    params = init_params(3, 2, rng=rng(5))
    before = params.copy()
    cfg = OptimizerConfig(weight_decay=0.0)
    sgd_step(params, params.zeros_like(), params.zeros_like(), 0, 10, cfg)
    for (_, a), (_, b) in zip(params.named_arrays(), before.named_arrays()):
        assert np.array_equal(a, b)


def test_sgd_plain_gradient_descent():
    params = init_params(3, 2, rng=rng(6))
    before = params.copy()
    grads = params.zeros_like()
    grads.layer_weights[0][...] = 1.0
    cfg = OptimizerConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_step(params, grads, params.zeros_like(), 0, 10, cfg)
    assert np.allclose(params.layer_weights[0], before.layer_weights[0] - 0.1, atol=1e-15)


def test_learning_rate_decay_at_sixty_percent():
    cfg = OptimizerConfig(base_lr=1e-4)
    assert learning_rate(60, 100, cfg) == pytest.approx(0.00005)
    assert learning_rate(0, 100, cfg) == pytest.approx(0.0001)
    assert learning_rate(80, 100, cfg) == pytest.approx(0.000025)
    assert learning_rate(95, 100, cfg) == pytest.approx(0.0000125)


def test_sgd_rejects_nonfinite_gradient():
    params = init_params(3, 2, rng=rng(7))
    grads = params.zeros_like()
    grads.layer_biases[1][0] = np.nan
    with pytest.raises(ValueError, match=r"layer_biases\[1\]"):
        sgd_step(params, grads, params.zeros_like(), 0, 1, OptimizerConfig())


def test_training_steps_are_deterministic():
    def run():
        r = rng(42)
        params = init_params(4, 3, hidden_sizes=(8,), rng=r)
        momentum = params.zeros_like()
        cfg = OptimizerConfig(base_lr=0.05)
        x = r.normal(size=(16, 4))
        y = r.integers(0, 3, size=16)
        for step in range(20):
            logits, acts = forward_cached(params, x)
            _, dz = cross_entropy(logits, y)
            grads = backward_from_logits(params, acts, dz)
            sgd_step(params, grads, momentum, step, 20, cfg)
        return params

    a, b = run(), run()
    for (_, wa), (_, wb) in zip(a.named_arrays(), b.named_arrays()):
        assert np.array_equal(wa, wb)


def test_init_dimensions_chain():
    params = init_params(7, 4, hidden_sizes=(10, 5), rng=rng(8))
    shapes = [w.shape for w in params.layer_weights]
    assert shapes == [(7, 10), (10, 5), (5, 4)]
    assert params.input_dim == 7 and params.num_classes == 4
    assert np.isfinite(params.vec).all()


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(decay_factor=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(decay_milestones=(0.5, 0.4))
    with pytest.raises(ValueError):
        OptimizerConfig(batch_size=0)


def bits(*values) -> bytes:
    """float64 bytes of arrays and scalars, for bitwise comparison."""
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 2048])
def test_blocked_forward_equals_forward_cached(n):
    assert FORWARD_BLOCK_ROWS == 128  # the sizes straddle block boundaries
    r = rng(11)
    params = init_params(8, 6, hidden_sizes=(64, 64), rng=r)
    x = r.normal(scale=2.0, size=(n, 8))
    got = forward(params, x)
    assert got.shape == (n, 6)
    assert bits(got) == bits(forward_cached(params, x)[0])


# Separate log-partitions per quantity: the formulas log_softmax_energy must
# reproduce bit for bit.
def ref_log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def ref_energy(z):
    m = z.max(axis=1)
    return -(m + np.log(np.exp(z - m[:, None]).sum(axis=1)))


def ref_cross_entropy(z, y):
    n = z.shape[0]
    logp = ref_log_softmax(z)
    loss = -logp[np.arange(n), y].mean()
    grad = np.exp(logp)
    grad[np.arange(n), y] -= 1.0
    grad /= n
    return loss, grad


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(2, 12),
    st.floats(min_value=0.01, max_value=60.0),
)
@settings(max_examples=80, deadline=None)
def test_shared_log_partition_matches_reference_formulas(seed, n, k, scale):
    r = rng(seed)
    z = r.normal(scale=scale, size=(n, k))
    y = r.integers(0, k, size=n)
    logp, e = log_softmax_energy(z)
    assert bits(logp) == bits(ref_log_softmax(z))
    assert bits(e) == bits(ref_energy(z))
    assert bits(energy(z)) == bits(ref_energy(z))
    assert bits(*cross_entropy(z, y)) == bits(*ref_cross_entropy(z, y))


def test_params_buffer_contract():
    params = init_params(3, 2, hidden_sizes=(4,), rng=rng(12))
    vec = params.vec
    assert vec.dtype == np.float64 and vec.shape == (3 * 4 + 4 * 2 + 4 + 2,)
    assert bits(vec[:12]) == bits(params.layer_weights[0])
    assert bits(vec[12:20]) == bits(params.layer_weights[1])
    assert bits(vec[20:24]) == bits(params.layer_biases[0])
    assert bits(vec[24:26]) == bits(params.layer_biases[1])
    assert [w.shape for w in params.layer_weights] == [(3, 4), (4, 2)]
    assert [b.shape for b in params.layer_biases] == [(4,), (2,)]
    assert all(np.shares_memory(a, vec) for _, a in params.named_arrays())
    shapes = [a.shape for _, a in params.named_arrays()]
    for other in (params.copy(), params.zeros_like()):
        assert [a.shape for _, a in other.named_arrays()] == shapes
        assert all(np.shares_memory(a, other.vec) for _, a in other.named_arrays())
        assert not np.shares_memory(other.vec, vec)
    assert bits(params.copy().vec) == bits(vec)
    assert not params.zeros_like().vec.any()
    params.layer_biases[0][1] = 3.0
    assert vec[21] == 3.0
    with pytest.raises(TypeError):
        params.layer_weights[0] = np.zeros((3, 4))
    with pytest.raises(TypeError):
        params.layer_biases[0] = np.zeros(4)


def per_array_sgd_step(params, grads, momentum, step_index, total_steps, cfg):
    """The per-array Nesterov update sgd_step must reproduce bit for bit."""
    lr = learning_rate(step_index, total_steps, cfg)
    mu = cfg.momentum
    new_w, new_b = [], []
    new_mom = momentum.zeros_like()
    for i, (w, g, buf) in enumerate(
        zip(params.layer_weights, grads.layer_weights, momentum.layer_weights)
    ):
        g_eff = g + cfg.weight_decay * w
        buf = mu * buf + g_eff
        new_mom.layer_weights[i][...] = buf
        new_w.append(w - lr * (g_eff + mu * buf))
    for i, (b, g, buf) in enumerate(
        zip(params.layer_biases, grads.layer_biases, momentum.layer_biases)
    ):
        buf = mu * buf + g
        new_mom.layer_biases[i][...] = buf
        new_b.append(b - lr * (g + mu * buf))
    return ModelParams(new_w, new_b), new_mom


def random_like(template, r, scale):
    out = template.zeros_like()
    for arrays in (out.layer_weights, out.layer_biases):
        for i, a in enumerate(arrays):
            arrays[i][...] = r.normal(scale=scale, size=a.shape)
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    input_dim=st.integers(1, 9),
    hidden=st.lists(st.integers(1, 9), max_size=3),
    num_classes=st.integers(2, 9),
    mu=st.floats(min_value=0.0, max_value=0.99),
    weight_decay=st.floats(min_value=0.0, max_value=0.1),
    base_lr=st.floats(min_value=1e-6, max_value=1.0),
    milestones=st.lists(
        st.floats(min_value=0.01, max_value=0.99), min_size=0, max_size=3, unique=True
    ),
    total_steps=st.integers(1, 40),
    step_frac=st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=150, deadline=None)
def test_sgd_step_matches_per_array_update(
    seed,
    input_dim,
    hidden,
    num_classes,
    mu,
    weight_decay,
    base_lr,
    milestones,
    total_steps,
    step_frac,
):
    r = rng(seed)
    params = init_params(input_dim, num_classes, hidden_sizes=hidden, rng=r)
    grads = random_like(params, r, 1.0)
    momentum = random_like(params, r, 0.5)
    cfg = OptimizerConfig(
        base_lr=base_lr,
        momentum=mu,
        weight_decay=weight_decay,
        decay_milestones=tuple(sorted(milestones)),
    )
    step = int(step_frac * total_steps)
    params_before, grads_before, momentum_before = params.copy(), grads.copy(), momentum.copy()
    sgd_step(params, grads, momentum, step, total_steps, cfg)
    want_p, want_m = per_array_sgd_step(
        params_before, grads_before, momentum_before, step, total_steps, cfg
    )
    assert bits(grads.vec) == bits(grads_before.vec)
    for got, want in ((params, want_p), (momentum, want_m)):
        assert [a.shape for _, a in got.named_arrays()] == [a.shape for _, a in want.named_arrays()]
        assert bits(*(a for _, a in got.named_arrays())) == bits(
            *(a for _, a in want.named_arrays())
        )


@pytest.mark.parametrize("where", ["layer_weights", "layer_biases"])
def test_sgd_rejected_gradient_writes_nothing(where):
    r = rng(15)
    params = init_params(3, 2, rng=r)
    grads = random_like(params, r, 1.0)
    momentum = random_like(params, r, 0.5)
    getattr(grads, where)[-1][0] = np.inf
    params_before, momentum_before = bits(params.vec), bits(momentum.vec)
    with pytest.raises(ValueError, match="non-finite gradient"):
        sgd_step(params, grads, momentum, 0, 1, OptimizerConfig())
    assert bits(params.vec) == params_before
    assert bits(momentum.vec) == momentum_before


def test_sgd_rejects_overflowing_update():
    params = init_params(3, 2, rng=rng(14))
    grads = params.zeros_like()
    grads.layer_weights[0][...] = 1e308
    cfg = OptimizerConfig(base_lr=1e3, momentum=0.9)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        sgd_step(params, grads, params.zeros_like(), 0, 1, cfg)


class NanEmptyNumpy:
    """numpy, except that np.empty fills its array with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float, order="C"):
        return np.full(shape, np.nan, dtype, order)


@pytest.mark.parametrize("hidden_sizes", [(), (5,), (6, 4)])
def test_backward_writes_every_gradient_entry(monkeypatch, hidden_sizes):
    # The gradient vector is allocated unfilled. With that allocation
    # NaN-filled, an entry the backward pass does not write stays NaN.
    params = init_params(3, 4, hidden_sizes, rng(1))
    _, acts = forward_cached(params, rng(2).normal(size=(9, 3)))
    dz = rng(3).normal(size=(9, 4))
    want = backward_from_logits(params, acts, dz).vec
    monkeypatch.setattr(model, "np", NanEmptyNumpy())
    got = backward_from_logits(params, acts, dz).vec
    assert not np.isnan(got).any()
    assert got.tobytes() == want.tobytes()
