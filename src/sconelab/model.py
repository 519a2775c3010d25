"""Small tanh MLP with hand-written forward/backward passes.

Logits are plain [n, K] float64 arrays. Parameter-shaped quantities
(gradients, momentum buffers) reuse the ModelParams container.
ModelParams.flatten/unflatten fix one flat layout (weights, biases,
g_weight, g_bias); sgd_step gathers parameters, gradients and momentum
into that layout and updates them with a few whole-vector operations, and
the finite-difference checks perturb the same vector.

The no-grad forward pass runs in blocks of FORWARD_BLOCK_ROWS rows, so its
temporaries stay small on full-split passes. Rows do not interact and no
block is a single row, so its logits equal forward_cached's bit for bit.

Training runs on one BLAS thread (single_blas_thread, entered by
trainer.run_stream). Every matmul here has at most 128 rows (a minibatch
or a forward block) by 64 columns, yet OpenBLAS still splits the 128 x 64
x 64 hidden-layer product across its threads, and the second thread spins
without making the product faster: on a 2-core host the benchmark's
compare_grid took a median 5.3 s of CPU for 2.7 s of wall time with 2
threads, and 2.6 s of CPU for 2.6 s with one. Records are bitwise the
same on either count (tests/test_trajectory_golden.py pins them).
"""

from __future__ import annotations

import ctypes
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

# Rows per block of the no-grad forward pass. A 128 x 64 float64 hidden
# activation is 64 KiB, below glibc's 128 KiB mmap threshold, so block
# temporaries reuse heap memory; larger ones are fresh mappings that page
# fault on every call.
FORWARD_BLOCK_ROWS = 128

# (get, set) thread-count symbols of OpenBLAS, tried in order: numpy 2
# wheels (scipy-openblas, 64-bit ints), numpy 1.x wheels, system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_openblas_thread_api():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    dlsym on the handle of numpy's _multiarray_umath extension also finds
    the symbols of the libraries it links, so this finds the BLAS numpy
    itself calls, whether a wheel bundles it or the system provides it.
    """
    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as ext
    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_OPENBLAS_THREADS = _find_openblas_thread_api()


def single_blas_thread() -> ExitStack:
    """Put OpenBLAS on one thread; the returned context restores the old count.

    Use as `with single_blas_thread():`. The count is restored when the
    block exits, also on an exception. Does nothing when numpy's OpenBLAS
    thread functions were not found.
    """
    restore = ExitStack()
    if _OPENBLAS_THREADS is not None:
        get, set_ = _OPENBLAS_THREADS
        restore.callback(set_, get())
        set_(1)
    return restore


@dataclass(frozen=True)
class OptimizerConfig:
    """SGD with Nesterov momentum and milestone step decay.

    Milestones are fractions of the total optimizer steps of one
    timestep's training budget; the learning rate is multiplied by
    decay_factor once per milestone passed.
    """

    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 128
    decay_milestones: tuple[float, ...] = (0.5, 0.75, 0.9)
    decay_factor: float = 0.5
    # Slow detector head: an unconstrained affine slope sharpens the sigmoid
    # surrogates back into the 0/1 losses they replace, which collapses the
    # energy margins; the head therefore learns at a fraction of the base rate.
    head_lr_scale: float = 0.05

    def __post_init__(self):
        # written as `not ok` so that NaN fails each check
        if not 0.0 < self.base_lr < np.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 <= self.head_lr_scale < np.inf:
            raise ValueError(f"head_lr_scale must be >= 0 and finite, got {self.head_lr_scale}")
        ms = self.decay_milestones
        if any(not 0.0 < m < 1.0 for m in ms) or any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be strictly increasing in (0, 1), got {ms}")


@dataclass
class ModelParams:
    """All learnable state: MLP layers plus the affine detector head."""

    layer_weights: list[np.ndarray]
    layer_biases: list[np.ndarray]
    g_weight: float = 1.0
    g_bias: float = 0.0

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.layer_weights[-1].shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            [w.copy() for w in self.layer_weights],
            [b.copy() for b in self.layer_biases],
            self.g_weight,
            self.g_bias,
        )

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            [np.zeros_like(w) for w in self.layer_weights],
            [np.zeros_like(b) for b in self.layer_biases],
            0.0,
            0.0,
        )

    def flatten(self) -> np.ndarray:
        """One float64 vector: every weight, every bias, g_weight, g_bias."""
        return np.concatenate(
            [
                *(w.ravel() for w in self.layer_weights),
                *(b.ravel() for b in self.layer_biases),
                [self.g_weight, self.g_bias],
            ]
        )

    def unflatten(self, vec: np.ndarray) -> "ModelParams":
        """Inverse of flatten with this object's shapes; arrays are views of vec."""
        arrays, i = [], 0
        for a in (*self.layer_weights, *self.layer_biases):
            arrays.append(vec[i : i + a.size].reshape(a.shape))
            i += a.size
        n = len(self.layer_weights)
        return ModelParams(arrays[:n], arrays[n:], float(vec[i]), float(vec[i + 1]))

    def named_arrays(self):
        """Yield (name, array) for every tensor; scalars excluded."""
        for i, w in enumerate(self.layer_weights):
            yield f"layer_weights[{i}]", w
        for i, b in enumerate(self.layer_biases):
            yield f"layer_biases[{i}]", b


def init_params(input_dim, num_classes, hidden_sizes=(64, 64), rng=None) -> ModelParams:
    """Symmetric uniform init scaled by 1/sqrt(fan_in); zero biases.

    The detector head starts as the identity (g_weight=1, g_bias=0).
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be positive, got {input_dim}")
    rng = np.random.default_rng() if rng is None else rng
    dims = [int(input_dim), *[int(h) for h in hidden_sizes], int(num_classes)]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases, 1.0, 0.0)


def _check_features(params: ModelParams, features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-d [n, d], got shape {x.shape}")
    if x.shape[1] != params.input_dim:
        raise ValueError(
            f"feature width mismatch: model expects {params.input_dim}, got {x.shape[1]}"
        )
    return x


def _logits(params: ModelParams, x: np.ndarray, activations: list | None = None):
    """Logits of x; appends each hidden tanh output to activations if given.

    Bias and tanh are applied in place, one allocation per layer.
    """
    h = x
    for w, b in zip(params.layer_weights[:-1], params.layer_biases[:-1]):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        if activations is not None:
            activations.append(h)
    logits = h @ params.layer_weights[-1]
    logits += params.layer_biases[-1]
    return logits


def forward_cached(params: ModelParams, features: np.ndarray):
    """Forward pass returning (logits, per-layer activations).

    activations[0] is the input; activations[l] for l >= 1 is the tanh
    output of hidden layer l. Needed by backward_from_logits.
    """
    x = _check_features(params, features)
    activations = [x]
    return _logits(params, x, activations), activations


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits without activations, FORWARD_BLOCK_ROWS rows at a time."""
    x = _check_features(params, features)
    n = x.shape[0]
    if n <= FORWARD_BLOCK_ROWS:
        return _logits(params, x)
    starts = list(range(0, n, FORWARD_BLOCK_ROWS))
    if n % FORWARD_BLOCK_ROWS == 1:
        # NumPy multiplies a one-row matrix as a vector (BLAS gemv), which
        # sums in another order than the matrix product of the whole input;
        # the last row joins the block before it instead.
        starts.pop()
    out = np.empty((n, params.num_classes))
    for start, stop in zip(starts, [*starts[1:], n]):
        out[start:stop] = _logits(params, x[start:stop])
    return out


def backward_from_logits(params: ModelParams, activations, dlogits: np.ndarray) -> ModelParams:
    """Backpropagate a [n, K] logits gradient into a parameter gradient.

    The detector-head entries of the result are zero; head gradients are
    accumulated separately by the energy losses.
    """
    num_layers = len(params.layer_weights)
    grad_w, grad_b = [None] * num_layers, [None] * num_layers
    delta = np.asarray(dlogits, dtype=float)
    for layer in reversed(range(num_layers)):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            # tanh'(a) = 1 - tanh(a)^2, and activations[layer] stores tanh(a)
            slope = np.square(activations[layer])
            np.subtract(1.0, slope, out=slope)
            delta = delta @ params.layer_weights[layer].T
            delta *= slope
    return ModelParams(grad_w, grad_b, 0.0, 0.0)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    Below x of about -709, exp(-x) overflows to inf and the result is 0.0,
    off by less than the smallest normal float; that overflow is expected,
    so it raises no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_softmax_energy(logits: np.ndarray):
    """(log_softmax(z), energy(z)) from one max-shifted log-partition.

    energy is -log sum_y exp(z_y) per row. Raises ValueError on non-finite
    logits, for which neither is defined.
    """
    z = np.asarray(logits, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    m = z.max(axis=1, keepdims=True)
    logp = z - m
    log_partition = np.log(np.exp(logp).sum(axis=1, keepdims=True))
    logp -= log_partition
    log_partition += m
    return logp, -log_partition[:, 0]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    return log_softmax_energy(logits)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def energy(logits: np.ndarray) -> np.ndarray:
    """Per-sample energy -log sum_y exp(z_y), max-shifted for stability."""
    return log_softmax_energy(logits)[1]


def cross_entropy_from_log_softmax(logp: np.ndarray, probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its logits gradient (probs - onehot)/n.

    probs must be exp(logp); it is overwritten with the gradient, which is
    returned.
    """
    y = np.asarray(labels)
    n, k = logp.shape
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch size {n}")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range [{y.min()}, {y.max()}]")
    rows = np.arange(n)
    loss = -logp[rows, y].mean()
    probs[rows, y] -= 1.0
    probs /= n
    return loss, probs


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. logits.

    Returns (loss, dloss/dlogits) with dloss/dlogits = (softmax - onehot)/n.
    """
    logp, _ = log_softmax_energy(logits)
    return cross_entropy_from_log_softmax(logp, np.exp(logp), labels)


def learning_rate(step_index: int, total_steps: int, cfg: OptimizerConfig) -> float:
    """Milestone decay: a milestone m is passed once step_index >= m * total_steps."""
    passed = sum(1 for m in cfg.decay_milestones if step_index >= m * total_steps)
    return cfg.base_lr * cfg.decay_factor**passed


def sgd_step(
    params: ModelParams,
    grads: ModelParams,
    momentum: ModelParams,
    step_index: int,
    total_steps: int,
    cfg: OptimizerConfig,
):
    """One Nesterov-momentum step; returns (new_params, new_momentum).

    Weight decay is added to the gradient of the MLP weight matrices only
    (not biases, not the detector head). Buffers follow the common
    buf = mu*buf + g; step = g + mu*buf convention. The update runs on the
    flat layout of ModelParams.flatten; the returned arrays are views of
    two fresh vectors.
    """
    if step_index >= total_steps:
        raise ValueError(f"step_index {step_index} out of range for {total_steps} steps")
    g = grads.flatten()
    if not np.isfinite(g).all():
        bad = [name for name, a in grads.named_arrays() if not np.isfinite(a).all()]
        raise ValueError(f"non-finite gradient in {(bad or ['detector head'])[0]}")

    lr = learning_rate(step_index, total_steps, cfg)
    mu = cfg.momentum
    theta = params.flatten()
    num_weights = sum(w.size for w in params.layer_weights)
    g[:num_weights] += cfg.weight_decay * theta[:num_weights]
    buf = momentum.flatten()
    buf *= mu
    buf += g
    step = mu * buf
    step += g
    step[:-2] *= lr
    step[-2:] *= lr * cfg.head_lr_scale
    theta -= step
    if not np.isfinite(theta).all():
        raise FloatingPointError("non-finite parameter after update step")
    return params.unflatten(theta), params.unflatten(buf)
