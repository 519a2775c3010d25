"""Small tanh MLP with hand-written forward/backward passes.

Logits are plain [n, K] float64 arrays. Parameter-shaped quantities
(gradients, momentum buffers) reuse the ModelParams container, which holds
everything in one float64 vector laid out as every weight, then every
bias; its layer arrays are views into it. backward_from_logits
writes every entry of a new vector through its views, gradient sums and
sgd_step's update are whole-vector operations in place, and the
finite-difference checks perturb the same vector.

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
from dataclasses import dataclass

import numpy as np

from .knobs import check_knobs, knob

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

    base_lr: float = knob(0.01, "(0, inf)")
    momentum: float = knob(0.9, "[0, 1)")
    weight_decay: float = knob(0.0005, "[0, inf)")
    batch_size: int = knob(128, "[1, inf)")
    decay_milestones: tuple[float, ...] = knob((0.5, 0.75, 0.9), "(0, 1)")
    decay_factor: float = knob(0.5, "(0, 1]")

    def __post_init__(self):
        check_knobs(self)
        ms = self.decay_milestones
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError(f"decay_milestones must be strictly increasing, got {ms}")


class ModelParams:
    """All learnable state: the MLP's layers.

    Everything lives in one float64 vector `vec`: every weight matrix, then
    every bias. layer_weights and layer_biases are tuples of views into vec,
    so writing into an array writes vec. The layout is computed once by the
    constructor; copy and zeros_like share it.
    """

    __slots__ = ("vec", "layer_weights", "layer_biases", "_layout")

    def __init__(self, layer_weights, layer_biases):
        arrays = [np.asarray(a, dtype=float) for a in (*layer_weights, *layer_biases)]
        layout, i = [], 0
        for a in arrays:
            layout.append((slice(i, i + a.size), a.shape))
            i += a.size
        vec = np.concatenate([a.ravel() for a in arrays])
        self._bind(vec, tuple(layout), len(layer_weights))

    def _bind(self, vec: np.ndarray, layout, num_layers: int) -> "ModelParams":
        views = tuple(vec[s].reshape(shape) for s, shape in layout)
        self.vec, self._layout = vec, layout
        self.layer_weights, self.layer_biases = views[:num_layers], views[num_layers:]
        return self

    def _wrap(self, vec: np.ndarray) -> "ModelParams":
        """A ModelParams over vec, which has this one's layout."""
        return ModelParams.__new__(ModelParams)._bind(vec, self._layout, len(self.layer_weights))

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.layer_weights[-1].shape[1]

    def copy(self) -> "ModelParams":
        return self._wrap(self.vec.copy())

    def zeros_like(self) -> "ModelParams":
        return self._wrap(np.zeros(self.vec.size))

    def named_arrays(self):
        """Yield (name, array) for every layer array, which together cover vec."""
        for i, w in enumerate(self.layer_weights):
            yield f"layer_weights[{i}]", w
        for i, b in enumerate(self.layer_biases):
            yield f"layer_biases[{i}]", b


def init_params(input_dim, num_classes, hidden_sizes=(64, 64), rng=None) -> ModelParams:
    """Symmetric uniform init scaled by 1/sqrt(fan_in); zero biases."""
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
    return ModelParams(weights, biases)


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

    Each layer's gradient is written into the views of one new vector. The
    matmul and sum of each layer write every entry of its views, so the
    vector needs no fill.
    """
    grads = params._wrap(np.empty(params.vec.size))
    delta = np.asarray(dlogits, dtype=float)
    for layer in reversed(range(len(params.layer_weights))):
        np.matmul(activations[layer].T, delta, out=grads.layer_weights[layer])
        delta.sum(axis=0, out=grads.layer_biases[layer])
        if layer > 0:
            # tanh'(a) = 1 - tanh(a)^2, and activations[layer] stores tanh(a)
            slope = np.square(activations[layer])
            np.subtract(1.0, slope, out=slope)
            delta = delta @ params.layer_weights[layer].T
            delta *= slope
    return grads


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
) -> None:
    """One Nesterov-momentum step, in place on params.vec and momentum.vec.

    Weight decay is added to the gradient of the MLP weight matrices only
    (not biases). Buffers follow the common
    buf = mu*buf + g; step = g + mu*buf convention. grads is not written.
    A non-finite gradient raises ValueError before anything is written. A
    non-finite result raises FloatingPointError after the update, so params
    and momentum then hold the failed step (the CLI exits 1 on it).
    """
    if step_index >= total_steps:
        raise ValueError(f"step_index {step_index} out of range for {total_steps} steps")
    if not np.isfinite(grads.vec).all():
        bad = next(name for name, a in grads.named_arrays() if not np.isfinite(a).all())
        raise ValueError(f"non-finite gradient in {bad}")

    lr = learning_rate(step_index, total_steps, cfg)
    mu = cfg.momentum
    theta, buf = params.vec, momentum.vec
    num_weights = sum(w.size for w in params.layer_weights)
    g = grads.vec.copy()
    g[:num_weights] += cfg.weight_decay * theta[:num_weights]
    buf *= mu
    buf += g
    step = mu * buf
    step += g
    step *= lr
    theta -= step
    if not np.isfinite(theta).all():
        raise FloatingPointError("non-finite parameter after update step")
