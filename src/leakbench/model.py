"""Minimal feed-forward classifier trained with Adam.

One optional ReLU hidden layer feeding a sigmoid output unit, binary
cross-entropy loss.  With ``hidden_neurons=0`` the network is exactly
logistic regression on the raw features.  Everything is plain numpy;
training is deterministic given the config seed.

``train`` keeps every parameter in one flat float64 buffer of
``n_parameters`` elements, laid out as ``w2, b2, w1, b1``; the layers are
views into it.  The gradient and both Adam moments share that layout, so
a step is one backward pass writing into the gradient buffer and one
Adam update over the whole flat buffer.  Each epoch's shuffled rows are
gathered once and batches are slices of them.  The arithmetic and its
order are those of a per-array Adam, so the weights are bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

__all__ = [
    "MlpConfig",
    "MlpModel",
    "ModelParams",
    "bce_loss",
    "forward",
    "init_mlp",
    "loss_and_grad",
    "train",
]

# Predicted probabilities are clamped away from 0 and 1 by this margin,
# both inside the loss and on the forward output.
PROB_CLAMP = 1e-12


@dataclass
class ModelParams:
    """Trainer knobs shared by every cell (width and seed vary per cell)."""

    epochs: int = 20
    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")


@dataclass(kw_only=True)
class MlpConfig(ModelParams):
    """One network's full config: the shared knobs plus its shape and seed."""

    n_features: int
    hidden_neurons: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if self.hidden_neurons < 0:
            raise ValueError("hidden_neurons must be non-negative")
        super().__post_init__()


@dataclass
class MlpModel:
    config: MlpConfig
    w1: np.ndarray | None  # (hidden, features), None when hidden_neurons == 0
    b1: np.ndarray | None
    w2: np.ndarray  # (hidden,) or (features,)
    b2: float

    @property
    def n_parameters(self) -> int:
        n = self.w2.size + 1
        if self.w1 is not None:
            n += self.w1.size + self.b1.size
        return int(n)


def init_mlp(cfg: MlpConfig) -> MlpModel:
    """Fresh weights: He-uniform first layer, Glorot-uniform output, zero biases."""
    rng = derive_rng(cfg.seed, "init")
    d, h = cfg.n_features, cfg.hidden_neurons
    w1 = b1 = None
    if h > 0:
        bound1 = math.sqrt(6.0 / d)
        w1 = rng.uniform(-bound1, bound1, (h, d))
        b1 = np.zeros(h)
    k = h or d  # the output layer reads the hidden units, or the raw features
    bound2 = math.sqrt(6.0 / (k + 1))
    w2 = rng.uniform(-bound2, bound2, k)
    return MlpModel(config=cfg, w1=w1, b1=b1, w2=w2, b2=0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees -|z|, so it cannot overflow; both branches are
    # the textbook forms, picked per element by the sign of z
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _views(buf: np.ndarray, cfg: MlpConfig) -> tuple:
    """``(w2, b2, w1, b1)`` as views into one flat buffer laid out in that order.

    ``b2`` is a one-element view; ``w1`` and ``b1`` are None without a
    hidden layer.  Parameters, gradients and the Adam moments share this
    layout, so one ufunc call updates every block at once.
    """
    d, h = cfg.n_features, cfg.hidden_neurons
    k = h or d
    w2, b2 = buf[:k], buf[k : k + 1]
    if h == 0:
        return w2, b2, None, None
    return w2, b2, buf[k + 1 : k + 1 + h * d].reshape(h, d), buf[k + 1 + h * d :]


def _forward(x: np.ndarray, w2, b2, w1, b1):
    """``(z1, a1, p)``; without a hidden layer ``z1`` is None and ``a1`` is ``x``."""
    z1, a1 = None, x
    if w1 is not None:
        z1 = x @ w1.T + b1
        a1 = np.maximum(z1, 0.0)
    return z1, a1, _sigmoid(a1 @ w2 + b2)


def _backprop(x: np.ndarray, y: np.ndarray, params: tuple, grad: tuple) -> np.ndarray:
    """Write the mean-BCE gradient of one batch into ``grad``; return its probabilities.

    ``params`` and ``grad`` are ``(w2, b2, w1, b1)`` tuples, the gradient's
    ``b2`` a one-element array.
    """
    w2, b2, w1, b1 = params
    g_w2, g_b2, g_w1, g_b1 = grad
    z1, a1, p = _forward(x, w2, b2, w1, b1)
    dz2 = (p - y) / x.shape[0]
    g_b2[0] = dz2.sum()
    np.matmul(a1.T, dz2, out=g_w2)
    if w1 is not None:
        dz1 = dz2[:, None] * w2
        dz1 *= z1 > 0
        np.matmul(dz1.T, x, out=g_w1)
        dz1.sum(axis=0, out=g_b1)
    return p


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predicted probabilities, clamped into (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    _, _, p = _forward(x, model.w2, model.b2, model.w1, model.b1)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


def loss_and_grad(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean BCE over the batch plus gradients for every parameter.

    The gradient comes from the routine ``train`` runs on every batch.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    grad = _views(np.empty(model.n_parameters), model.config)
    p = _backprop(x, y, (model.w2, model.b2, model.w1, model.b1), grad)
    grads = {"w2": grad[0], "b2": grad[1][0]}
    if model.w1 is not None:
        grads["w1"], grads["b1"] = grad[2], grad[3]
    return bce_loss(p, y), grads


def _adam_step(cfg: MlpConfig, t: int, params, grad, m, v) -> None:
    """One Adam step (Kingma & Ba, 2015) over flat buffers, in place.

    The operations and their order are those of the per-array update, so
    every element is bitwise the same.
    """
    m *= cfg.beta1
    m += (1 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1 - cfg.beta2) * (grad * grad)
    m_hat = m / (1 - cfg.beta1**t)
    v_hat = v / (1 - cfg.beta2**t)
    params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def train(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    _permutations=None,
) -> tuple[MlpModel, list[float]]:
    """Mini-batch Adam for ``config.epochs`` epochs.

    Rows are reshuffled every epoch (the shuffle stream is derived from
    the config seed); the trailing partial batch is kept.  Returns the
    trained model, which shares no memory with ``model``, and the
    full-data loss recorded at the end of each epoch.  A batch whose loss
    is non-finite aborts with the epoch and batch in the message; that
    happens exactly when its ``b2`` gradient is non-finite, since the
    clamp keeps the logs finite, so the gradient is what gets checked.
    ``_permutations`` is a test hook that overrides the per-epoch
    shuffles; each entry must be a permutation of the rows.
    """
    cfg = model.config
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have the same number of rows")
    if x.shape[0] == 0:
        raise ValueError("training set is empty")
    if x.shape[1] != cfg.n_features:
        raise ValueError(
            f"training data has {x.shape[1]} features, config says {cfg.n_features}"
        )
    rng = derive_rng(cfg.seed, "shuffle")
    params = np.empty(model.n_parameters)
    w2, b2, w1, b1 = layers = _views(params, cfg)
    w2[...], b2[0] = model.w2, model.b2
    if w1 is not None:
        w1[...], b1[...] = model.w1, model.b1
    grad = np.empty_like(params)
    grad_layers = _views(grad, cfg)
    m, v = np.zeros_like(params), np.zeros_like(params)
    # each epoch's shuffled rows, gathered once; batches are slices.  With
    # out=, mode="raise" would first copy into a temporary of x's size
    xs, ys = np.empty_like(x), np.empty_like(y)
    history: list[float] = []
    n = x.shape[0]
    t = 0
    for epoch in range(cfg.epochs):
        if _permutations is not None:
            perm = np.asarray(_permutations[epoch], dtype=np.int64)
        else:
            perm = rng.permutation(n)
        np.take(x, perm, axis=0, out=xs, mode="clip")
        np.take(y, perm, out=ys, mode="clip")
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            stop = start + cfg.batch_size
            _backprop(xs[start:stop], ys[start:stop], layers, grad_layers)
            if not math.isfinite(grad_layers[1][0]):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}, "
                    f"batch {batch_no + 1}"
                )
            t += 1
            _adam_step(cfg, t, params, grad, m, v)
        history.append(bce_loss(_forward(x, *layers)[2], y))
    return MlpModel(config=cfg, w1=w1, b1=b1, w2=w2, b2=float(b2[0])), history
