"""Minimal feed-forward classifier trained with Adam.

One optional ReLU hidden layer feeding a sigmoid output unit, binary
cross-entropy loss.  With ``hidden_neurons=0`` the network is exactly
logistic regression on the raw features.  Everything is plain numpy;
training is deterministic given the config seed.
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
    "predict",
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
    if h > 0:
        bound1 = math.sqrt(6.0 / d)
        w1 = rng.uniform(-bound1, bound1, (h, d))
        b1 = np.zeros(h)
        bound2 = math.sqrt(6.0 / (h + 1))
        w2 = rng.uniform(-bound2, bound2, h)
    else:
        w1 = None
        b1 = None
        bound2 = math.sqrt(6.0 / (d + 1))
        w2 = rng.uniform(-bound2, bound2, d)
    return MlpModel(config=cfg, w1=w1, b1=b1, w2=w2, b2=0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _raw_forward(model: MlpModel, x: np.ndarray):
    if model.w1 is not None:
        z1 = x @ model.w1.T + model.b1
        a1 = np.maximum(z1, 0.0)
        p = _sigmoid(a1 @ model.w2 + model.b2)
    else:
        z1 = None
        a1 = None
        p = _sigmoid(x @ model.w2 + model.b2)
    return z1, a1, p


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predicted probabilities, clamped into (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    _, _, p = _raw_forward(model, x)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


def loss_and_grad(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean BCE over the batch plus gradients for every parameter."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z1, a1, p = _raw_forward(model, x)
    loss = bce_loss(p, y)
    dz2 = (p - y) / x.shape[0]
    if model.w1 is not None:
        grads = {
            "w2": a1.T @ dz2,
            "b2": dz2.sum(),
        }
        da1 = np.outer(dz2, model.w2)
        dz1 = da1 * (z1 > 0)
        grads["w1"] = dz1.T @ x
        grads["b1"] = dz1.sum(axis=0)
    else:
        grads = {"w2": x.T @ dz2, "b2": dz2.sum()}
    return loss, grads


class _Adam:
    def __init__(self, cfg: MlpConfig, params: dict):
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        cfg = self.cfg
        self.t += 1
        for key in params:
            g = grads[key]
            self.m[key] = cfg.beta1 * self.m[key] + (1 - cfg.beta1) * g
            self.v[key] = cfg.beta2 * self.v[key] + (1 - cfg.beta2) * (g * g)
            m_hat = self.m[key] / (1 - cfg.beta1**self.t)
            v_hat = self.v[key] / (1 - cfg.beta2**self.t)
            params[key] = params[key] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def train(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    _permutations=None,
) -> tuple[MlpModel, list[float]]:
    """Mini-batch Adam for ``config.epochs`` epochs.

    Rows are reshuffled every epoch (the shuffle stream is derived from
    the config seed); the trailing partial batch is kept.  Returns the
    trained model and the full-data loss recorded at the end of each
    epoch.  A non-finite batch loss aborts with the epoch and batch in
    the message.  ``_permutations`` is a test hook that overrides the
    per-epoch shuffles.
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
    params = {"w2": model.w2.copy(), "b2": np.float64(model.b2)}
    if model.w1 is not None:
        params["w1"] = model.w1.copy()
        params["b1"] = model.b1.copy()
    opt = _Adam(cfg, params)
    history: list[float] = []
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        if _permutations is not None:
            perm = np.asarray(_permutations[epoch], dtype=np.int64)
        else:
            perm = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            rows = perm[start : start + cfg.batch_size]
            current = _model_with(model, params)
            loss, grads = loss_and_grad(current, x[rows], y[rows])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}, "
                    f"batch {batch_no + 1}"
                )
            opt.step(params, grads)
        trained = _model_with(model, params)
        history.append(bce_loss(_raw_forward(trained, x)[2], y))
    return _model_with(model, params), history


def _model_with(model: MlpModel, params: dict) -> MlpModel:
    return MlpModel(
        config=model.config,
        w1=params.get("w1"),
        b1=params.get("b1"),
        w2=params["w2"],
        b2=float(params["b2"]),
    )


def predict(model: MlpModel, x: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """Hard labels; a score equal to the threshold counts as positive."""
    if threshold is None:
        threshold = model.config.threshold
    return (forward(model, x) >= threshold).astype(np.int64)
