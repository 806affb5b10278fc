"""Model tests: init layout, gradients vs finite differences, a
from-scratch logistic-regression oracle, and training mechanics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from leakbench.model import (
    _sigmoid,
    FORWARD_BLOCK,
    MlpConfig,
    MlpModel,
    PROB_CLAMP,
    bce_loss,
    forward,
    init_mlp,
    loss_and_grad,
    train,
)
from leakbench.seeding import derive_rng


def cfg(n_features=5, hidden=4, **kw) -> MlpConfig:
    return MlpConfig(n_features=n_features, hidden_neurons=hidden, **kw)


def blob_data(rng, n=120, d=2, gap=3.0):
    half = n // 2
    x = np.vstack([rng.standard_normal((half, d)) + gap, rng.standard_normal((n - half, d))])
    y = np.concatenate([np.ones(half), np.zeros(n - half)])
    return x, y


# ---------------------------------------------------------------------------
# config and initialization
# ---------------------------------------------------------------------------


def test_config_validation() -> None:
    with pytest.raises(ValueError, match="hidden_neurons"):
        MlpConfig(n_features=3, hidden_neurons=-1)
    with pytest.raises(ValueError, match="threshold"):
        MlpConfig(n_features=3, hidden_neurons=0, threshold=1.0)
    with pytest.raises(ValueError, match="beta1"):
        MlpConfig(n_features=3, hidden_neurons=0, beta1=1.0)
    with pytest.raises(ValueError, match="epochs"):
        MlpConfig(n_features=3, hidden_neurons=0, epochs=0)
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        MlpConfig(n_features=3, hidden_neurons=0, batch_size=0)
    with pytest.raises(ValueError, match="learning_rate must be non-negative"):
        MlpConfig(n_features=3, hidden_neurons=0, learning_rate=-0.1)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        MlpConfig(n_features=3, hidden_neurons=0, epsilon=0.0)
    with pytest.raises(ValueError, match="n_features must be positive"):
        MlpConfig(n_features=0, hidden_neurons=0)


def test_parameter_counts() -> None:
    assert init_mlp(cfg(n_features=30, hidden=16)).n_parameters == 513
    assert init_mlp(cfg(n_features=30, hidden=0)).n_parameters == 31
    assert init_mlp(cfg(n_features=30, hidden=1)).n_parameters == 33


def test_init_shapes_bounds_and_zero_biases() -> None:
    m = init_mlp(cfg(n_features=30, hidden=16, seed=5))
    assert m.w1.shape == (16, 30) and m.w2.shape == (16,)
    assert np.abs(m.w1).max() < math.sqrt(6.0 / 30)
    assert np.abs(m.w2).max() < math.sqrt(6.0 / 17)
    np.testing.assert_array_equal(m.b1, np.zeros(16))
    assert m.b2 == 0.0

    flat = init_mlp(cfg(n_features=30, hidden=0, seed=5))
    assert flat.w1 is None and flat.b1 is None
    assert flat.w2.shape == (30,)
    assert np.abs(flat.w2).max() < math.sqrt(6.0 / 31)


def test_init_draw_order_and_determinism() -> None:
    m = init_mlp(cfg(n_features=7, hidden=3, seed=42))
    rng = derive_rng(42, "init")
    b1 = math.sqrt(6.0 / 7)
    np.testing.assert_array_equal(m.w1, rng.uniform(-b1, b1, (3, 7)))
    b2 = math.sqrt(6.0 / 4)
    np.testing.assert_array_equal(m.w2, rng.uniform(-b2, b2, 3))

    # without a hidden layer the output weights are the only draw, one per feature
    logistic = init_mlp(cfg(n_features=7, hidden=0, seed=42))
    assert logistic.w1 is None and logistic.b1 is None
    b2 = math.sqrt(6.0 / 8)
    np.testing.assert_array_equal(logistic.w2, derive_rng(42, "init").uniform(-b2, b2, 7))

    again = init_mlp(cfg(n_features=7, hidden=3, seed=42))
    np.testing.assert_array_equal(m.w1, again.w1)
    other = init_mlp(cfg(n_features=7, hidden=3, seed=43))
    assert not np.array_equal(m.w1, other.w1)


# ---------------------------------------------------------------------------
# forward pass and loss
# ---------------------------------------------------------------------------


def test_zero_weights_score_half_and_loss_ln2() -> None:
    c = cfg(n_features=4, hidden=0)
    m = MlpModel(config=c, w1=None, b1=None, w2=np.zeros(4), b2=0.0)
    x = np.random.default_rng(0).standard_normal((10, 4))
    p = forward(m, x)
    np.testing.assert_array_equal(p, np.full(10, 0.5))
    y = np.array([1.0] * 5 + [0.0] * 5)
    assert bce_loss(p, y) == pytest.approx(math.log(2.0), rel=1e-15)


def test_forward_is_clamped() -> None:
    c = cfg(n_features=1, hidden=0)
    m = MlpModel(config=c, w1=None, b1=None, w2=np.array([1000.0]), b2=0.0)
    p = forward(m, np.array([[5.0], [-5.0]]))
    assert p[0] == 1.0 - PROB_CLAMP
    assert p[1] == PROB_CLAMP


def test_loss_at_clamp_boundary() -> None:
    # a fully confident correct answer costs -log(1 - 1e-12)
    assert 0.0 < bce_loss(np.array([1.0]), np.array([1.0])) < 1.2e-12
    # a fully confident wrong answer costs -log(1 - (1 - 1e-12)); the
    # inner subtraction loses a few digits of the nominal 1e-12
    want = -math.log(1.0 - (1.0 - PROB_CLAMP))
    assert bce_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(want, rel=1e-12)


def test_scores_are_finite_probabilities() -> None:
    rng = np.random.default_rng(1)
    x, y = blob_data(rng)
    for hidden in (0, 3):
        m = init_mlp(cfg(n_features=2, hidden=hidden, seed=2))
        p = forward(m, x)
        assert np.isfinite(p).all()
        assert (p > 0).all() and (p < 1).all()
        assert math.isfinite(bce_loss(p, y))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def numeric_gradient(model, x, y, arr, idx, h=1e-5):
    old = arr[idx]
    arr[idx] = old + h
    up = loss_and_grad(model, x, y)[0]
    arr[idx] = old - h
    down = loss_and_grad(model, x, y)[0]
    arr[idx] = old
    return (up - down) / (2 * h)


def test_gradients_match_finite_differences() -> None:
    for hidden in (0, 1, 4):
        for d in (2, 5):
            for seed in range(3):
                rng = np.random.default_rng(derive_seed_like(hidden, d, seed))
                x = rng.standard_normal((16, d))
                y = (rng.random(16) < 0.5).astype(np.float64)
                m = init_mlp(cfg(n_features=d, hidden=hidden, seed=seed))
                _, grads = loss_and_grad(m, x, y)

                arrays = {"w2": m.w2}
                if hidden:
                    arrays.update({"w1": m.w1, "b1": m.b1})
                worst = 0.0
                for key, arr in arrays.items():
                    flat = arr.reshape(-1)
                    gflat = grads[key].reshape(-1)
                    for i in range(flat.size):
                        num = numeric_gradient(m, x, y, flat, i)
                        rel = abs(num - gflat[i]) / max(abs(num), abs(gflat[i]), 1e-8)
                        worst = max(worst, rel)
                assert worst < 1e-4, (hidden, d, seed, worst)


def derive_seed_like(*parts: int) -> int:
    return sum(p * 1000**i for i, p in enumerate(parts)) + 7


def test_bias_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(77)
    x = rng.standard_normal((12, 3))
    y = (rng.random(12) < 0.5).astype(np.float64)
    m = init_mlp(cfg(n_features=3, hidden=2, seed=1))
    _, grads = loss_and_grad(m, x, y)
    h = 1e-5
    up = MlpModel(m.config, m.w1, m.b1, m.w2, m.b2 + h)
    down = MlpModel(m.config, m.w1, m.b1, m.w2, m.b2 - h)
    num = (loss_and_grad(up, x, y)[0] - loss_and_grad(down, x, y)[0]) / (2 * h)
    assert abs(num - grads["b2"]) / max(abs(num), 1e-8) < 1e-4


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_zero_learning_rate_changes_nothing() -> None:
    rng = np.random.default_rng(3)
    x, y = blob_data(rng, n=40)
    m = init_mlp(cfg(n_features=2, hidden=3, learning_rate=0.0, epochs=4, batch_size=8, seed=9))
    trained, history = train(m, x, y)
    np.testing.assert_array_equal(trained.w1, m.w1)
    np.testing.assert_array_equal(trained.w2, m.w2)
    assert trained.b2 == m.b2
    assert len(history) == 4
    assert len(set(history)) == 1  # loss never moves


def test_training_reduces_loss_and_separates_blobs() -> None:
    rng = np.random.default_rng(4)
    x, y = blob_data(rng, n=200, gap=4.0)
    for hidden in (0, 4):
        m = init_mlp(
            cfg(n_features=2, hidden=hidden, epochs=30, batch_size=16, learning_rate=0.05, seed=0)
        )
        trained, history = train(m, x, y)
        assert history[-1] < history[0]
        acc = float(((forward(trained, x) >= 0.5) == y).mean())
        assert acc >= 0.99, hidden


def test_history_is_epoch_end_full_data_loss() -> None:
    rng = np.random.default_rng(5)
    x, y = blob_data(rng, n=30)
    m = init_mlp(cfg(n_features=2, hidden=2, epochs=3, batch_size=10, seed=1))
    trained, history = train(m, x, y)
    assert len(history) == 3
    assert history[-1] == bce_loss(forward(trained, x), y)


def test_partial_batch_is_trained_on() -> None:
    # 5 rows with batch_size 4: only the trailing partial batch holds
    # the single positive row, so the weights can only move through it
    x = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    m = MlpModel(cfg(n_features=1, hidden=0, epochs=1, batch_size=4), None, None, np.zeros(1), 0.0)
    trained, _ = train(m, x, y, _permutations=[np.arange(5)])
    assert trained.w2[0] != 0.0


def test_non_finite_loss_aborts_with_location() -> None:
    x = np.array([[1.0], [1.0], [np.nan], [1.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    m = init_mlp(cfg(n_features=1, hidden=0, epochs=1, batch_size=2, seed=0))
    with pytest.raises(RuntimeError, match=r"non-finite loss at epoch 1, batch 2"):
        train(m, x, y, _permutations=[np.arange(4)])


def test_train_validates_shapes() -> None:
    m = init_mlp(cfg(n_features=3, hidden=0))
    with pytest.raises(ValueError, match="same number of rows"):
        train(m, np.zeros((4, 3)), np.zeros(5))
    with pytest.raises(ValueError, match="training data has 2 features, config says 3"):
        train(m, np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="empty"):
        train(m, np.zeros((0, 3)), np.zeros(0))


def test_permutation_hook_matches_prepermuted_data() -> None:
    rng = np.random.default_rng(6)
    x, y = blob_data(rng, n=24)
    sigma = rng.permutation(24)
    m = init_mlp(cfg(n_features=2, hidden=3, epochs=1, batch_size=7, seed=2))
    a, _ = train(m, x, y, _permutations=[sigma])
    b, _ = train(m, x[sigma], y[sigma], _permutations=[np.arange(24)])
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)
    assert a.b2 == b.b2


def test_training_is_deterministic() -> None:
    rng = np.random.default_rng(7)
    x, y = blob_data(rng, n=50)
    c = cfg(n_features=2, hidden=2, epochs=5, batch_size=16, seed=3)
    a, ha = train(init_mlp(c), x, y)
    b, hb = train(init_mlp(c), x, y)
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)
    assert ha == hb


# ---------------------------------------------------------------------------
# logistic-regression oracle: hidden_neurons=0 must match bit for bit
# ---------------------------------------------------------------------------


def reference_sigmoid(z):
    """The masked logistic: each branch's exp sees only non-positive input."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out



def oracle_logistic_adam(c: MlpConfig, x, y):
    """Independent reimplementation of the zero-hidden training path."""
    rng = derive_rng(c.seed, "init")
    bound = math.sqrt(6.0 / (c.n_features + 1))
    w = rng.uniform(-bound, bound, c.n_features)
    b = np.float64(0.0)

    m_w = np.zeros_like(w)
    v_w = np.zeros_like(w)
    m_b = np.float64(0.0)
    v_b = np.float64(0.0)
    t = 0

    shuffle = derive_rng(c.seed, "shuffle")
    n = x.shape[0]
    for _ in range(c.epochs):
        perm = shuffle.permutation(n)
        for start in range(0, n, c.batch_size):
            rows = perm[start : start + c.batch_size]
            xb, yb = x[rows], y[rows]
            p = reference_sigmoid(xb @ w + b)
            dz = (p - yb) / xb.shape[0]
            g_w = xb.T @ dz
            g_b = dz.sum()
            t += 1
            m_w = c.beta1 * m_w + (1 - c.beta1) * g_w
            v_w = c.beta2 * v_w + (1 - c.beta2) * (g_w * g_w)
            m_b = c.beta1 * m_b + (1 - c.beta1) * g_b
            v_b = c.beta2 * v_b + (1 - c.beta2) * (g_b * g_b)
            w = w - c.learning_rate * (m_w / (1 - c.beta1**t)) / (
                np.sqrt(v_w / (1 - c.beta2**t)) + c.epsilon
            )
            b = b - c.learning_rate * (m_b / (1 - c.beta1**t)) / (
                np.sqrt(v_b / (1 - c.beta2**t)) + c.epsilon
            )
    return w, float(b)


def test_zero_hidden_matches_logistic_oracle_bitwise() -> None:
    rng = np.random.default_rng(8)
    x, y = blob_data(rng, n=53, d=3, gap=2.0)  # odd n forces a partial batch
    c = cfg(n_features=3, hidden=0, epochs=4, batch_size=16, seed=21)
    trained, _ = train(init_mlp(c), x, y)
    w, b = oracle_logistic_adam(c, x, y)
    np.testing.assert_array_equal(trained.w2, w)
    assert trained.b2 == b


# ---------------------------------------------------------------------------
# the flat-buffer trainer against the dict-based loop it replaced
# ---------------------------------------------------------------------------


def reference_loss_and_grad(model: MlpModel, x, y):
    """Per-batch loss and a fresh gradient dict, as the trainer once computed them."""
    if model.w1 is not None:
        z1 = x @ model.w1.T + model.b1
        a1 = np.maximum(z1, 0.0)
        p = reference_sigmoid(a1 @ model.w2 + model.b2)
    else:
        p = reference_sigmoid(x @ model.w2 + model.b2)
    loss = bce_loss(p, y)
    dz2 = (p - y) / x.shape[0]
    if model.w1 is not None:
        grads = {"w2": a1.T @ dz2, "b2": dz2.sum()}
        dz1 = np.outer(dz2, model.w2) * (z1 > 0)
        grads["w1"] = dz1.T @ x
        grads["b1"] = dz1.sum(axis=0)
    else:
        grads = {"w2": x.T @ dz2, "b2": dz2.sum()}
    return loss, grads


class ReferenceAdam:
    """Adam over a dict of arrays, one fresh array per parameter per step."""

    def __init__(self, c: MlpConfig, params: dict):
        self.c = c
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        c = self.c
        self.t += 1
        for key in params:
            g = grads[key]
            self.m[key] = c.beta1 * self.m[key] + (1 - c.beta1) * g
            self.v[key] = c.beta2 * self.v[key] + (1 - c.beta2) * (g * g)
            m_hat = self.m[key] / (1 - c.beta1**self.t)
            v_hat = self.v[key] / (1 - c.beta2**self.t)
            params[key] = params[key] - c.learning_rate * m_hat / (np.sqrt(v_hat) + c.epsilon)


def forward_unclamped(model: MlpModel, x):
    if model.w1 is not None:
        return reference_sigmoid(np.maximum(x @ model.w1.T + model.b1, 0.0) @ model.w2 + model.b2)
    return reference_sigmoid(x @ model.w2 + model.b2)


def reference_train(model: MlpModel, x, y, _permutations=None):
    """The dict-based training loop: a model per batch, the batch loss checked."""
    c = model.config
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)

    def model_with(params):
        return MlpModel(c, params.get("w1"), params.get("b1"), params["w2"], float(params["b2"]))

    rng = derive_rng(c.seed, "shuffle")
    params = {"w2": model.w2.copy(), "b2": np.float64(model.b2)}
    if model.w1 is not None:
        params["w1"] = model.w1.copy()
        params["b1"] = model.b1.copy()
    opt = ReferenceAdam(c, params)
    history = []
    n = x.shape[0]
    for epoch in range(c.epochs):
        if _permutations is not None:
            perm = np.asarray(_permutations[epoch], dtype=np.int64)
        else:
            perm = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, c.batch_size)):
            rows = perm[start : start + c.batch_size]
            loss, grads = reference_loss_and_grad(model_with(params), x[rows], y[rows])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}, "
                    f"batch {batch_no + 1}"
                )
            opt.step(params, grads)
        trained = model_with(params)
        history.append(bce_loss(forward_unclamped(trained, x), y))
    return model_with(params), history


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_same_training(got, want) -> None:
    (a, ha), (b, hb) = got, want
    for name in ("w1", "b1", "w2"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and bits(x) == bits(y), name
    assert bits(a.b2) == bits(b.b2)
    assert bits(ha) == bits(hb)


def test_train_matches_reference_bitwise() -> None:
    n, d, epochs = 23, 4, 3
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, d)) * 2.0
    y = (rng.random(n) < 0.3).astype(np.float64)
    perms = [rng.permutation(n) for _ in range(epochs)]
    for hidden in (0, 1, 3, 16):
        for batch_size in (1, 7, n, n + 5):
            for lr in (0.0, 0.05):
                c = cfg(n_features=d, hidden=hidden, epochs=epochs, batch_size=batch_size,
                        learning_rate=lr, seed=hidden + batch_size)
                m = init_mlp(c)
                for hook in (None, perms):
                    got = train(m, x, y, hook)
                    assert_same_training(got, reference_train(m, x, y, hook))
                    for name in ("w1", "b1", "w2"):
                        if getattr(m, name) is not None:
                            assert not np.shares_memory(getattr(got[0], name), getattr(m, name))


def test_block_boundaries_match_reference_bitwise() -> None:
    # batches gathered into a reused buffer and full-set passes run block by
    # block must give the bits of whole-array arithmetic: a partial last
    # block, a partial last batch and a batch larger than the set
    n, d = 2 * FORWARD_BLOCK + 3, 3
    rng = np.random.default_rng(13)
    x = rng.standard_normal((n, d)) * 2.0
    y = (rng.random(n) < 0.3).astype(np.float64)
    perms = [rng.permutation(n)]
    for hidden in (0, 1, 16):
        for batch_size in (256, n + 5):
            c = cfg(n_features=d, hidden=hidden, epochs=1, batch_size=batch_size,
                    learning_rate=0.05, seed=hidden + batch_size)
            m = init_mlp(c)
            for hook in (None, perms):
                got = train(m, x, y, hook)
                assert_same_training(got, reference_train(m, x, y, hook))
            want = np.clip(forward_unclamped(got[0], x), PROB_CLAMP, 1 - PROB_CLAMP)
            assert bits(forward(got[0], x)) == bits(want)


def test_divergence_matches_reference() -> None:
    rng = np.random.default_rng(12)
    n, d = 40, 3
    raised = returned = 0
    for trial in range(60):
        x = rng.standard_normal((n, d))
        y = (rng.random(n) < 0.5).astype(np.float64)
        # any planted cell poisons training, so some trials plant none
        for _ in range(rng.integers(0, 3)):
            x[rng.integers(n), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
        if trial % 3 == 0:
            y[rng.integers(n)] = np.nan
        c = cfg(n_features=d, hidden=int(rng.choice([0, 3])), epochs=2, batch_size=8,
                learning_rate=0.05, seed=trial)
        m = init_mlp(c)
        outcomes = []
        for fn in (train, reference_train):
            try:
                with np.errstate(all="ignore"):
                    outcomes.append(fn(m, x, y))
            except RuntimeError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str):
            raised += 1
            assert got == want, trial
        else:
            returned += 1
            assert not isinstance(got, str), (trial, got)
            assert_same_training(got, want)
    assert raised > 30 and returned > 5


def test_inf_row_diverges_one_batch_later() -> None:
    # an infinite feature with a positive weight scores p = 1 on a
    # positive row: that batch's loss is finite, but its w2 gradient is
    # inf * 0 = nan, so the nan shows in the next batch
    x = np.array([[np.inf, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    c = cfg(n_features=2, hidden=0, epochs=1, batch_size=2)
    m = MlpModel(c, None, None, np.ones(2), 0.0)
    for fn in (train, reference_train):
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"non-finite loss at epoch 1, batch 2$"):
                fn(m, x, y, [np.arange(4)])


def test_sigmoid_matches_masked_form_bitwise() -> None:
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array(
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 709.0, -709.0, 746.0, -746.0,
         np.inf, -np.inf, np.nan]
    )
    rng = np.random.default_rng(13)
    cases = [special] + [rng.standard_normal(100_000) * s for s in (1e-300, 1e-8, 1.0, 30.0, 1e3)]
    for z in cases:
        # exp of z below about -708 underflows in both forms, which is
        # harmless; any overflow, invalid or divide flag would raise
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(z)
            want = reference_sigmoid(z)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        # nan keeps its place; its sign bit is not a value
        assert bits(got[~nan]) == bits(want[~nan])
