"""LSTM forecaster: cell equations, gradients, Adam, training loop."""

import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stockcast.config import ExperimentConfig
from stockcast.errors import RunFailed
from stockcast.features import WindowedDataset
from stockcast.forecaster import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    GRAD_CLIP,
    AdamState,
    LstmWeights,
    LstmWorkspace,
    adam_step,
    backward,
    clip_gradients,
    forward,
    init_weights,
    predict,
    theta_size,
    train,
)


def cell_oracle(weights, X):
    """Step-by-step scalar evaluation of the five cell equations.

    Pure Python loops over units; shares nothing with the vectorized
    implementation beyond the parameter values.
    """
    W, U, b = (np.asarray(arr, dtype=float) for arr in (weights.W, weights.U, weights.b))
    n_steps, n_feat = X.shape
    H = weights.hidden_units

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * H
    c = [0.0] * H
    for t in range(n_steps):
        x = X[t]
        nh, nc = [0.0] * H, [0.0] * H
        for u in range(H):
            def pre(gate):  # gates in i, f, o, g order
                acc = b[gate * H + u]
                for k in range(n_feat):
                    acc += x[k] * W[k, gate * H + u]
                for k in range(H):
                    acc += h[k] * U[k, gate * H + u]
                return acc

            i_u = sig(pre(0))
            f_u = sig(pre(1))
            o_u = sig(pre(2))
            g_u = math.tanh(pre(3))
            nc[u] = f_u * c[u] + i_u * g_u
            nh[u] = o_u * math.tanh(nc[u])
        h, c = nh, nc
    z = float(weights.b_out)
    for u in range(H):
        z += h[u] * weights.w_out[u]
    return max(z, 0.0)


def with_axis(weights, *arrays):
    """One model's weights and arrays with a leading model axis of 1, the form
    the kernel takes: views of the same theta and data (no copy)."""
    block = LstmWeights.from_theta(weights.theta[None], weights.W.shape[-2], weights.hidden_units)
    return (block, *(np.asarray(array)[None] for array in arrays))


def workspace_for(weights, X):
    """A fresh LstmWorkspace with room for exactly the (K, B, T, F) batch X."""
    K, B, T, F = np.shape(X)
    return LstmWorkspace(B, T, F, weights.hidden_units, models=K)


def finite_difference_grads(weights, X, targets, h=1e-5):
    """Central differences of the batch-mean squared error, one per theta
    entry, for one model: weights (1, theta size), X (1, B, T, F) and
    targets (1, B)."""
    workspace = workspace_for(weights, X)

    def loss():
        pred, _ = forward(weights, X, workspace)
        return float(np.mean((pred - targets) ** 2))

    theta = weights.theta[0]
    fd = np.zeros_like(theta)
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + h
        up = loss()
        theta[j] = orig - h
        down = loss()
        theta[j] = orig
        fd[j] = (up - down) / (2 * h)
    return fd


def max_relative_error(grads, fd):
    """Worst relative gap between the analytic ``grads.theta`` and ``fd``."""
    denom = np.maximum(np.maximum(np.abs(grads.theta), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(grads.theta - fd) / denom))


def zero_weights(hidden, n_features):
    size = 4 * hidden * (n_features + hidden + 1) + hidden + 1
    return LstmWeights.from_theta(np.zeros(size), n_features, hidden)


def live_sample(weights, rng, lookback, n_features):
    """Draw inputs until the ReLU head is active, so checks are informative."""
    for _ in range(50):
        X = rng.uniform(-1, 1, size=(lookback, n_features))
        block, batch = with_axis(weights, X[None])
        pred, _ = forward(block, batch, workspace_for(block, batch))
        if pred[0, 0] > 0:
            return X
    raise AssertionError("no live sample found; pick another seed")


class TestInit:
    def test_same_seed_bit_identical(self):
        w1 = init_weights(3, 8, 5)
        w2 = init_weights(3, 8, 5)
        assert np.array_equal(w1.theta, w2.theta)

    def test_different_seed_differs(self):
        w1 = init_weights(3, 8, 5)
        w2 = init_weights(3, 8, 6)
        assert not np.array_equal(w1.W[0], w2.W[0])

    def test_frozen_values(self):
        # pins the seeded stream and the order the blocks are drawn in: the
        # first W and last head values, the sum, and a position-weighted
        # sum, which any two blocks drawn in swapped order change
        w = init_weights(2, 3, 5)
        theta = w.theta
        assert theta.size == 76
        assert theta[:3].tolist() == [0.3521870402560363, 0.3555793956976613,
                                      0.017696433586325444]
        assert theta[-3:].tolist() == [-0.12648715121241894, 0.34402441867765277,
                                       -0.13801515386773477]
        assert theta.sum() == pytest.approx(2.972153980652408, rel=1e-12)
        # the position weights run over theta laid back out gate by gate, the
        # order the draw fills: W (4, F, H), then U (4, H, H), then the rest
        gates = [block.reshape(len(block), 4, 3).transpose(1, 0, 2).ravel() for block in (w.W, w.U)]
        drawn_order = np.concatenate([*gates, theta[w.W.size + w.U.size:]])
        assert np.arange(theta.size) @ drawn_order == pytest.approx(203.57184664527065, rel=1e-12)

    @pytest.mark.parametrize("hidden, n_features, seed", [(3, 2, 5), (16, 14, 42), (256, 14, 42)])
    def test_one_draw_fills_the_gates_in_turn(self, hidden, n_features, seed):
        # one uniform draw, read as W (4, F, H) and U (4, H, H) gate by gate and
        # laid out gate-fused, (F, 4H) and (H, 4H); then b without the forget
        # bias, w_out and b_out in theta's order. Reordering the draws fails here
        H, F = hidden, n_features
        k = 1.0 / math.sqrt(H)
        w = init_weights(F, H, seed)
        draw = np.random.default_rng([seed, 0]).uniform(-k, k, theta_size(F, H) - H)
        n_W, n_U = 4 * F * H, 4 * H * H
        W = draw[:n_W].reshape(4, F, H).transpose(1, 0, 2).reshape(F, 4 * H)
        U = draw[n_W:n_W + n_U].reshape(4, H, H).transpose(1, 0, 2).reshape(H, 4 * H)
        rest = draw[n_W + n_U:]
        assert np.array_equal(w.W, W)
        assert np.array_equal(w.U, U)
        assert np.array_equal(w.theta[n_W + n_U:], np.concatenate([rest[:H], np.ones(H), rest[H:]]))

    def test_forget_bias_is_one(self):
        w = init_weights(3, 8, 0)
        assert np.all(w.b[8:16] == 1.0)

    def test_shapes(self):
        w = init_weights(3, 8, 0)
        blocks = (w.W, w.U, w.b, w.w_out, w.b_out)
        assert [arr.shape for arr in blocks] == [(3, 32), (8, 32), (32,), (8,), ()]
        assert w.theta.size == sum(arr.size for arr in blocks)

    def test_bound(self):
        w = init_weights(4, 16, 1)
        k = 1 / math.sqrt(16)
        for arr in (w.W, w.U, w.b[:16], w.b[32:], w.w_out, w.b_out):  # all but b_f
            assert np.all(np.abs(arr) <= k)


class TestForward:
    def test_all_zero(self):
        w, X = with_axis(zero_weights(4, 2), np.zeros((1, 3, 2)))
        pred, _ = forward(w, X, workspace_for(w, X))
        assert pred[0, 0] == 0.0

    def test_lookback_one_single_step(self):
        w = init_weights(2, 4, 2)
        X = np.array([[0.3, -0.7]])
        block, batch = with_axis(w, X[None])
        pred, cache = forward(block, batch, workspace_for(block, batch))
        assert cache["A"].shape[1] == 1
        assert pred[0, 0] == pytest.approx(cell_oracle(w, X), rel=1e-12)

    def test_matches_cell_oracle_seed42(self):
        w = init_weights(2, 4, 42)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(3, 2))
        block, batch = with_axis(w, X[None])
        pred, _ = forward(block, batch, workspace_for(block, batch))
        assert pred[0, 0] == pytest.approx(cell_oracle(w, X), rel=1e-12, abs=1e-15)

    def test_matches_cell_oracle_more_shapes(self):
        rng = np.random.default_rng(9)
        for hidden, lookback, feats in [(1, 1, 1), (3, 5, 4), (6, 2, 3)]:
            w = init_weights(feats, hidden, 7)
            X = rng.normal(size=(lookback, feats))
            block, batch = with_axis(w, X[None])
            pred, _ = forward(block, batch, workspace_for(block, batch))
            assert pred[0, 0] == pytest.approx(cell_oracle(w, X), rel=1e-12, abs=1e-15)

    def test_gates_bounded(self):
        w, X = with_axis(init_weights(2, 5, 3), np.random.default_rng(0).normal(size=(4, 2))[None])
        _, cache = forward(w, X, workspace_for(w, X))
        H = w.hidden_units
        for gates, tanh_c in zip(cache["A"][0], np.tanh(cache["c"][0, 1:])):
            for k in range(3):  # i, f, o
                values = gates[:, k * H:(k + 1) * H]
                assert np.all((values > 0) & (values < 1))
            assert np.all(np.abs(tanh_c) <= 1.0)

    def test_non_finite_raises(self):
        w, X = with_axis(init_weights(2, 4, 0), np.full((1, 3, 2), np.nan))
        with pytest.raises(RunFailed, match=r"^non-finite prediction; training diverged\?$"):
            forward(w, X, workspace_for(w, X))

    def test_extreme_preactivations_no_overflow(self):
        # gate pre-activations of exactly +-1000: the logistic must saturate
        # to finite values in [0, 1] without an exp overflow warning
        H = 3
        w = zero_weights(H, 2)
        w.b[...] = np.repeat([1000.0, -1000.0, 1000.0, -1000.0], H)  # i, f, o, g
        w.w_out[...] = -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block, X = with_axis(w, np.zeros((1, 4, 2)))
            pred, cache = forward(block, X, workspace_for(block, X))
        gates = cache["A"][..., :3 * H]
        assert np.all(np.isfinite(gates))
        assert np.all((gates >= 0) & (gates <= 1))
        assert np.all(cache["A"][..., :H] == 1.0)  # i saturates at 1
        assert np.all(cache["A"][..., H:2 * H] == 0.0)  # f saturates at 0
        assert pred[0, 0] == pytest.approx(H * math.tanh(1.0), rel=1e-12)  # c = g = -1


class TestFlatLayout:
    def test_views_alias_theta(self):
        w = init_weights(3, 4, 2)
        rng = np.random.default_rng(3)
        X = live_sample(w, rng, 5, 3)
        theta_before = w.theta.copy()
        block, batch = with_axis(w, X[None])
        workspace = workspace_for(block, batch)
        pred_before, _ = forward(block, batch, workspace)
        w.U[1] += 0.5
        changed = np.flatnonzero(w.theta != theta_before)
        start = 3 * 4 * 4 + 4 * 4  # after the (3, 16) W block and U's row 0
        assert np.array_equal(changed, np.arange(start, start + 4 * 4))
        pred_after, _ = forward(block, batch, workspace)
        assert pred_after != pred_before


class TestBackward:
    def test_gradient_check_single_sample(self):
        rng = np.random.default_rng(11)
        w = init_weights(3, 6, 3)
        w, X, y = with_axis(w, live_sample(w, rng, 4, 3)[None], [0.2])
        workspace = workspace_for(w, X)
        _, cache = forward(w, X, workspace)
        analytic = backward(w, cache, y, workspace)
        fd = finite_difference_grads(w, X, y)
        assert max_relative_error(analytic, fd) < 1e-4

    def test_gradient_check_batch(self):
        rng = np.random.default_rng(12)
        w, X, y = with_axis(init_weights(2, 5, 8),
                            rng.uniform(-1, 1, size=(6, 4, 2)), rng.uniform(0, 1, size=6))
        workspace = workspace_for(w, X)
        _, cache = forward(w, X, workspace)
        analytic = backward(w, cache, y, workspace)
        fd = finite_difference_grads(w, X, y)
        assert max_relative_error(analytic, fd) < 1e-4

    def test_zero_inputs_zero_input_weight_grads(self):
        w, X, y = with_axis(init_weights(3, 4, 9), np.zeros((1, 5, 3)), [0.5])
        workspace = workspace_for(w, X)
        _, cache = forward(w, X, workspace)
        grads = backward(w, cache, y, workspace)
        assert np.all(grads.W == 0.0)

    def test_dead_relu_all_grads_zero(self):
        w, X, y = with_axis(zero_weights(4, 2), np.random.default_rng(0).normal(size=(1, 3, 2)),
                            [1.0])
        w.b_out[...] = -1.0  # pre-activation < 0 always
        workspace = workspace_for(w, X)
        pred, cache = forward(w, X, workspace)
        assert pred[0, 0] == 0.0
        grads = backward(w, cache, y, workspace)
        assert np.all(grads.theta == 0.0)


class TestAdam:
    def test_zero_gradient_no_move(self):
        w = init_weights(2, 3, 0)
        before = w.theta.copy()
        grads = LstmWeights.from_theta(np.zeros_like(w.theta), 2, 3)
        state = AdamState.for_weights(w)
        adam_step(w, grads, state, lr=0.1)
        assert state.t == 1
        assert np.array_equal(w.theta, before)

    def test_first_step_closed_form(self):
        # t=1 bias correction collapses to delta = -lr*g/(|g|+eps)
        w = init_weights(2, 3, 1)
        before = w.theta.copy()
        rng = np.random.default_rng(5)
        grads = LstmWeights.from_theta(rng.normal(size=w.theta.size), 2, 3)
        state = AdamState.for_weights(w)
        lr = 0.01
        g = grads.theta.copy()  # adam_step overwrites grads
        adam_step(w, grads, state, lr)
        expected = before - lr * g / (np.sqrt(g ** 2) + ADAM_EPS)
        assert w.theta == pytest.approx(expected, rel=1e-9)

    def test_two_steps_differ_from_one_double_lr_step(self):
        # gradients are recomputed at the moved weights, so two small
        # steps do not collapse into one big one
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(1, 4, 3, 2))
        y = rng.uniform(0, 1, size=(1, 4))

        def grads_at(w):
            workspace = workspace_for(w, X)
            _, cache = forward(w, X, workspace)
            return backward(w, cache, y, workspace)

        w_two = with_axis(init_weights(2, 3, 4))[0]
        s_two = AdamState.for_weights(w_two)
        first_grads = grads_at(w_two)
        adam_step(w_two, first_grads, s_two, lr=0.01)
        adam_step(w_two, grads_at(w_two), s_two, lr=0.01)

        w_one = with_axis(init_weights(2, 3, 4))[0]
        s_one = AdamState.for_weights(w_one)
        adam_step(w_one, grads_at(w_one), s_one, lr=0.02)

        assert not np.allclose(w_two.W[0], w_one.W[0], atol=1e-12)

    @pytest.mark.parametrize("hidden, n_features, models",
                             [(16, 10, 1), (256, 14, 1), (256, 14, 2)],
                             ids=["16-10", "256-14", "256-14-K2"])
    def test_matches_expressions_over_50_steps(self, hidden, n_features, models):
        # adam_step runs in column chunks through one chunk of scratch; the
        # expressions below are the fresh-array form it replaced, and every bit
        # must agree. At H=256 theta spans 17 chunks, the last one short, and
        # K = 2 models update as one (2, theta size) block
        rng = np.random.default_rng(hidden * models)
        alone = [init_weights(n_features, hidden, 2 + k) for k in range(models)]
        w = lockstep_weights(alone) if models > 1 else alone[0]
        assert w.theta.shape[-1] // ADAM_CHUNK == (16 if hidden == 256 else 0)
        state = AdamState.for_weights(w)
        theta, m, v = w.theta.copy(), np.zeros_like(w.theta), np.zeros_like(w.theta)
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 0.001
        for t in range(1, 51):
            g = rng.normal(size=theta.shape) * 10.0 ** rng.uniform(-6, 1, size=theta.shape)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g ** 2
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
            adam_step(w, LstmWeights.from_theta(g, n_features, hidden), state, lr)
            assert state.t == t
            assert np.array_equal(w.theta, theta)
            assert np.array_equal(state.m, m)
            assert np.array_equal(state.v, v)

    def test_clip_gradients_scales_to_norm(self):
        grads = zero_weights(1, 1)
        grads.W[0, 0] = 3.0  # gate i's one entry
        grads.U[0, 0] = 4.0
        grads.b_out[...] = 12.0
        clip_gradients(with_axis(grads)[0], 6.5)  # a view of the same theta
        total = math.sqrt(float(np.sum(grads.theta ** 2)))
        assert total == pytest.approx(6.5, rel=1e-12)
        # direction preserved
        assert grads.U[0, 0] / grads.W[0, 0] == pytest.approx(4 / 3, rel=1e-12)

    def test_clip_gradients_past_the_square_root_of_float_max(self):
        # g @ g overflows once the norm passes about 1.3e154; the step must be
        # clipped, not zeroed, and raise no overflow warning (an error here)
        grads = zero_weights(1, 1)
        grads.theta[:2] = [3e154, 4e154]
        clip_gradients(with_axis(grads)[0], 5.0)
        assert grads.theta[:2].tolist() == [3.0, 4.0]
        assert not np.any(grads.theta[2:])


def constant_target_dataset():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, size=(40, 5, 2))
    y = np.full(40, 0.6)
    return WindowedDataset(X=X, y=y, dates=tuple(range(40)))


class TestTrain:
    CFG = ExperimentConfig(hidden_units=16, learning_rate=0.001, batch_size=8, epochs=150)

    def test_constant_target_converges(self):
        [(_, history)] = train(constant_target_dataset(), self.CFG, seed=7)
        assert len(history) == self.CFG.epochs
        assert history[-1] < 1e-4

    def test_loss_monotone_after_warmup(self):
        [(_, history)] = train(constant_target_dataset(), self.CFG, seed=7)
        violations = sum(
            1 for i in range(10, len(history) - 1) if history[i + 1] > history[i]
        )
        assert violations <= 3

    def test_same_seed_bit_identical(self):
        ds = constant_target_dataset()
        cfg = ExperimentConfig(hidden_units=8, batch_size=16, epochs=12)
        [(w1, h1)] = train(ds, cfg, seed=3)
        [(w2, h2)] = train(ds, cfg, seed=3)
        assert h1 == h2
        assert np.array_equal(w1.theta, w2.theta)

    def test_defaults_accepted(self):
        cfg = ExperimentConfig()
        assert (cfg.hidden_units, cfg.learning_rate, cfg.batch_size, cfg.epochs) == \
            (256, 0.001, 128, 100)

    def test_diverged_dataset_raises(self):
        ds = constant_target_dataset()
        bad = WindowedDataset(X=ds.X.copy(), y=ds.y, dates=ds.dates)
        bad.X[3, 2, 1] = np.nan
        with pytest.raises(RunFailed, match="^training diverged at epoch 0$"):
            train(bad, ExperimentConfig(hidden_units=4, batch_size=8, epochs=2), seed=0)

    def test_overflowing_loss_stops_before_backward(self):
        # the first Adam step at lr 1e300 moves the weights by ~1e300, so the
        # next batch's squared error overflows; train stops at that batch
        # instead of running the overflow through backward, clip and Adam
        cfg = ExperimentConfig(hidden_units=4, learning_rate=1e300, batch_size=8, epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RunFailed, match="^training diverged at epoch 0$"):
                train(constant_target_dataset(), cfg, seed=0)


class TestPredict:
    def make_dataset(self, n=9):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(n, 4, 3))
        y = rng.uniform(0, 1, size=n)
        return WindowedDataset(X=X, y=y, dates=tuple(range(n)))

    def test_empty(self):
        w = init_weights(3, 4, 0)
        ds = WindowedDataset(X=np.empty((0, 4, 3)), y=np.empty(0), dates=())
        assert predict(w, ds).shape == (0,)

    def test_single_sample_equals_forward(self):
        w = init_weights(3, 4, 1)
        ds = self.make_dataset(1)
        pred = predict(w, ds)
        block, X = with_axis(w, ds.X[:1])
        direct, _ = forward(block, X, workspace_for(block, X))
        assert pred[0] == direct[0, 0]

    def test_batch_equals_per_sample_loop(self, monkeypatch):
        monkeypatch.setattr("stockcast.forecaster.PREDICT_CHUNK", 4)
        w = init_weights(3, 4, 2)
        ds = self.make_dataset(9)
        batched = predict(w, ds)
        block = with_axis(w)[0]
        looped = np.array([forward(block, x[None, None], workspace_for(block, x[None, None]))[0][0, 0]
                           for x in ds.X])
        assert batched == pytest.approx(looped, rel=0, abs=1e-12)


def live_weights(hidden, n_features, seed):
    """Seeded init with the head bias raised, so every prediction is live."""
    w = init_weights(n_features, hidden, seed)
    w.b_out[...] = 1.0
    return w


class TestWorkspace:
    """One workspace reused across batches gives what fresh caches give."""

    def test_full_short_full_batches_match_fresh_caches(self):
        # rows a short batch leaves behind sit inside the next full batch's
        # h[0]/c[0] and backward's dc, so stale state would show here; the
        # kept views hold three batch sizes and each size comes back
        rng = np.random.default_rng(21)
        T, F, H = 5, 3, 6
        w = with_axis(live_weights(H, F, seed=2))[0]
        workspace = LstmWorkspace(8, T, F, H)
        for B in (8, 5, 8, 3, 5):
            X = rng.uniform(-1, 1, size=(1, B, T, F))
            y = rng.uniform(0, 1, size=(1, B))
            pred, cache = forward(w, X, workspace)
            fresh = workspace_for(w, X)
            fresh_pred, fresh_cache = forward(w, X, fresh)
            assert np.array_equal(pred, fresh_pred)
            assert cache.keys() == fresh_cache.keys()
            for key in cache:
                assert np.array_equal(cache[key], fresh_cache[key]), key
            grads = backward(w, cache, y, workspace)
            fresh_grads = backward(w, fresh_cache, y, fresh)
            assert np.array_equal(grads.theta, fresh_grads.theta)

    def test_backward_returns_the_workspace_gradient_vector(self):
        # valid until the workspace's next backward, which writes over it
        rng = np.random.default_rng(25)
        w = with_axis(live_weights(6, 3, seed=2))[0]
        workspace = LstmWorkspace(8, 5, 3, 6)
        thetas = []
        for B in (8, 3):
            _, cache = forward(w, rng.uniform(-1, 1, size=(1, B, 5, 3)), workspace)
            grads = backward(w, cache, rng.uniform(0, 1, size=(1, B)), workspace)
            assert grads.theta is workspace.grads.theta
            thetas.append(grads.theta.copy())
        assert not np.array_equal(workspace.grads.theta, thetas[0])
        other = LstmWorkspace(2, 5, 3, 6)
        _, cache = forward(w, rng.uniform(-1, 1, size=(1, 2, 5, 3)), other)
        assert backward(w, cache, np.zeros((1, 2)), other).theta is not workspace.grads.theta

    def test_forward_caches_exactly_what_backward_reads(self):
        class Recorder(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        read = set()
        w, X, y = with_axis(live_weights(6, 3, seed=2), np.ones((4, 5, 3)), np.ones(4))
        workspace = LstmWorkspace(4, 5, 3, 6)
        _, cache = forward(w, X, workspace)
        backward(w, Recorder(cache), y, workspace)
        assert read == cache.keys()

    def test_backward_rejects_a_cache_from_another_workspace(self):
        w, X, y = with_axis(live_weights(6, 3, seed=2), np.zeros((4, 5, 3)), np.zeros(4))
        _, cache = forward(w, X, LstmWorkspace(4, 5, 3, 6))
        with pytest.raises(ValueError, match="workspace"):
            backward(w, cache, y, LstmWorkspace(4, 5, 3, 6))

    @pytest.mark.parametrize("models", [1, 2])
    def test_holds_no_copy_of_the_weights(self, models):
        # the matmuls read W and U from theta and backward writes dW and dU into
        # grads, so after a full and a short batch every buffer the workspace
        # reaches is X, A, c, the ten scratch blocks, scale, shift or grads
        K, T, F, H, rows = models, 4, 3, 6, 8
        rng = np.random.default_rng(29)
        weights = lockstep_weights([live_weights(H, F, seed=seed) for seed in range(K)])
        workspace = LstmWorkspace(rows, T, F, H, models=K)
        for B in (rows, 5):
            _, cache = forward(weights, rng.uniform(0, 1, size=(K, B, T, F)), workspace)
            backward(weights, cache, rng.uniform(0, 1, size=(K, B)), workspace)
        floats = K * rows * (T * F + T * 4 * H + (T + 1) * H + 10 * H) + 2 * rows * 4 * H
        assert buffer_bytes(workspace) == 8 * (floats + K * theta_size(F, H))

    def test_short_batch_views_are_contiguous(self):
        views = LstmWorkspace(8, 4, 3, 5).views(3)
        for array in (*views.cache.values(), views.scratch, views.scale, views.shift):
            assert array.flags.c_contiguous

    def test_wrong_shape_rejected(self):
        w = with_axis(init_weights(3, 4, 0))[0]
        with pytest.raises(ValueError, match="workspace"):
            forward(w, np.zeros((1, 9, 5, 3)), LstmWorkspace(8, 5, 3, 4))
        with pytest.raises(ValueError, match="workspace"):
            forward(w, np.zeros((1, 2, 6, 3)), LstmWorkspace(8, 5, 3, 4))

    def test_train_matches_loop_with_fresh_caches(self):
        # 21 samples in batches of 8: the last batch of every epoch is short;
        # seed 0 starts live on all 21 samples
        rng = np.random.default_rng(22)
        X = rng.uniform(0, 1, size=(21, 6, 3))
        y = rng.uniform(0.2, 0.8, size=21)
        cfg = ExperimentConfig(hidden_units=8, batch_size=8, epochs=4)
        weights = with_axis(init_weights(3, 8, 0))[0]
        start = weights.theta.copy()
        state = AdamState.for_weights(weights)
        shuffle_rng = np.random.default_rng([0, 1])
        history = []
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(21)
            sq_sum = 0.0
            for first in range(0, 21, cfg.batch_size):
                idx = order[None, first:first + cfg.batch_size]
                workspace = workspace_for(weights, X[idx])
                pred, cache = forward(weights, X[idx], workspace)
                sq_sum += float(np.sum((pred - y[idx]) ** 2))
                grads = backward(weights, cache, y[idx], workspace)
                clip_gradients(grads, GRAD_CLIP)
                adam_step(weights, grads, state, cfg.learning_rate)
            history.append(sq_sum / 21)

        dataset = WindowedDataset(X=X, y=y, dates=tuple(range(21)))
        [(trained, trained_history)] = train(dataset, cfg, seed=0)
        assert not np.array_equal(weights.theta, start)
        assert np.array_equal(trained.theta, weights.theta[0])
        assert trained_history == history

    def test_predict_chunks_match_one_forward(self):
        # 300 = 128 + 128 + 44; 129 = 128 + a 1-row tail, which must not run
        # alone: its gemv sums reach a prediction only now and then (3 of
        # these 12 draws on OpenBLAS 0.3.31), hence the repeats
        rng = np.random.default_rng(23)
        w = live_weights(32, 5, seed=3)
        block = with_axis(w)[0]
        for n in [300] + [129] * 12:
            X = rng.uniform(0, 1, size=(n, 30, 5))
            whole, _ = forward(block, X[None], workspace_for(block, X[None]))
            assert np.all(whole > 0)
            pred = predict(w, WindowedDataset(X=X, y=np.zeros(n), dates=tuple(range(n))))
            assert np.array_equal(pred, whole[0]), n

    def test_predict_peak_memory_is_one_chunk(self):
        # numpy reports its buffers to tracemalloc; 300 windows must not
        # hold more than one 128-row cache at a time: X, A and c, with no
        # (T, B, H) h or tanh(c) buffer
        T, F, H, n = 30, 14, 64, 300
        w = live_weights(H, F, seed=4)
        ds = WindowedDataset(X=np.random.default_rng(24).uniform(0, 1, size=(n, T, F)),
                             y=np.zeros(n), dates=tuple(range(n)))
        one_cache = T * 128 * (F + 5 * H) * 8
        tracemalloc.start()
        try:
            predict(w, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * one_cache, (peak, one_cache)

    def test_train_peak_memory_holds_one_gradient_vector(self):
        # train holds the weights, the Adam state and one workspace, whose
        # gradient vector each backward writes over; a second theta-sized
        # array alive at any point (last batch's gradients, say) breaks this
        T, F, H, B, n = 10, 8, 128, 16, 40
        rng = np.random.default_rng(26)
        X, y = rng.uniform(0, 1, size=(n, T, F)), rng.uniform(0.2, 0.8, size=n)
        cfg = ExperimentConfig(hidden_units=H, batch_size=B, epochs=2)
        w = with_axis(init_weights(F, H, 0))[0]
        theta = w.theta.nbytes
        dataset = WindowedDataset(X=X, y=y, dates=tuple(range(n)))
        tracemalloc.start()
        try:
            workspace = LstmWorkspace(B, T, F, H)
            for rows in (B, n % B):  # a full batch and the short tail
                _, cache = forward(w, X[None, :rows], workspace)
                backward(w, cache, y[None, :rows], workspace)
            del cache
            one_workspace = tracemalloc.get_traced_memory()[0]
            del workspace
            tracemalloc.reset_peak()
            train(dataset, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
            # K = 2 models in lockstep: K workspaces and K Adam rows, nothing more
            tracemalloc.reset_peak()
            train(dataset, cfg, seed=0, models=2)
            group_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adam = 2 * theta + ADAM_CHUNK * 8  # m, v and one column chunk
        # half a theta covers the batch's rows and numpy's ufunc buffers
        bound = one_workspace + adam + theta + theta // 2
        assert peak <= bound, (peak, one_workspace, theta)
        assert group_peak <= 2 * bound, (group_peak, one_workspace, theta)


def buffer_bytes(root):
    """The bytes of every distinct array buffer that ``root`` reaches through
    its attributes, tuples, lists and dicts, each view counted as its base."""
    buffers, seen, todo = {}, set(), [root]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif hasattr(item, "__dict__") and id(item) not in seen:
            seen.add(id(item))
            todo.extend(vars(item).values())
    return sum(buffer.nbytes for buffer in buffers.values())


def lockstep_weights(models):
    """One LstmWeights over the stacked theta of ``models``, for a workspace of K models."""
    first = models[0]
    return LstmWeights.from_theta(np.stack([w.theta for w in models]), first.W.shape[-2],
                                  first.hidden_units)


class TestLockstep:
    """K models in one workspace: each model's numbers are the ones it gets alone."""

    @pytest.mark.parametrize("seed, models", [(4, 2), (3, 3)], ids=["K2", "K3"])
    def test_group_matches_each_replicate_trained_alone(self, seed, models):
        # 21 samples in batches of 8: every epoch ends on a 5-row batch; seeds
        # 4 and 5 learn on these samples and seed 3 starts dead
        rng = np.random.default_rng(27)
        X = rng.uniform(0, 1, size=(21, 6, 3))
        y = rng.uniform(0.2, 0.8, size=21)
        dataset = WindowedDataset(X=X, y=y, dates=tuple(range(21)))
        config = ExperimentConfig(hidden_units=8, batch_size=8, epochs=4)
        group = train(dataset, config, seed=seed, models=models)
        assert len(group) == models
        learned = 0
        for k, (weights, history) in enumerate(group):
            [(alone, alone_history)] = train(dataset, config, seed=seed + k)
            learned += not np.array_equal(weights.theta, init_weights(3, 8, seed + k).theta)
            assert weights.theta.tobytes() == alone.theta.tobytes()
            assert np.array(history).tobytes() == np.array(alone_history).tobytes()
            assert predict(weights, dataset).tobytes() == predict(alone, dataset).tobytes()
        assert learned >= 2

    @pytest.mark.parametrize("B", [8, 5])
    def test_kernel_matches_expressions_per_model(self, B):
        # a full batch, then a short one through the same 8-row workspace
        T, F, H, K = 4, 3, 6, 2
        rng = np.random.default_rng(28 + B)
        models = [live_weights(H, F, seed=seed) for seed in range(K)]
        weights = lockstep_weights(models)
        workspace = LstmWorkspace(8, T, F, H, models=K)
        _, warm = forward(weights, rng.uniform(0, 1, size=(K, 8, T, F)), workspace)
        backward(weights, warm, rng.uniform(0, 1, size=(K, 8)), workspace)
        X = rng.uniform(0, 1, size=(K, B, T, F))
        y = rng.uniform(0, 1, size=(K, B))
        pred, cache = forward(weights, X, workspace)
        want = [expression_kernel(w, X[k], y[k]) for k, w in enumerate(models)]
        for k, (want_pred, want_cache, _) in enumerate(want):
            assert np.any(want_pred > 0)
            assert np.array_equal(pred[k], want_pred)
            for key in want_cache:
                assert np.array_equal(cache[key][k], want_cache[key]), key
        grads = backward(weights, cache, y, workspace)
        assert grads.theta is workspace.grads.theta
        for k, (_, _, want_theta) in enumerate(want):
            assert np.array_equal(grads.theta[k], want_theta)

    def test_clip_scales_each_model_alone(self):
        theta = np.zeros((2, theta_size(1, 1)))
        theta[:, :2] = [[30.0, 40.0], [0.3, 0.4]]  # norms 50 and 0.5
        alone = [clip_gradients(LstmWeights.from_theta(row.copy()[None], 1, 1), 5.0).theta[0]
                 for row in theta]
        clip_gradients(LstmWeights.from_theta(theta, 1, 1), 5.0)
        assert np.array_equal(theta, alone)
        assert math.hypot(*theta[0, :2]) == pytest.approx(5.0)
        assert theta[1, :2].tolist() == [0.3, 0.4]

    def test_model_count_must_match_the_workspace(self):
        models = [live_weights(4, 3, seed=seed) for seed in range(2)]
        X = np.zeros((2, 5, 4, 3))
        with pytest.raises(ValueError, match="workspace runs 2 model"):
            forward(lockstep_weights(models[:1]), X, LstmWorkspace(5, 4, 3, 4, models=2))
        with pytest.raises(ValueError, match="workspace runs 2 model"):
            forward(lockstep_weights(models), X[:1], LstmWorkspace(5, 4, 3, 4, models=2))
        with pytest.raises(ValueError, match="workspace runs 1 model"):
            forward(lockstep_weights(models), X[:1], LstmWorkspace(5, 4, 3, 4))
        workspace = LstmWorkspace(5, 4, 3, 4, models=2)
        _, cache = forward(lockstep_weights(models), X, workspace)
        with pytest.raises(ValueError, match="workspace runs 2 model"):
            backward(lockstep_weights(models[:1]), cache, np.zeros((2, 5)), workspace)


def expression_kernel(weights, X, targets):
    """forward and backward as textbook expressions on fresh arrays.

    Each product and sum has the operands and order of the in-place
    kernel's, and each matmul the same shapes and memory layout, so the
    kernel must match it bit for bit. Returns (pred, cache, grad theta).
    """
    B, T, F = X.shape
    H = weights.hidden_units
    W, U = weights.W, weights.U
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], H)
    shift = np.repeat([0.5, 0.5, 0.5, 0.0], H)
    Xt = np.ascontiguousarray(X.transpose(1, 0, 2))
    XW = (Xt.reshape(T * B, F) @ W).reshape(T, B, 4 * H)
    A = np.empty((T, B, 4 * H))
    h, c = np.zeros((T + 1, B, H)), np.zeros((T + 1, B, H))
    tanh_c = np.empty((T, B, H))
    for t in range(T):
        a = XW[t] + weights.b
        if t:
            a = a + h[t] @ U
        a = np.tanh(a * scale) * scale + shift
        i, f, o, g = np.split(a, 4, axis=1)
        c[t + 1] = f * c[t] + i * g
        tanh_c[t] = np.tanh(c[t + 1])
        h[t + 1] = o * tanh_c[t]
        A[t] = a
    z = h[T] @ weights.w_out + weights.b_out
    pred = np.maximum(z, 0.0)
    cache = {"X": Xt, "A": A.copy(), "c": c, "z": z}

    dz = (2.0 / B) * (pred - targets) * (z > 0)
    dh = np.outer(dz, weights.w_out)
    dc = np.zeros((B, H))
    dA = np.empty((T, B, 4 * H))
    for t in reversed(range(T)):
        i, f, o, g = np.split(A[t], 4, axis=1)
        dc = dc + dh * o * (1 - tanh_c[t] ** 2)
        do = dh * tanh_c[t] * o * (1 - o)
        dg = dc * i * (1 - g ** 2)
        di = dc * g * i * (1 - i)
        df = dc * c[t] * f * (1 - f)
        dc = dc * f
        dA[t] = np.concatenate([di, df, do, dg], axis=1)
        if t:
            dh = dA[t] @ U.T
    dA = dA.reshape(T * B, 4 * H)
    dW = Xt.reshape(T * B, F).T @ dA
    dU = h[:T].reshape(T * B, H).T @ dA
    theta = np.concatenate([dW.ravel(), dU.ravel(), dA.sum(axis=0), h[T].T @ dz, [dz.sum()]])
    return pred, cache, theta


class TestExpressionOracle:
    """The in-place kernel, backward's gate-major step block included, is
    bit-identical to expression_kernel at every shape, in a fresh workspace
    and in one a batch has already written; the 26-row batch runs through
    a 32-row workspace."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("B, T, F, H, rows", [
        (32, 10, 6, 16, 32), (26, 10, 14, 16, 32), (5, 4, 2, 3, 5), (1, 1, 1, 1, 1),
        (7, 3, 4, 64, 7)])
    def test_kernel_matches_expressions(self, B, T, F, H, rows, warm):
        rng = np.random.default_rng(B * 1000 + H)
        w = live_weights(H, F, seed=5)
        block = with_axis(w)[0]
        workspace = LstmWorkspace(rows, T, F, H)
        if warm:
            # a full batch first, so the one under test reuses written buffers
            _, warm = forward(block, rng.uniform(0, 1, size=(1, rows, T, F)), workspace)
            backward(block, warm, rng.uniform(0, 1, size=(1, rows)), workspace)
        X = rng.uniform(0, 1, size=(B, T, F))
        y = rng.uniform(0, 1, size=B)
        want_pred, want_cache, want_theta = expression_kernel(w, X, y)
        assert np.any(want_pred > 0)
        pred, cache = forward(block, X[None], workspace)
        assert np.array_equal(pred[0], want_pred)
        assert cache.keys() == want_cache.keys()
        for key in cache:
            assert np.array_equal(cache[key][0], want_cache[key]), key
        grads = backward(block, cache, y[None], workspace)
        assert np.array_equal(grads.theta[0], want_theta)


class TestCheckpoint:
    def test_v1_file_predicts_frozen_values(self):
        # params written by the per-gate kernel that predates the flat layout;
        # V1_PREDICTIONS are what that kernel predicted from them
        committed = Path(__file__).parent / "data" / "checkpoint_v1_h3_f2.json"
        params = json.loads(committed.read_text(encoding="utf-8"))["params"]
        n_features, hidden = np.shape(params["W_i"])
        assert (n_features, hidden) == (2, 3)
        # W_i..W_g side by side as W (F, 4H), U_i..U_g as U (H, 4H), then the rest
        names = self.V1_NAMES
        W, U = (np.hstack([params[name] for name in gates]) for gates in (names[:4], names[4:8]))
        rest = [np.ravel(params[name]) for name in names[8:]]
        theta = np.concatenate([W.ravel(), U.ravel(), *rest])
        weights = LstmWeights.from_theta(theta, n_features, hidden)
        X = np.random.default_rng(7).uniform(0, 1, size=(5, 4, 2))
        pred = predict(weights, WindowedDataset(X=X, y=np.zeros(5), dates=tuple(range(5))))
        assert pred == pytest.approx(self.V1_PREDICTIONS, rel=1e-12)

    #: the v1 file's parameter names: W's and U's gates, then the rest in theta's order
    V1_NAMES = (
        "W_i", "W_f", "W_o", "W_g",
        "U_i", "U_f", "U_o", "U_g",
        "b_i", "b_f", "b_o", "b_g",
        "w_out", "b_out",
    )

    V1_PREDICTIONS = [0.3798698132025385, 0.3493928875379534, 0.3374546653777686,
                      0.3512604468614238, 0.3096045966334155]
