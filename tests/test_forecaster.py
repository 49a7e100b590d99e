"""LSTM forecaster: cell equations, gradients, Adam, training loop."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from stockcast.errors import LengthMismatch, NonFiniteActivation, TrainingDiverged
from stockcast.features import WindowedDataset
from stockcast.forecaster import (
    AdamState,
    LstmConfig,
    LstmWeights,
    PARAM_ORDER,
    adam_step,
    backward,
    clip_gradients,
    init_weights,
    load_checkpoint,
    lstm_forward,
    mse_loss,
    predict,
    save_checkpoint,
    train,
)
from stockcast.forecaster import _backward_batch, _forward_batch


def cell_oracle(weights, X):
    """Step-by-step scalar evaluation of the five cell equations.

    Pure Python loops over units; shares nothing with the vectorized
    implementation beyond the parameter values.
    """
    p = {name: np.asarray(arr, dtype=float) for name, arr in weights.items()}
    n_steps, n_feat = X.shape
    H = p["W_i"].shape[1]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * H
    c = [0.0] * H
    for t in range(n_steps):
        x = X[t]
        nh, nc = [0.0] * H, [0.0] * H
        for u in range(H):
            def pre(gate):
                acc = p[f"b_{gate}"][u]
                for k in range(n_feat):
                    acc += x[k] * p[f"W_{gate}"][k, u]
                for k in range(H):
                    acc += h[k] * p[f"U_{gate}"][k, u]
                return acc

            i_u = sig(pre("i"))
            f_u = sig(pre("f"))
            o_u = sig(pre("o"))
            g_u = math.tanh(pre("g"))
            nc[u] = f_u * c[u] + i_u * g_u
            nh[u] = o_u * math.tanh(nc[u])
        h, c = nh, nc
    z = float(p["b_out"])
    for u in range(H):
        z += h[u] * p["w_out"][u]
    return max(z, 0.0)


def finite_difference_grads(weights, X, targets, h=1e-5):
    """Central differences of the batch-mean squared error."""
    def loss():
        pred, _ = _forward_batch(weights, X)
        return float(np.mean((pred - targets) ** 2))

    fd = {}
    for name, arr in weights.items():
        flat = arr.reshape(-1) if arr.ndim else np.atleast_1d(arr)
        grad = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss()
            flat[j] = orig - h
            down = loss()
            flat[j] = orig
            grad[j] = (up - down) / (2 * h)
        fd[name] = grad.reshape(arr.shape) if arr.ndim else grad[0]
    return fd


def max_relative_error(analytic, fd):
    worst = 0.0
    for name in PARAM_ORDER:
        a = np.atleast_1d(np.asarray(analytic[name], dtype=float)).ravel()
        b = np.atleast_1d(np.asarray(fd[name], dtype=float)).ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def zero_weights(hidden, n_features):
    params = {}
    for name in PARAM_ORDER:
        if name == "w_out":
            params[name] = np.zeros(hidden)
        elif name == "b_out":
            params[name] = np.zeros(())
        elif name.startswith("W_"):
            params[name] = np.zeros((n_features, hidden))
        elif name.startswith("U_"):
            params[name] = np.zeros((hidden, hidden))
        else:
            params[name] = np.zeros(hidden)
    return LstmWeights(params)


def live_sample(weights, rng, lookback, n_features):
    """Draw inputs until the ReLU head is active, so checks are informative."""
    for _ in range(50):
        X = rng.uniform(-1, 1, size=(lookback, n_features))
        pred, _ = lstm_forward(weights, X)
        if pred > 0:
            return X
    raise AssertionError("no live sample found; pick another seed")


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = LstmConfig(hidden_units=8, seed=5)
        w1 = init_weights(cfg, 3)
        w2 = init_weights(cfg, 3)
        for name, arr in w1.items():
            assert np.array_equal(arr, w2.params[name])

    def test_different_seed_differs(self):
        w1 = init_weights(LstmConfig(hidden_units=8, seed=5), 3)
        w2 = init_weights(LstmConfig(hidden_units=8, seed=6), 3)
        assert not np.array_equal(w1["W_i"], w2["W_i"])

    def test_forget_bias_is_one(self):
        w = init_weights(LstmConfig(hidden_units=8, seed=0), 3)
        assert np.all(w["b_f"] == 1.0)

    def test_shapes(self):
        w = init_weights(LstmConfig(hidden_units=8, seed=0), 3)
        for gate in "ifog":
            assert w[f"W_{gate}"].shape == (3, 8)
            assert w[f"U_{gate}"].shape == (8, 8)
            assert w[f"b_{gate}"].shape == (8,)
        assert w["w_out"].shape == (8,)
        assert w["b_out"].shape == ()

    def test_bound(self):
        w = init_weights(LstmConfig(hidden_units=16, seed=1), 4)
        k = 1 / math.sqrt(16)
        for name, arr in w.items():
            if name == "b_f":
                continue
            assert np.all(np.abs(arr) <= k)


class TestForward:
    def test_all_zero(self):
        w = zero_weights(4, 2)
        pred, _ = lstm_forward(w, np.zeros((3, 2)))
        assert pred == 0.0

    def test_lookback_one_single_step(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=2), 2)
        X = np.array([[0.3, -0.7]])
        pred, cache = lstm_forward(w, X)
        assert cache["A"].shape[0] == 1
        assert pred == pytest.approx(cell_oracle(w, X), rel=1e-12)

    def test_matches_cell_oracle_seed42(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=42), 2)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(3, 2))
        pred, _ = lstm_forward(w, X)
        assert pred == pytest.approx(cell_oracle(w, X), rel=1e-12, abs=1e-15)

    def test_matches_cell_oracle_more_shapes(self):
        rng = np.random.default_rng(9)
        for hidden, lookback, feats in [(1, 1, 1), (3, 5, 4), (6, 2, 3)]:
            w = init_weights(LstmConfig(hidden_units=hidden, seed=7), feats)
            X = rng.normal(size=(lookback, feats))
            pred, _ = lstm_forward(w, X)
            assert pred == pytest.approx(cell_oracle(w, X), rel=1e-12, abs=1e-15)

    def test_gates_bounded(self):
        w = init_weights(LstmConfig(hidden_units=5, seed=3), 2)
        _, cache = lstm_forward(w, np.random.default_rng(0).normal(size=(4, 2)))
        H = w.hidden_units
        for gates, tanh_c in zip(cache["A"], cache["tanh_c"]):
            for k in range(3):  # i, f, o
                values = gates[:, k * H:(k + 1) * H]
                assert np.all((values > 0) & (values < 1))
            assert np.all(np.abs(tanh_c) <= 1.0)

    def test_non_finite_raises(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=0), 2)
        with pytest.raises(NonFiniteActivation):
            lstm_forward(w, np.full((3, 2), np.nan))

    def test_extreme_preactivations_no_overflow(self):
        # gate pre-activations of exactly +-1000: the logistic must saturate
        # to finite values in [0, 1] without an exp overflow warning
        H = 3
        w = zero_weights(H, 2)
        w.params["b_i"] = 1000.0
        w.params["b_f"] = -1000.0
        w.params["b_o"] = 1000.0
        w.params["b_g"] = -1000.0
        w.params["w_out"] = -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred, cache = lstm_forward(w, np.zeros((4, 2)))
        gates = cache["A"][:, :, :3 * H]
        assert np.all(np.isfinite(gates))
        assert np.all((gates >= 0) & (gates <= 1))
        assert np.all(cache["A"][:, :, :H] == 1.0)  # i saturates at 1
        assert np.all(cache["A"][:, :, H:2 * H] == 0.0)  # f saturates at 0
        assert pred == pytest.approx(H * math.tanh(1.0), rel=1e-12)  # c = g = -1


class TestFlatLayout:
    def test_views_alias_theta(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=2), 3)
        rng = np.random.default_rng(3)
        X = live_sample(w, rng, 5, 3)
        theta_before = w.theta.copy()
        pred_before, _ = lstm_forward(w, X)
        w["U_f"][...] += 0.5
        changed = np.flatnonzero(w.theta != theta_before)
        start = 4 * 3 * 4 + 4 * 4  # after the W block and U_i
        assert np.array_equal(changed, np.arange(start, start + 4 * 4))
        pred_after, _ = lstm_forward(w, X)
        assert pred_after != pred_before

    def test_gate_blocks_follow_param_order(self):
        w = init_weights(LstmConfig(hidden_units=3, seed=4), 2)
        for k, gate in enumerate("ifog"):
            assert np.array_equal(w.W[k], w[f"W_{gate}"])
            assert np.array_equal(w.U[k], w[f"U_{gate}"])
            assert np.array_equal(w.b[k * 3:(k + 1) * 3], w[f"b_{gate}"])
        assert w.theta.size == sum(arr.size for _, arr in w.items())


class TestMseLoss:
    def test_identical(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mse_loss([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_singleton(self):
        assert mse_loss([2.0], [3.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse_loss([1.0], [1.0, 2.0])


class TestBackward:
    def test_gradient_check_single_sample(self):
        rng = np.random.default_rng(11)
        w = init_weights(LstmConfig(hidden_units=6, seed=3), 3)
        X = live_sample(w, rng, 4, 3)
        y = 0.2
        _, cache = lstm_forward(w, X)
        analytic = backward(w, cache, y)
        fd = finite_difference_grads(w, X[None, :, :], np.array([y]))
        assert max_relative_error(analytic, fd) < 1e-4

    def test_gradient_check_batch(self):
        rng = np.random.default_rng(12)
        w = init_weights(LstmConfig(hidden_units=5, seed=8), 2)
        X = rng.uniform(-1, 1, size=(6, 4, 2))
        y = rng.uniform(0, 1, size=6)
        _, cache = _forward_batch(w, X)
        analytic = _backward_batch(w, cache, y)
        fd = finite_difference_grads(w, X, y)
        assert max_relative_error(analytic, fd) < 1e-4

    def test_zero_inputs_zero_input_weight_grads(self):
        rng = np.random.default_rng(4)
        w = init_weights(LstmConfig(hidden_units=4, seed=9), 3)
        X = np.zeros((5, 3))
        _, cache = lstm_forward(w, X)
        grads = backward(w, cache, 0.5)
        for gate in "ifog":
            assert np.all(grads[f"W_{gate}"] == 0.0)

    def test_dead_relu_all_grads_zero(self):
        w = zero_weights(4, 2)
        w.params["b_out"] = np.asarray(-1.0)  # pre-activation < 0 always
        X = np.random.default_rng(0).normal(size=(3, 2))
        pred, cache = lstm_forward(w, X)
        assert pred == 0.0
        grads = backward(w, cache, 1.0)
        for name in PARAM_ORDER:
            assert np.all(np.asarray(grads[name]) == 0.0)


class TestAdam:
    def make(self, values):
        w = zero_weights(2, 1)
        for name in PARAM_ORDER:
            w.params[name] = w.params[name] + values
        return w

    def test_zero_gradient_no_move(self):
        w = init_weights(LstmConfig(hidden_units=3, seed=0), 2)
        before = {name: arr.copy() for name, arr in w.items()}
        grads = LstmWeights({name: np.zeros_like(arr) for name, arr in w.items()})
        state = AdamState.for_weights(w)
        adam_step(w, grads, state, lr=0.1)
        assert state.t == 1
        for name, arr in w.items():
            assert np.array_equal(arr, before[name])

    def test_first_step_closed_form(self):
        # t=1 bias correction collapses to delta = -lr*g/(|g|+eps)
        w = init_weights(LstmConfig(hidden_units=3, seed=1), 2)
        before = {name: arr.copy() for name, arr in w.items()}
        rng = np.random.default_rng(5)
        grads = LstmWeights({name: rng.normal(size=arr.shape) for name, arr in w.items()})
        state = AdamState.for_weights(w)
        lr = 0.01
        adam_step(w, grads, state, lr)
        for name, arr in w.items():
            g = grads[name]
            expected = before[name] - lr * g / (np.sqrt(g ** 2) + state.eps)
            assert arr == pytest.approx(expected, rel=1e-9)

    def test_two_steps_differ_from_one_double_lr_step(self):
        # gradients are recomputed at the moved weights, so two small
        # steps do not collapse into one big one
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(4, 3, 2))
        y = rng.uniform(0, 1, size=4)

        def grads_at(w):
            _, cache = _forward_batch(w, X)
            return _backward_batch(w, cache, y)

        w_two = init_weights(LstmConfig(hidden_units=3, seed=4), 2)
        s_two = AdamState.for_weights(w_two)
        first_grads = grads_at(w_two)
        adam_step(w_two, first_grads, s_two, lr=0.01)
        adam_step(w_two, grads_at(w_two), s_two, lr=0.01)

        w_one = init_weights(LstmConfig(hidden_units=3, seed=4), 2)
        s_one = AdamState.for_weights(w_one)
        adam_step(w_one, grads_at(w_one), s_one, lr=0.02)

        assert not np.allclose(w_two["W_i"], w_one["W_i"], atol=1e-12)

    def test_clip_gradients_scales_to_norm(self):
        grads = zero_weights(1, 1)
        grads.params["W_i"] = 3.0
        grads.params["U_i"] = 4.0
        grads.params["b_out"] = 12.0
        clip_gradients(grads, 6.5)
        total = math.sqrt(float(sum(np.sum(g ** 2) for _, g in grads.items())))
        assert total == pytest.approx(6.5, rel=1e-12)
        # direction preserved
        assert grads["U_i"][0, 0] / grads["W_i"][0, 0] == pytest.approx(4 / 3, rel=1e-12)


def constant_target_dataset():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, size=(40, 5, 2))
    y = np.full(40, 0.6)
    return WindowedDataset(X=X, y=y, dates=tuple(range(40)))


class TestTrain:
    CFG = LstmConfig(hidden_units=16, learning_rate=0.001, batch_size=8,
                     epochs=150, lookback=5, seed=7)

    def test_constant_target_converges(self):
        _, history = train(constant_target_dataset(), self.CFG)
        assert len(history) == self.CFG.epochs
        assert history[-1] < 1e-4

    def test_loss_monotone_after_warmup(self):
        _, history = train(constant_target_dataset(), self.CFG)
        violations = sum(
            1 for i in range(10, len(history) - 1) if history[i + 1] > history[i]
        )
        assert violations <= 3

    def test_same_seed_bit_identical(self):
        ds = constant_target_dataset()
        cfg = LstmConfig(hidden_units=8, batch_size=16, epochs=12, lookback=5, seed=3)
        w1, h1 = train(ds, cfg)
        w2, h2 = train(ds, cfg)
        assert h1 == h2
        for name, arr in w1.items():
            assert np.array_equal(arr, w2.params[name])

    def test_defaults_accepted(self):
        cfg = LstmConfig()
        assert (cfg.hidden_units, cfg.learning_rate, cfg.batch_size, cfg.epochs) == \
            (256, 0.001, 128, 100)

    def test_diverged_dataset_raises(self):
        ds = constant_target_dataset()
        bad = WindowedDataset(X=ds.X.copy(), y=ds.y, dates=ds.dates)
        bad.X[3, 2, 1] = np.nan
        with pytest.raises(TrainingDiverged) as exc:
            train(bad, LstmConfig(hidden_units=4, batch_size=8, epochs=2,
                                  lookback=5, seed=0))
        assert exc.value.epoch == 0


class TestPredict:
    def make_dataset(self, n=9):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(n, 4, 3))
        y = rng.uniform(0, 1, size=n)
        return WindowedDataset(X=X, y=y, dates=tuple(range(n)))

    def test_empty(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=0), 3)
        ds = WindowedDataset(X=np.empty((0, 4, 3)), y=np.empty(0), dates=())
        assert predict(w, ds).shape == (0,)

    def test_single_sample_equals_forward(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=1), 3)
        ds = self.make_dataset(1)
        pred = predict(w, ds)
        direct, _ = lstm_forward(w, ds.X[0])
        assert pred[0] == direct

    def test_batch_equals_per_sample_loop(self):
        w = init_weights(LstmConfig(hidden_units=4, seed=2), 3)
        ds = self.make_dataset(9)
        batched = predict(w, ds, chunk_size=4)
        looped = np.array([lstm_forward(w, x)[0] for x in ds.X])
        assert batched == pytest.approx(looped, rel=0, abs=1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = LstmConfig(hidden_units=6, seed=13, epochs=2, lookback=4)
        w = init_weights(cfg, 3)
        path = tmp_path / "model.json"
        save_checkpoint(path, w, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name, arr in w.items():
            assert np.array_equal(arr, loaded.params[name])

    def test_v1_file_loads_predicts_and_rewrites_identically(self, tmp_path):
        # written by the per-gate kernel that predates the flat layout;
        # PREDICTIONS are what that kernel predicted from it
        committed = Path(__file__).parent / "data" / "checkpoint_v1_h3_f2.json"
        weights, cfg = load_checkpoint(committed)
        assert (weights.n_features, weights.hidden_units) == (2, 3)
        X = np.random.default_rng(7).uniform(0, 1, size=(5, 4, 2))
        pred = predict(weights, WindowedDataset(X=X, y=np.zeros(5), dates=tuple(range(5))))
        assert pred == pytest.approx(self.V1_PREDICTIONS, rel=1e-12)
        rewritten = tmp_path / "model.json"
        save_checkpoint(rewritten, weights, cfg)
        assert rewritten.read_bytes() == committed.read_bytes()

    V1_PREDICTIONS = [0.3798698132025385, 0.3493928875379534, 0.3374546653777686,
                      0.3512604468614238, 0.3096045966334155]

    def test_format_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
