"""From-scratch single-layer LSTM regressor, trained with BPTT and Adam.

The cell is the standard formulation: logistic input/forget/output
gates, tanh candidate, with a dense head on the final hidden state and a
ReLU at the output (normalized close targets are non-negative, so the
ReLU loses nothing). Everything runs in float64 and is fully
deterministic given the config seed: weight init draws from one seeded
stream, epoch shuffles from a second, so init_weights(config) always
matches what train(config) started from.

All parameters live in one flat vector, ``LstmWeights.theta``, laid out
in PARAM_ORDER; ``weights[name]`` is a view into it. Because the gates
are ordered i, f, o, g, the four W_* form one (4, F, H) block, the U_*
one (4, H, H) block and the b_* one (4H,) block. The kernel computes all
gates together (the fused layout of Appleyard et al. 2016): one input
projection X @ W + b for every timestep at once, then one h @ U product
per step, with the logistic gates taken in place as 0.5*(1 + tanh(x/2)),
which cannot overflow. Backward runs one dA @ U.T per step and gets dW,
dU and db from one product or sum each after the loop. Gradients come
back in the same flat layout, so clipping is one dot product and Adam
one update over the whole vector.

Gradients are exact analytic BPTT, including the ReLU subgradient
(defined as 0 at exactly 0); the test suite checks them against central
finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, NonFiniteActivation, TrainingDiverged

#: Checkpoint / gradient / Adam traversal order, and the layout of
#: LstmWeights.theta. Changing it breaks checkpoint compatibility; bump
#: CHECKPOINT_FORMAT if you must.
PARAM_ORDER = (
    "W_i", "W_f", "W_o", "W_g",
    "U_i", "U_f", "U_o", "U_g",
    "b_i", "b_f", "b_o", "b_g",
    "w_out", "b_out",
)

CHECKPOINT_FORMAT = "stockcast-lstm-v1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LstmConfig:
    """Model and training knobs. Defaults follow the reference protocol:
    one layer of 256 units, Adam at 0.001, batches of 128, 100 epochs."""

    hidden_units: int = 256
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 100
    lookback: int = 30
    seed: int = 0
    grad_clip: float = 5.0

    def __post_init__(self):
        if min(self.hidden_units, self.batch_size, self.epochs, self.lookback) < 1:
            raise ValueError("hidden_units, batch_size, epochs, lookback must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _param_shape(name, n_features, hidden):
    if name == "b_out":
        return ()
    if name.startswith("W_"):
        return (n_features, hidden)
    if name.startswith("U_"):
        return (hidden, hidden)
    return (hidden,)  # gate biases and w_out


def _theta_size(n_features, hidden):
    return sum(math.prod(_param_shape(name, n_features, hidden)) for name in PARAM_ORDER)


class _ParamViews(dict):
    """name -> view into theta; assigning to a name writes into theta."""

    def __setitem__(self, name, value):
        self[name][...] = value


class LstmWeights:
    """All parameters in one flat float64 vector, ``theta``, in PARAM_ORDER.

    W_* map inputs to the hidden layer, U_* are the recurrent maps, b_*
    the gate biases; w_out/b_out form the dense head. ``params[name]`` is
    a contiguous view into theta, and ``W`` (4, F, H), ``U`` (4, H, H)
    and ``b`` (4H,) view the three gate blocks. Gradients use the same
    class and layout.
    """

    def __init__(self, params):
        missing = [name for name in PARAM_ORDER if name not in params]
        if missing:
            raise ValueError(f"missing parameters: {missing}")
        n_features, hidden = np.shape(params["W_i"])
        self._bind(np.empty(_theta_size(n_features, hidden)), n_features, hidden)
        for name in PARAM_ORDER:
            value = np.asarray(params[name], dtype=np.float64)
            if value.shape != self.params[name].shape:
                raise ValueError(f"{name} has shape {value.shape}, "
                                 f"expected {self.params[name].shape}")
            self.params[name] = value

    @classmethod
    def from_theta(cls, theta, n_features, hidden):
        """Wrap an existing flat vector (no copy)."""
        weights = cls.__new__(cls)
        weights._bind(theta, n_features, hidden)
        return weights

    def _bind(self, theta, n_features, hidden):
        self.theta = theta
        self.n_features = n_features
        self.hidden_units = hidden
        views = {}
        start = 0
        for name in PARAM_ORDER:
            shape = _param_shape(name, n_features, hidden)
            size = math.prod(shape)
            views[name] = theta[start:start + size].reshape(shape)
            start += size
        self.params = _ParamViews(views)
        F, H = n_features, hidden
        self.W = theta[:4 * F * H].reshape(4, F, H)
        self.U = theta[4 * F * H:4 * H * (F + H)].reshape(4, H, H)
        self.b = theta[4 * H * (F + H):4 * H * (F + H + 1)]

    def __getitem__(self, name):
        return self.params[name]

    def items(self):
        return [(name, self.params[name]) for name in PARAM_ORDER]

    def copy(self):
        return LstmWeights.from_theta(self.theta.copy(), self.n_features, self.hidden_units)


def init_weights(config, n_features):
    """Seed-determined uniform init in [-k, k], k = 1/sqrt(hidden).

    The forget-gate bias is set to 1.0 (not drawn) so early training
    does not wash out the cell state.
    """
    h = config.hidden_units
    k = 1.0 / np.sqrt(h)
    rng = np.random.default_rng([config.seed, 0])
    weights = LstmWeights.from_theta(np.empty(_theta_size(n_features, h)), n_features, h)
    for name, view in weights.items():
        if name == "b_f":
            view[...] = 1.0
        else:
            view[...] = rng.uniform(-k, k, size=view.shape)
    return weights


def _forward_batch(weights, X):
    """Unrolled forward pass over a (batch, lookback, features) array.

    Returns predictions (batch,) and the activation cache BPTT needs:
    time-major inputs ``X`` (T, B, F), gate activations ``A`` (T, B, 4H)
    in i, f, o, g order, hidden and cell states ``h``/``c`` (T+1, B, H)
    with the zero initial state first, ``tanh_c`` (T, B, H), and the head
    pre-activation ``z``.

    Raises:
        NonFiniteActivation: a prediction came out inf/nan.
    """
    X = np.asarray(X, dtype=np.float64)
    B, T, F = X.shape
    H = weights.hidden_units
    W = weights.W.transpose(1, 0, 2).reshape(F, 4 * H)
    U = weights.U.transpose(1, 0, 2).reshape(H, 4 * H)
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    A = (X.reshape(T * B, F) @ W).reshape(T, B, 4 * H)
    A += weights.b
    h = np.zeros((T + 1, B, H))
    c = np.zeros((T + 1, B, H))
    tanh_c = np.empty((T, B, H))
    # logistic(x) = 0.5 * (1 + tanh(x / 2)) on i, f, o and tanh on g, as one
    # tanh over the contiguous (B, 4H) block: scale, tanh, scale, shift.
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], H)
    shift = np.repeat([0.5, 0.5, 0.5, 0.0], H)
    for t in range(T):
        a = A[t]
        if t:  # h_0 = 0, so step 0 has no recurrent term
            a += h[t] @ U
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        i, f, o, g = (a[:, k * H:(k + 1) * H] for k in range(4))
        np.multiply(f, c[t], out=c[t + 1])
        c[t + 1] += i * g
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=h[t + 1])
    z = h[T] @ weights["w_out"] + weights["b_out"]
    pred = np.maximum(z, 0.0)
    if not np.all(np.isfinite(pred)):
        raise NonFiniteActivation("non-finite prediction; training diverged?")
    return pred, {"X": X, "A": A, "h": h, "c": c, "tanh_c": tanh_c, "z": z}


def lstm_forward(weights, X):
    """Forward one (lookback, features) sample -> (prediction, cache)."""
    pred, cache = _forward_batch(weights, np.asarray(X, dtype=np.float64)[None, :, :])
    return float(pred[0]), cache


def mse_loss(predictions, targets):
    """Mean squared error between two equal-length vectors."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise LengthMismatch(
            f"predictions {predictions.shape} vs targets {targets.shape}"
        )
    if predictions.size == 0:
        raise LengthMismatch("need at least one prediction")
    return float(np.mean((predictions - targets) ** 2))


def _backward_batch(weights, cache, targets):
    """Exact gradients of batch-mean MSE w.r.t. every parameter.

    Returns an LstmWeights over a fresh gradient vector. The gate
    gradients are written over ``cache["A"]``, so a cache serves one
    backward call.
    """
    targets = np.asarray(targets, dtype=np.float64)
    X, A, h, c, tanh_c, z = (cache[key] for key in ("X", "A", "h", "c", "tanh_c", "z"))
    T, B, F = X.shape
    H = weights.hidden_units
    U = weights.U.transpose(1, 0, 2).reshape(H, 4 * H)
    pred = np.maximum(z, 0.0)
    grads = LstmWeights.from_theta(np.empty_like(weights.theta), F, H)

    # dL/dz through the ReLU; subgradient at exactly 0 is 0.
    dz = (2.0 / B) * (pred - targets) * (z > 0)
    grads["w_out"][...] = h[T].T @ dz
    grads["b_out"][...] = dz.sum()
    dh = np.outer(dz, weights["w_out"])
    dc = np.zeros_like(dh)

    for t in reversed(range(T)):
        a = A[t]
        i, f, o, g = (a[:, k * H:(k + 1) * H] for k in range(4))
        dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
        da_i = dc * g * i * (1.0 - i)
        da_f = dc * c[t] * f * (1.0 - f)
        da_o = dh * tanh_c[t] * o * (1.0 - o)
        da_g = dc * i * (1.0 - g ** 2)
        dc = dc * f
        i[...], f[...], o[...], g[...] = da_i, da_f, da_o, da_g
        if t:  # dh_0 would feed the zero initial state
            dh = a @ U.T

    dA = A.reshape(T * B, 4 * H)
    grads.W[...] = (X.reshape(T * B, F).T @ dA).reshape(F, 4, H).transpose(1, 0, 2)
    grads.U[...] = (h[:T].reshape(T * B, H).T @ dA).reshape(H, 4, H).transpose(1, 0, 2)
    grads.b[...] = dA.sum(axis=0)
    return grads


def backward(weights, cache, target):
    """Gradients of single-sample squared error; cache from lstm_forward."""
    return _backward_batch(weights, cache, np.asarray([target], dtype=np.float64))


def clip_gradients(grads, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    g = grads.theta
    total = np.sqrt(g @ g)
    if total > max_norm and total > 0:
        g *= max_norm / total
    return grads


@dataclass
class AdamState:
    """First/second moment vectors (theta's layout) plus the shared timestep."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def for_weights(cls, weights):
        return cls(m=np.zeros_like(weights.theta), v=np.zeros_like(weights.theta))


def adam_step(weights, grads, state, lr):
    """One bias-corrected Adam update, in place; returns (weights, state)."""
    state.t += 1
    b1, b2, eps, t = state.beta1, state.beta2, state.eps, state.t
    g = grads.theta
    state.m *= b1
    state.m += (1.0 - b1) * g
    state.v *= b2
    state.v += (1.0 - b2) * g ** 2
    m_hat = state.m / (1.0 - b1 ** t)
    v_hat = state.v / (1.0 - b2 ** t)
    weights.theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return weights, state


def train(dataset, config):
    """Train on a WindowedDataset; returns (weights, loss_history).

    Mini-batches follow a seed-determined shuffle each epoch (last batch
    may be short). loss_history holds one training MSE per epoch,
    accumulated over the batches as they were seen.

    Raises:
        TrainingDiverged: activations went non-finite.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.float64)
    n = X.shape[0]
    if n < 1:
        raise ValueError("need at least one training sample")
    weights = init_weights(config, X.shape[2])
    state = AdamState.for_weights(weights)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    loss_history = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                pred, cache = _forward_batch(weights, X[idx])
                sq_sum += float(np.sum((pred - y[idx]) ** 2))
                grads = _backward_batch(weights, cache, y[idx])
                del cache  # spent; free it before the next batch's forward
                clip_gradients(grads, config.grad_clip)
                adam_step(weights, grads, state, config.learning_rate)
        except NonFiniteActivation as exc:
            raise TrainingDiverged(epoch) from exc
        epoch_loss = sq_sum / n
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch)
        loss_history.append(epoch_loss)
    return weights, loss_history


def predict(weights, dataset, chunk_size=512):
    """One prediction per sample, order preserved; empty in, empty out."""
    X = np.asarray(dataset.X, dtype=np.float64)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    preds = []
    for start in range(0, X.shape[0], chunk_size):
        pred, _ = _forward_batch(weights, X[start:start + chunk_size])
        preds.append(pred)
    return np.concatenate(preds)


# --- checkpoints ---------------------------------------------------------------

def save_checkpoint(path, weights, config):
    """Write weights + config echo as JSON; parameters in PARAM_ORDER."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": {
            "hidden_units": config.hidden_units,
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "lookback": config.lookback,
            "seed": config.seed,
            "grad_clip": config.grad_clip,
        },
        "n_features": weights.n_features,
        "params": {name: arr.tolist() for name, arr in weights.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_checkpoint(path):
    """Read a checkpoint back; returns (weights, config). Exact round-trip."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')!r}")
    config = LstmConfig(**payload["config"])
    weights = LstmWeights({name: np.array(value, dtype=np.float64)
                           for name, value in payload["params"].items()})
    return weights, config


__all__ = [
    "LstmConfig",
    "LstmWeights",
    "AdamState",
    "PARAM_ORDER",
    "init_weights",
    "lstm_forward",
    "mse_loss",
    "backward",
    "clip_gradients",
    "adam_step",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
]
