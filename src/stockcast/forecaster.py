"""From-scratch single-layer LSTM regressor, trained with BPTT and Adam.

The cell is the standard formulation: logistic input/forget/output
gates, tanh candidate, with a dense head on the final hidden state and a
ReLU at the output (normalized close targets are non-negative, so the
ReLU loses nothing). Everything runs in float64 and is fully
deterministic given the config seed: weight init draws from one seeded
stream, epoch shuffles from a second, so init_weights(config) always
matches what train(config) started from.

All parameters live in one flat vector, ``LstmWeights.theta``, as five
blocks: the input maps ``W`` (4, F, H), the recurrent maps ``U``
(4, H, H) and the biases ``b`` (4H,), each with its gates in i, f, o, g
order, then the dense head ``w_out`` (H,) and ``b_out`` (). The kernel
computes all gates together (the fused layout of Appleyard et al. 2016):
one input projection X @ W for every timestep at once with the bias b
added to it, then per step one h @ U product added to that, with the
logistic gates taken in place as 0.5*(1 + tanh(x/2)), which cannot
overflow. Backward runs one dA @ U.T per step and gets dW, dU and db
from one product or sum each after the loop. Gradients come back in the
same flat layout, so clipping is one dot product and Adam one update
over the whole vector.

Each backward step copies its (B, 4H) gate rows into a gate-major
(4, B, H) block, runs the per-gate elementwise work on that block's
contiguous (B, H) arrays (1 - i, 1 - f and 1 - o as one call over three
of them), and copies the gate gradients back into the rows before
dA @ U.T; the matmuls keep the fused (B, 4H) layout. On small models that
work is bound by numpy's per-call cost, which is lower on contiguous
arrays. Forward reads its gates as column views of the rows: its four
uses of them do not pay for the copy at the reference shape.

Activations and per-step temporaries live in an LstmWorkspace: flat
buffers that ``train`` allocates once for its batch size and ``predict``
once for its chunk size, and that every batch writes into with ``out=``.
The workspace also builds the views each step works on once per batch
size, holds the logistic constants as contiguous (B, 4H) blocks and W
and U with their gates side by side, and owns the gradient vector
``backward`` returns, so a batch allocates no theta-sized array. The
cache ``forward`` returns aliases its workspace, so it is valid until
that workspace's next ``forward``, and the gradients until its next
``backward``. Each in-place step keeps the operand order of the
expression it replaces, so the numbers are bit-identical to allocating
fresh arrays.

The workspace keeps each step's gates and h and c states but not
tanh(c): forward writes each step's tanh(c[t+1]) into one (B, H) block,
and backward takes it again from c[t+1] with the same call, which gives
the same bits. One tanh per step replaces a (T, B, H) buffer, the
store-or-recompute trade of Gruslys et al. 2016.

Gradients are exact analytic BPTT, including the ReLU subgradient
(defined as 0 at exactly 0); the test suite checks them against central
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RunFailed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Global L2 norm that train clips each batch's gradients to.
GRAD_CLIP = 5.0

#: Rows per predict chunk: a multiple of 8, see predict.
PREDICT_CHUNK = 128


@dataclass(frozen=True)
class LstmConfig:
    """Model and training knobs. Defaults follow the reference protocol:
    one layer of 256 units, Adam at 0.001, batches of 128, 100 epochs."""

    hidden_units: int = 256
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if min(self.hidden_units, self.batch_size, self.epochs) < 1:
            raise ValueError("hidden_units, batch_size, epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _block_shapes(n_features, hidden):
    """The layout of theta: the shapes of W, U, b, w_out and b_out, in order."""
    F, H = n_features, hidden
    return (4, F, H), (4, H, H), (4 * H,), (H,), ()


def theta_size(n_features, hidden):
    """The number of parameters, the length of theta."""
    return sum(math.prod(shape) for shape in _block_shapes(n_features, hidden))


class LstmWeights:
    """All parameters in one flat float64 vector, ``theta``, and five views into it.

    ``W`` (4, F, H) maps inputs to the gates, ``U`` (4, H, H) is the
    recurrent map and ``b`` (4H,) the gate biases, gate k of each at
    ``W[k]``, ``U[k]`` and ``b[k*H:(k+1)*H]`` in i, f, o, g order;
    ``w_out`` (H,) and ``b_out`` () form the dense head. Gradients use
    the same class and layout.
    """

    @classmethod
    def from_theta(cls, theta, n_features, hidden):
        """Wrap an existing flat vector (no copy)."""
        weights = cls()
        weights.theta = theta
        weights.hidden_units = hidden
        views, start = [], 0
        for shape in _block_shapes(n_features, hidden):
            size = math.prod(shape)
            views.append(theta[start:start + size].reshape(shape))
            start += size
        weights.W, weights.U, weights.b, weights.w_out, weights.b_out = views
        return weights


def init_weights(config, n_features):
    """Seed-determined uniform init in [-k, k], k = 1/sqrt(hidden).

    The forget-gate bias is set to 1.0 (not drawn) so early training
    does not wash out the cell state.
    """
    h = config.hidden_units
    k = 1.0 / np.sqrt(h)
    rng = np.random.default_rng([config.seed, 0])
    size = theta_size(n_features, h)
    weights = LstmWeights.from_theta(np.full(size, np.nan), n_features, h)
    weights.b[h:2 * h] = 1.0
    # one draw, in theta's order, for every entry but the forget-gate bias
    weights.theta[np.isnan(weights.theta)] = rng.uniform(-k, k, size - h)
    return weights


class LstmWorkspace:
    """Preallocated float64 buffers that forward and backward write into.

    Sized for batches of up to ``rows`` samples of one (lookback,
    n_features, hidden) shape. A batch of B rows takes the first T*B*k
    floats of each flat buffer as a contiguous (T, B, k) array, so a short
    last batch is as contiguous as a full one. ``train`` and ``predict``
    each allocate one workspace and run every batch through it.

    It holds every step's inputs, gates and h and c states and ten (B, H)
    scratch blocks; tanh(c) is taken per step in one of them, not kept
    (see ``_BatchViews``).

    The views of a batch size, per step views included, are built on its
    first batch and kept (see ``views``): ``train`` sees two sizes, a full
    batch and the short tail, and ``predict`` a chunk and its tail. The
    logistic gates' scale and shift constants fill one buffer of ``rows``
    (4H,) rows each, so a batch multiplies and adds them as contiguous
    (B, 4H) blocks. ``fused`` holds W and U with their gates side by side,
    (F, 4H) and (H, 4H), for the matmuls; after backward's step loop they
    take the dW and dU products. ``grads`` is backward's gradient vector,
    in theta's layout. So a batch allocates no theta-sized array.
    """

    def __init__(self, rows, lookback, n_features, hidden):
        T, F, H = lookback, n_features, hidden
        self.rows, self.dims = rows, (T, F, H)
        self._X = np.empty(T * rows * F)
        self._A = np.empty(T * rows * 4 * H)
        self._h = np.empty((T + 1) * rows * H)
        self._c = np.empty((T + 1) * rows * H)
        self._scratch = np.empty(10 * rows * H)
        # logistic(x) = 0.5 * (1 + tanh(x / 2)) on i, f, o and tanh on g, as one
        # tanh over the contiguous (B, 4H) block: scale, tanh, scale, shift
        self._scale = np.tile(np.repeat([0.5, 0.5, 0.5, 1.0], H), rows)
        self._shift = np.tile(np.repeat([0.5, 0.5, 0.5, 0.0], H), rows)
        self.fused = np.empty((F, 4 * H)), np.empty((H, 4 * H))
        self._views = {}

    @cached_property
    def grads(self):
        """backward's gradient vector, made by the first backward (predict's
        workspace never has one)."""
        _, F, H = self.dims
        return LstmWeights.from_theta(np.empty(theta_size(F, H)), F, H)

    def views(self, B, T, F, H):
        """The _BatchViews of a B-row batch of (T, F, H), built on first use."""
        views = self._views.get((B, T, F, H))
        if views is None:
            if (T, F, H) != self.dims or B > self.rows:
                raise ValueError(f"workspace holds {self.rows} rows of (T, F, H) = {self.dims}; "
                                 f"got {B} rows of {(T, F, H)}")
            views = self._views[B, T, F, H] = _BatchViews(self, B)
        return views


class _BatchViews:
    """A workspace's views for batches of B rows.

    ``cache`` holds X, A, h and c, as forward documents. ``scratch`` is
    ten (B, H) temporaries: forward's h @ U product takes the first four
    as the (B, 4H) block ``hU`` and i * g the fifth, ``ig``; backward
    takes the first four as its gate-major (4, B, H) step block, the next
    three for 1 - i, 1 - f and 1 - o (and for terms while those are not
    live), and the next two as dh and dc. The last, ``tanh_c``, holds the
    step's tanh(c[t+1]) in forward and in backward. ``scale`` and
    ``shift`` are the (B, 4H) logistic constants. ``forward_steps`` and
    ``backward_steps`` hold one tuple of views per step, backward's last
    step first.
    """

    def __init__(self, workspace, B):
        T, F, H = workspace.dims
        X = _prefix(workspace._X, T, B, F)
        A = _prefix(workspace._A, T, B, 4 * H)
        h = _prefix(workspace._h, T + 1, B, H)
        c = _prefix(workspace._c, T + 1, B, H)
        self.cache = {"X": X, "A": A, "h": h, "c": c}
        self.scratch = _prefix(workspace._scratch, 10, B, H)
        self.hU, self.ig = self.scratch[:4].reshape(B, 4 * H), self.scratch[4]
        self.tanh_c = self.scratch[9]
        self.scale = _prefix(workspace._scale, B, 4 * H)
        self.shift = _prefix(workspace._shift, B, 4 * H)
        # t, A[t], h[t], c[t], c[t+1], h[t+1] and A[t]'s gate columns
        self.forward_steps = [(t, A[t], h[t], c[t], c[t + 1], h[t + 1],
                               *(A[t][:, k * H:(k + 1) * H] for k in range(4)))
                              for t in range(T)]
        # t, A[t]'s (B, 4H) rows as a gate-major (4, B, H) view, c[t+1], c[t] and A[t]
        rows = A.reshape(T, B, 4, H).transpose(0, 2, 1, 3)
        self.backward_steps = [(t, rows[t], c[t + 1], c[t], A[t]) for t in reversed(range(T))]


def _prefix(buf, *shape):
    """The first prod(shape) floats of a flat buffer, as a contiguous array."""
    return buf[:math.prod(shape)].reshape(shape)


def forward(weights, X, workspace):
    """Unrolled forward pass over a (batch, lookback, features) array.

    Returns predictions (batch,) and the activation cache BPTT needs:
    time-major inputs ``X`` (T, B, F), gate activations ``A`` (T, B, 4H)
    in i, f, o, g order, hidden and cell states ``h``/``c`` (T+1, B, H)
    with the zero initial state first, and the head pre-activation ``z``.
    The cache arrays live in ``workspace``, an LstmWorkspace with room for
    the batch, and stay valid until that workspace's next forward.

    Raises:
        RunFailed: a prediction came out inf/nan.
    """
    X = np.asarray(X, dtype=np.float64)
    B, T, F = X.shape
    H = weights.hidden_units
    views = workspace.views(B, T, F, H)
    Xt, A, h, c = (views.cache[key] for key in ("X", "A", "h", "c"))
    hU, ig, tanh_c, scale, shift = views.hU, views.ig, views.tanh_c, views.scale, views.shift
    W, U = workspace.fused
    np.copyto(W.reshape(F, 4, H), weights.W.transpose(1, 0, 2))
    np.copyto(U.reshape(H, 4, H), weights.U.transpose(1, 0, 2))
    np.copyto(Xt, X.transpose(1, 0, 2))
    XW = A.reshape(T * B, 4 * H)
    np.matmul(Xt.reshape(T * B, F), W, out=XW)
    XW += weights.b  # (XW + b) + hU: the same sums as adding b at each step
    h[0] = 0.0
    c[0] = 0.0
    for t, a, h_prev, c_prev, c_next, h_next, i, f, o, g in views.forward_steps:
        if t:  # h_0 = 0, so step 0 has no recurrent term
            np.matmul(h_prev, U, out=hU)
            a += hU
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(f, c_prev, out=c_next)
        np.multiply(i, g, out=ig)
        c_next += ig
        np.tanh(c_next, out=tanh_c)
        np.multiply(o, tanh_c, out=h_next)
    z = h[T] @ weights.w_out + weights.b_out
    pred = np.maximum(z, 0.0)
    if not np.all(np.isfinite(pred)):
        raise RunFailed("non-finite prediction; training diverged?")
    return pred, dict(views.cache, z=z)


def backward(weights, cache, targets, workspace):
    """Exact gradients of batch-mean MSE w.r.t. every parameter.

    Returns an LstmWeights over ``workspace.grads``, valid until that
    workspace's next backward. ``cache`` must be the one the workspace's
    last forward returned, and the gate gradients are written over its
    ``A``, so a cache serves one backward call. Each step takes tanh(c[t+1])
    again from c[t+1], and every step runs in place with each product's
    operands in the order of the textbook expression.
    """
    targets = np.asarray(targets, dtype=np.float64)
    X, A, h, z = (cache[key] for key in ("X", "A", "h", "z"))
    T, B, F = X.shape
    H = weights.hidden_units
    views = workspace.views(B, T, F, H)
    if views.cache["A"] is not A:
        raise ValueError("cache is not from this workspace's last forward")
    grads, scratch, tanh_c = workspace.grads, views.scratch, views.tanh_c
    dW, dU = workspace.fused  # dU holds U until the loop is done
    np.copyto(dU.reshape(H, 4, H), weights.U.transpose(1, 0, 2))
    U_T = dU.T
    pred = np.maximum(z, 0.0)
    gates, one_minus, dh, dc = scratch[:4], scratch[4:7], scratch[7], scratch[8]
    i, f, o, g = gates
    ifo = gates[:3]
    one_minus_i, one_minus_f, one_minus_o = one_minus

    # dL/dz through the ReLU; subgradient at exactly 0 is 0.
    dz = (2.0 / B) * (pred - targets) * (z > 0)
    grads.w_out[...] = h[T].T @ dz
    grads.b_out[...] = dz.sum()
    np.multiply(dz[:, None], weights.w_out, out=dh)
    dc[...] = 0.0

    for t, rows, c_next, c_prev, a in views.backward_steps:
        np.copyto(gates, rows)
        np.tanh(c_next, out=tanh_c)
        # dc += dh * o * (1 - tanh_c**2), in two of the 1 - x blocks before they fill
        t1, t2 = one_minus_i, one_minus_f
        np.multiply(dh, o, out=t1)
        np.square(tanh_c, out=t2)
        np.subtract(1.0, t2, out=t2)
        t1 *= t2
        dc += t1
        np.subtract(1.0, ifo, out=one_minus)  # 1 - i, 1 - f, 1 - o in one call
        # o <- dh * tanh_c * o * (1 - o); dh is a spare block from here to the step's end
        np.multiply(dh, tanh_c, out=dh)
        dh *= o
        np.multiply(dh, one_minus_o, out=o)
        # i <- dc * g * i * (1 - i), then g <- dc * i * (1 - g**2) with the old i,
        # whose dc * i waits in the spent 1 - o block
        np.multiply(dc, i, out=one_minus_o)
        np.multiply(dc, g, out=dh)
        dh *= i
        np.multiply(dh, one_minus_i, out=i)
        np.square(g, out=dh)
        np.subtract(1.0, dh, out=dh)
        np.multiply(one_minus_o, dh, out=g)
        # f <- dc * c_prev * f * (1 - f), and dc <- dc * f
        np.multiply(dc, c_prev, out=dh)
        dh *= f
        dc *= f
        np.multiply(dh, one_minus_f, out=f)
        np.copyto(rows, gates)
        if t:  # dh_0 would feed the zero initial state
            np.matmul(a, U_T, out=dh)

    dA = A.reshape(T * B, 4 * H)
    np.matmul(X.reshape(T * B, F).T, dA, out=dW)
    np.matmul(h[:T].reshape(T * B, H).T, dA, out=dU)
    grads.W[...] = dW.reshape(F, 4, H).transpose(1, 0, 2)
    grads.U[...] = dU.reshape(H, 4, H).transpose(1, 0, 2)
    grads.b[...] = dA.sum(axis=0)
    return grads


def clip_gradients(grads, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    g = grads.theta
    total = np.sqrt(g @ g)
    if total > max_norm and total > 0:
        g *= max_norm / total
    return grads


@dataclass
class AdamState:
    """First/second moment vectors (theta's layout), one theta-sized
    scratch row for the update, and the shared timestep."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray  # (theta size,)
    t: int = 0

    @classmethod
    def for_weights(cls, weights):
        theta = weights.theta
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta), scratch=np.empty_like(theta))


def adam_step(weights, grads, state, lr):
    """One bias-corrected Adam update with the ADAM_* constants, in place;
    returns (weights, state). Overwrites ``grads``.

    Each step writes into state.scratch, and v_hat over ``grads.theta``,
    which nothing reads after the moment updates, with the operands and
    order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
    theta -= lr*m_hat / (sqrt(v_hat) + eps), so it allocates no
    theta-sized array and matches those expressions bit for bit.
    """
    state.t += 1
    b1, b2, eps, t = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.t
    g, a = grads.theta, state.scratch
    state.m *= b1
    state.m += np.multiply(1.0 - b1, g, out=a)
    state.v *= b2
    state.v += np.multiply(1.0 - b2, np.square(g, out=a), out=a)
    np.divide(state.m, 1.0 - b1 ** t, out=a)  # m_hat
    np.divide(state.v, 1.0 - b2 ** t, out=g)  # v_hat
    np.add(np.sqrt(g, out=g), eps, out=g)
    weights.theta -= np.divide(np.multiply(lr, a, out=a), g, out=a)
    return weights, state


def train(dataset, config):
    """Train on a WindowedDataset; returns (weights, loss_history).

    Mini-batches follow a seed-determined shuffle each epoch (last batch
    may be short). loss_history holds one training MSE per epoch,
    accumulated over the batches as they were seen.

    Raises:
        RunFailed: ``training diverged at epoch N`` when activations or a
            batch's loss went non-finite.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.float64)
    n = X.shape[0]
    if n < 1:
        raise ValueError("need at least one training sample")
    weights = init_weights(config, X.shape[2])
    workspace = LstmWorkspace(min(config.batch_size, n), X.shape[1], X.shape[2],
                              config.hidden_units)
    state = AdamState.for_weights(weights)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    loss_history = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                pred, cache = forward(weights, X[idx], workspace)
                with np.errstate(over="ignore"):
                    batch_sq = float(np.sum((pred - y[idx]) ** 2))
                if not math.isfinite(batch_sq):
                    # stop here: backward, clip and Adam would spread the overflow
                    raise RunFailed("non-finite batch loss")
                sq_sum += batch_sq
                grads = backward(weights, cache, y[idx], workspace)
                clip_gradients(grads, GRAD_CLIP)
                adam_step(weights, grads, state, config.learning_rate)
            epoch_loss = sq_sum / n
            if not np.isfinite(epoch_loss):
                raise RunFailed("non-finite epoch loss")
        except RunFailed as exc:
            raise RunFailed(f"training diverged at epoch {epoch}") from exc
        loss_history.append(epoch_loss)
    return weights, loss_history


def predict(weights, dataset):
    """One prediction per sample, order preserved; empty in, empty out.

    The samples run through one workspace in chunks of PREDICT_CHUNK rows.
    A 1-row tail joins the chunk before it: a 1-row product goes through
    gemv, whose sums differ from gemm's in the last bit. BLAS kernels
    handle rows in groups (OpenBLAS's dgemv in fours), so with
    PREDICT_CHUNK a multiple of 8 every prediction is bit-identical to one
    forward over all n samples.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    n, T, F = X.shape
    if n == 0:
        return np.empty(0, dtype=np.float64)
    starts = list(range(0, n, PREDICT_CHUNK))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    bounds = starts + [n]
    workspace = LstmWorkspace(max(np.diff(bounds)), T, F, weights.hidden_units)
    preds = np.empty(n)
    for start, stop in zip(bounds, bounds[1:]):
        pred, _ = forward(weights, X[start:stop], workspace)
        preds[start:stop] = pred
    return preds


__all__ = [
    "LstmConfig",
    "LstmWeights",
    "LstmWorkspace",
    "AdamState",
    "theta_size",
    "init_weights",
    "forward",
    "backward",
    "clip_gradients",
    "adam_step",
    "train",
    "predict",
]
