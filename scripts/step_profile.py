"""Time the stages of one LSTM training batch (forward, backward, clip, Adam) and predict.

Runs --batches batches of seeded random windows of one shape through one
workspace, each stage called as ``forecaster.train`` calls it, after a
warm-up of WARMUP batches. With --models K, K models train in lockstep
through one workspace of K models, as ``train`` runs a group of
replicates, and the stage times are per model: a group's time over K.
After each batch, ``predict`` runs on one chunk of PREDICT_CHUNK seeded
random windows, its own workspace included, as it runs once per model.
Prints the median microseconds per batch of ``forward``, ``backward``,
``clip_gradients`` and ``adam_step`` and per chunk of ``predict``; the
median minor page faults (``ru_minflt``) per ``predict`` call, which
faults in a fresh workspace unless the allocator kept the last one's
pages; the bytes one training workspace of K models and its AdamState
hold after a batch and one predict workspace holds after a chunk
(tracemalloc); the process's peak RSS (``ru_maxrss``) after the timed
batches; then numpy's version and the number of threads the loaded BLAS
uses.

Usage (from the repository root; set OPENBLAS_NUM_THREADS to pin BLAS):
    PYTHONPATH=src python scripts/step_profile.py --hidden 16 --batch 32 \\
        --lookback 10 --features 10 --batches 500 [--models 2]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from statistics import median

import numpy as np

from stockcast.config import ExperimentConfig
from stockcast.features import WindowedDataset
from stockcast.forecaster import (
    GRAD_CLIP,
    PREDICT_CHUNK,
    AdamState,
    LstmWeights,
    LstmWorkspace,
    adam_step,
    backward,
    clip_gradients,
    forward,
    init_weights,
    predict,
)

ROOT = Path(__file__).resolve().parent.parent

#: Untimed batches run first, so buffers and BLAS threads are up.
WARMUP = 5


def blas_threads():
    """The benchmark's own reading of the BLAS thread count."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench_run  # its dataclasses look their module up
    spec.loader.exec_module(bench_run)
    return bench_run.blas_threads()


def group_weights(hidden, features, models):
    """K seeded models' weights as the (K, theta size) block a workspace of K models takes."""
    theta = np.stack([init_weights(features, hidden, seed).theta for seed in range(models)])
    return LstmWeights.from_theta(theta, features, hidden)


def training_bytes(hidden, batch, lookback, features, models=1):
    """Bytes that one training workspace of K models and its AdamState hold
    after a batch, the workspace's gradient vectors included, by tracemalloc."""
    weights = group_weights(hidden, features, models)
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(models, batch, lookback, features))
    y = rng.uniform(0, 1, size=(models, batch))
    tracemalloc.start()
    try:
        state = AdamState.for_weights(weights)
        workspace = LstmWorkspace(batch, lookback, features, hidden, models)
        _, cache = forward(weights, X, workspace)
        backward(weights, cache, y, workspace)
        del cache
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def predict_bytes(hidden, lookback, features):
    """Bytes that one predict workspace holds after a chunk of PREDICT_CHUNK
    windows, by tracemalloc."""
    weights = group_weights(hidden, features, 1)
    X = np.random.default_rng(2).uniform(0, 1, size=(1, PREDICT_CHUNK, lookback, features))
    tracemalloc.start()
    try:
        workspace = LstmWorkspace(PREDICT_CHUNK, lookback, features, hidden)
        forward(weights, X, workspace)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def profile(hidden, batch, lookback, features, batches, models=1):
    """Median microseconds per batch and model (per chunk for predict) of
    each stage, by stage name, and the median minor page faults per predict
    call."""
    lr = ExperimentConfig().learning_rate  # the reference protocol's
    weights = group_weights(hidden, features, models)
    first = LstmWeights.from_theta(weights.theta[0], features, hidden)
    state = AdamState.for_weights(weights)
    workspace = LstmWorkspace(batch, lookback, features, hidden, models)
    rng = np.random.default_rng(0)
    chunk = WindowedDataset(X=rng.uniform(0, 1, size=(PREDICT_CHUNK, lookback, features)),
                            y=np.zeros(PREDICT_CHUNK), dates=tuple(range(PREDICT_CHUNK)))
    times = {"forward": [], "backward": [], "clip_gradients": [], "adam_step": [], "predict": []}
    faults = []
    for n in range(WARMUP + batches):
        X = rng.uniform(0, 1, size=(models, batch, lookback, features))
        y = rng.uniform(0, 1, size=(models, batch))
        t0 = time.perf_counter()
        _, cache = forward(weights, X, workspace)
        t1 = time.perf_counter()
        grads = backward(weights, cache, y, workspace)
        t2 = time.perf_counter()
        clip_gradients(grads, GRAD_CLIP)
        t3 = time.perf_counter()
        adam_step(weights, grads, state, lr)
        t4 = time.perf_counter()
        minflt = getrusage(RUSAGE_SELF).ru_minflt
        t5 = time.perf_counter()
        predict(first, chunk)
        t6 = time.perf_counter()
        minflt = getrusage(RUSAGE_SELF).ru_minflt - minflt
        if n >= WARMUP:
            for name, start, stop in zip(times, (t0, t1, t2, t3, t5), (t1, t2, t3, t4, t6)):
                per = models if name != "predict" else 1
                times[name].append((stop - start) * 1e6 / per)
            faults.append(minflt)
    return {name: median(values) for name, values in times.items()}, median(faults)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hidden", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--lookback", type=int, required=True)
    parser.add_argument("--features", type=int, required=True)
    parser.add_argument("--batches", type=int, required=True)
    parser.add_argument("--models", type=int, default=1,
                        help="models trained in lockstep; stage times are per model")
    args = parser.parse_args(argv)
    sizes = (args.hidden, args.batch, args.lookback, args.features, args.batches, args.models)
    if min(sizes) < 1:
        parser.error("every size must be >= 1")
    medians, faults = profile(*sizes)
    peak_rss = getrusage(RUSAGE_SELF).ru_maxrss
    held = training_bytes(args.hidden, args.batch, args.lookback, args.features, args.models)
    held_by_predict = predict_bytes(args.hidden, args.lookback, args.features)
    group = f" K={args.models}" if args.models > 1 else ""
    print(f"H={args.hidden} B={args.batch} T={args.lookback} F={args.features}{group}, "
          f"median of {args.batches} batches")
    for name, us in medians.items():
        print(f"{name:15s} {us:10.1f} us")
    print(f"{'predict_minflt':15s} {faults:10.1f} faults per call")
    print(f"{'train_bytes':15s} {held:10d} B in workspace and AdamState")
    print(f"{'predict_bytes':15s} {held_by_predict:10d} B in one predict workspace")
    print(f"{'peak_rss':15s} {peak_rss:10d} kB (ru_maxrss)")
    print(f"numpy {np.__version__}, BLAS threads {blas_threads()}")


if __name__ == "__main__":
    main()
