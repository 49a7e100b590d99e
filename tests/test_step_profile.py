"""scripts/step_profile.py: per-batch timings of the training stages."""

import importlib.util
import re

import pytest

from stockcast.forecaster import ADAM_CHUNK, PREDICT_CHUNK, theta_size

from conftest import REPO

_spec = importlib.util.spec_from_file_location("step_profile", REPO / "scripts" / "step_profile.py")
step_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_profile)


def test_prints_each_stage_then_numpy_and_blas(capsys):
    step_profile.main(["--hidden", "2", "--batch", "3", "--lookback", "2", "--features", "1",
                       "--batches", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "H=2 B=3 T=2 F=1, median of 2 batches"
    stages = [re.fullmatch(r"(\w+) +([0-9.]+) us", line) for line in lines[1:6]]
    assert [m.group(1) for m in stages] == ["forward", "backward", "clip_gradients", "adam_step",
                                            "predict"]
    assert all(float(m.group(2)) > 0 for m in stages)
    assert re.fullmatch(r"predict_minflt +[0-9]+\.[0-9] faults per call", lines[6])
    held = re.fullmatch(r"train_bytes +([0-9]+) B in workspace and AdamState", lines[7])
    # at least the workspace's A and c and Adam's m and v
    H, B, T, F = 2, 3, 2, 1
    floats = T * B * 4 * H + (T + 1) * B * H + 2 * theta_size(F, H)
    assert int(held.group(1)) >= 8 * floats
    check_predict_and_rss_lines(lines, H, T, F)
    assert re.fullmatch(r"numpy \S+, BLAS threads (\d+|None)", lines[10])
    assert len(lines) == 11


def check_predict_and_rss_lines(lines, H, T, F):
    held = re.fullmatch(r"predict_bytes +([0-9]+) B in one predict workspace", lines[8])
    # at least one chunk's X, A and c
    floats = PREDICT_CHUNK * (T * (F + 4 * H) + (T + 1) * H)
    assert int(held.group(1)) >= 8 * floats
    peak = re.fullmatch(r"peak_rss +([0-9]+) kB \(ru_maxrss\)", lines[9])
    assert 1024 * int(peak.group(1)) >= int(held.group(1))


def test_models_times_one_lockstep_group(capsys):
    step_profile.main(["--hidden", "2", "--batch", "3", "--lookback", "2", "--features", "1",
                       "--batches", "2", "--models", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "H=2 B=3 T=2 F=1 K=2, median of 2 batches"
    stages = [re.fullmatch(r"(\w+) +([0-9.]+) us", line) for line in lines[1:6]]
    assert [m.group(1) for m in stages] == ["forward", "backward", "clip_gradients", "adam_step",
                                            "predict"]
    assert all(float(m.group(2)) > 0 for m in stages)
    held = re.fullmatch(r"train_bytes +([0-9]+) B in workspace and AdamState", lines[7])
    # at least both models' A and c and both Adam rows of m and v
    H, B, T, F, K = 2, 3, 2, 1, 2
    floats = K * (T * B * 4 * H + (T + 1) * B * H + 2 * theta_size(F, H))
    assert int(held.group(1)) >= 8 * floats
    check_predict_and_rss_lines(lines, H, T, F)
    assert len(lines) == 11


@pytest.mark.parametrize("models", [1, 2])
def test_train_bytes_hold_no_copy_of_the_weights(models):
    # the workspace's X, A, c, scratch, scale, shift and gradient vectors and
    # Adam's m, v and column chunk, plus 32 KB for the Python objects that hold
    # them; one copy of a model's W and U, (F + H) * 4H floats, is 144 KB here
    H, B, T, F, K = 64, 4, 2, 8, models
    theta = theta_size(F, H)
    floats = (K * B * (T * F + T * 4 * H + (T + 1) * H + 10 * H) + 2 * B * 4 * H
              + 3 * K * theta + K * min(ADAM_CHUNK, theta))
    assert step_profile.training_bytes(H, B, T, F, K) <= 8 * floats + 32 * 1024
