"""scripts/step_profile.py: per-batch timings of the training stages."""

import importlib.util
import re

from stockcast.forecaster import theta_size

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
    # at least the workspace's A, h and c and Adam's m, v and scratch row
    H, B, T, F = 2, 3, 2, 1
    floats = T * B * 4 * H + 2 * (T + 1) * B * H + 3 * theta_size(F, H)
    assert int(held.group(1)) >= 8 * floats
    assert re.fullmatch(r"numpy \S+, BLAS threads (\d+|None)", lines[8])
    assert len(lines) == 9


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
    # at least both models' A, h and c and both Adam rows of m, v and scratch
    H, B, T, F, K = 2, 3, 2, 1, 2
    floats = K * (T * B * 4 * H + 2 * (T + 1) * B * H + 3 * theta_size(F, H))
    assert int(held.group(1)) >= 8 * floats
    assert len(lines) == 9
