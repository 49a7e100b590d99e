"""scripts/step_profile.py: per-batch timings of the training stages."""

import importlib.util
import re

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
    assert re.fullmatch(r"numpy \S+, BLAS threads (\d+|None)", lines[6])
    assert len(lines) == 7
