"""scripts/ingest_profile.py: stage timings of ingest and scoring."""

import importlib.util
import re

from conftest import REPO

_spec = importlib.util.spec_from_file_location("ingest_profile",
                                               REPO / "scripts" / "ingest_profile.py")
ingest_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ingest_profile)


def test_prints_each_stage_then_rate_and_bytes(fixture_config_path, capsys):
    ingest_profile.main(["--config", str(fixture_config_path)])
    lines = capsys.readouterr().out.splitlines()
    stages = [re.fullmatch(r"(\w+) +([0-9.]+) ms", line) for line in lines[:8]]
    assert [m.group(1) for m in stages] == ["line_ranges", "score_range", "pickle", "gather",
                                            "aggregate_daily", "clean_text", "score",
                                            "score_post"]
    assert all(float(m.group(2)) > 0 for m in stages)
    assert float(re.fullmatch(r"posts_per_s (\d+)", lines[8]).group(1)) > 0
    assert float(re.fullmatch(r"gather_bytes_per_kept_post ([0-9.]+)", lines[9]).group(1)) > 0
    assert len(lines) == 10
