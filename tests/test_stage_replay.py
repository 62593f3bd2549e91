"""Smoke test of ``tools/stage_replay.py`` on a tiny generated stream."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from sketchstream import run_bootstrap

from test_engine import lines_of, small_config, small_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "stage_replay.py"


def test_stage_replay_times_every_stage(tmp_path, capsys):
    dataset = small_dataset()
    model_path, test_path = tmp_path / "model.txt", tmp_path / "test.tsv"
    run_bootstrap(lines_of(dataset.train), small_config(), model_path)
    test_path.write_text("".join(lines_of(dataset.test)), encoding="ascii")
    spec = importlib.util.spec_from_file_location("stage_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    argv = ["--model", str(model_path), "--test", str(test_path), "--max-edges", "40"]
    assert module.main(argv + ["--folds"]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert result["edges"] == len(dataset.test) and result["max_edges"] == 40
    assert list(result["cpu_s"]) == ["parse", "delta", "apply", "update"]
    assert all(seconds >= 0 for seconds in result["cpu_s"].values())
    folds = result["folds"]
    assert 0 < folds["miss_share"] < 1 and 0 <= folds["miss_share_of_slowest_1pct"] <= 1
    assert folds["hit_us"] > 0 and folds["miss_us"] > 0
    assert [line.split()[0] for line in out[1:5]] == ["parse", "delta", "apply", "update"]
